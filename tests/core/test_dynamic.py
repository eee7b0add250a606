"""Tests for dynamic updates (MutableDesksIndex) and location moves."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    IncrementalSearcher,
    MutableDesksIndex,
    brute_force_search,
)
from repro.datasets import POI, POICollection
from repro.storage import SearchStats
from repro.trace import Tracer, explain

from .conftest import KEYWORD_POOL, make_collection, random_query_params


def brute_force_over(pois, query):
    """Oracle over an explicit POI list (ids preserved)."""
    entries = []
    for poi in pois:
        if query.matches(poi.location, poi.keywords):
            entries.append(
                (query.location.distance_to(poi.location), poi.poi_id))
    entries.sort()
    return [d for d, _ in entries[:query.k]]


class TestMutableIndexBasics:
    def test_threshold_validation(self):
        col = make_collection(20, seed=1)
        with pytest.raises(ValueError):
            MutableDesksIndex(col, rebuild_threshold=0.0)
        with pytest.raises(ValueError):
            MutableDesksIndex(col, rebuild_threshold=1.5)

    def test_len_tracks_updates(self):
        col = make_collection(20, seed=1)
        idx = MutableDesksIndex(col, num_bands=2, num_wedges=2,
                                rebuild_threshold=1.0)
        assert len(idx) == 20
        new_id = idx.insert(5.0, 5.0, ["cafe"])
        assert len(idx) == 21
        assert idx.delete(new_id)
        assert len(idx) == 20

    def test_insert_returns_fresh_ids(self):
        col = make_collection(10, seed=2)
        idx = MutableDesksIndex(col, num_bands=2, num_wedges=2,
                                rebuild_threshold=1.0)
        a = idx.insert(1.0, 1.0, ["x"])
        b = idx.insert(2.0, 2.0, ["x"])
        assert a == 10 and b == 11

    def test_delete_unknown_or_twice(self):
        col = make_collection(10, seed=3)
        idx = MutableDesksIndex(col, num_bands=2, num_wedges=2)
        assert not idx.delete(999)
        assert idx.delete(3)
        assert not idx.delete(3)

    def test_get(self):
        col = make_collection(10, seed=4)
        idx = MutableDesksIndex(col, num_bands=2, num_wedges=2,
                                rebuild_threshold=1.0)
        new_id = idx.insert(7.0, 8.0, ["pizza"])
        assert idx.get(0).poi_id == 0
        assert idx.get(new_id).keywords == frozenset({"pizza"})
        idx.delete(new_id)
        with pytest.raises(KeyError):
            idx.get(new_id)
        with pytest.raises(KeyError):
            idx.get(500)

    def test_get_rejects_negative_ids(self):
        idx = MutableDesksIndex(make_collection(10, seed=4), num_bands=2,
                                num_wedges=2)
        assert not idx.delete(-1)
        with pytest.raises(KeyError):
            idx.get(-1)

    def test_compact_with_no_live_poi_changes_nothing(self):
        col = make_collection(10, seed=4)
        idx = MutableDesksIndex(col, num_bands=2, num_wedges=2,
                                rebuild_threshold=1.0)
        for poi_id in range(len(col)):
            assert idx.delete(poi_id)
        generation = idx.generation
        assert not idx.compact()
        assert (len(idx), idx.rebuild_count, idx.generation) == \
            (0, 0, generation)
        assert idx.static_index.collection is col
        assert idx.search(DirectionalQuery.undirected(
            50.0, 50.0, ["cafe"], 3)).entries == []
        new_id = idx.insert(1.0, 2.0, ["cafe"])
        assert idx.compact()
        assert [p.keywords for p in idx.live_pois()] == [
            frozenset({"cafe"})]
        assert new_id == 10 and len(idx.collection) == 1

    @pytest.mark.parametrize("x, y", [(math.inf, 100.0), (5.0, math.nan)])
    def test_insert_refuses_non_finite_location(self, x, y):
        index = MutableDesksIndex(make_collection(60, seed=4),
                                  rebuild_threshold=1.0)
        generation = index.generation
        with pytest.raises(ValueError, match="POI 60 has a non-finite"):
            index.insert(x, y, ["cafe"])
        assert len(index) == 60 and index.generation == generation
        # The refused insert left nothing behind: the next one takes its
        # id, and a compaction absorbs only that one.
        assert index.insert(5.0, 5.0, ["cafe"]) == 60
        index.compact()
        assert len(index.collection) == 61
        assert all(map(math.isfinite, index.collection.mbr))

    def test_rebuild_triggered(self):
        col = make_collection(20, seed=5)
        idx = MutableDesksIndex(col, num_bands=2, num_wedges=2,
                                rebuild_threshold=0.2)
        for i in range(6):
            idx.insert(float(i), float(i), ["cafe"])
        assert idx.rebuild_count >= 1
        assert idx.num_pending < 6
        assert len(idx) == 26


class TestMutableIndexQueries:
    def test_insert_then_found(self):
        col = make_collection(50, seed=6)
        idx = MutableDesksIndex(col, num_bands=3, num_wedges=3,
                                rebuild_threshold=1.0)
        poi_id = idx.insert(50.0, 50.0, ["uniquekeyword"])
        q = DirectionalQuery.undirected(49.0, 49.0, ["uniquekeyword"], 5)
        result = idx.search(q)
        assert result.poi_ids() == [poi_id]

    def test_delete_then_gone(self):
        col = make_collection(50, seed=7)
        idx = MutableDesksIndex(col, num_bands=3, num_wedges=3)
        target = col[0]
        kw = next(iter(target.keywords))
        q = DirectionalQuery.undirected(target.location.x,
                                        target.location.y, [kw], 100)
        assert target.poi_id in idx.search(q).poi_ids()
        idx.delete(target.poi_id)
        assert target.poi_id not in idx.search(q).poi_ids()

    def test_static_k_grows_only_by_static_tombstones(self, monkeypatch):
        """A tombstone on a delta POI buries nothing the static search can
        return, so it must not inflate the static search's k."""
        asked = []

        class Recording(DesksSearcher):
            def search(self, query, *args, **kwargs):
                asked.append(query.k)
                return super().search(query, *args, **kwargs)

        # The seam that makes each snapshot's searcher.
        monkeypatch.setattr(MutableDesksIndex, "_searcher_class", Recording)
        col = make_collection(50, seed=8)
        idx = MutableDesksIndex(col, num_bands=3, num_wedges=3,
                                rebuild_threshold=1.0)
        q = DirectionalQuery.undirected(50.0, 50.0, ["cafe"], 4)
        first = idx.insert(50.0, 50.5, ["cafe"])
        second = idx.insert(50.5, 50.0, ["cafe"])
        assert idx.delete(first) and idx.delete(second)
        assert brute_force_over(idx.live_pois(), q) == \
            idx.search(q).distances()
        assert asked == [4]
        assert idx.delete(0)
        assert brute_force_over(idx.live_pois(), q) == \
            idx.search(q).distances()
        assert asked == [4, 5]

    def test_matches_oracle_through_update_stream(self):
        """Random inserts/deletes/queries stay exact at every step.

        The mirror tracks POI *contents* (locations + keywords); ids are
        re-densified by rebuilds, so deletes pick victims from the index's
        own live view and the mirror is keyed by content, which is what
        the distance-based oracle compares.
        """
        rng = random.Random(8)
        col = make_collection(60, seed=8)
        idx = MutableDesksIndex(col, num_bands=3, num_wedges=3,
                                rebuild_threshold=0.3)
        mirror = {(p.location.x, p.location.y, p.keywords)
                  for p in col}
        for step in range(120):
            op = rng.random()
            if op < 0.3:
                x, y = rng.uniform(0, 100), rng.uniform(0, 100)
                kws = frozenset(rng.sample(KEYWORD_POOL, rng.randint(1, 3)))
                idx.insert(x, y, kws)
                mirror.add((x, y, kws))
            elif op < 0.45 and len(idx):
                victim = rng.choice(idx.live_pois())
                assert idx.delete(victim.poi_id)
                mirror.discard((victim.location.x, victim.location.y,
                                victim.keywords))
            else:
                x, y, a, b, kws, k = random_query_params(rng)
                q = DirectionalQuery.make(x, y, a, b, kws, k)
                got = idx.search(q).distances()
                expect = brute_force_over(
                    [POI.make(i, px, py, pk)
                     for i, (px, py, pk) in enumerate(mirror)], q)
                assert [round(d, 9) for d in got] == \
                    [round(d, 9) for d in expect], f"step {step}"
            # The index's own live view always matches the mirror size.
            assert len(idx) == len(mirror)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 50), st.floats(0, 50),
                              st.sampled_from(["a", "b"])),
                    min_size=1, max_size=25),
           st.floats(0, 2 * math.pi), st.floats(0.1, 2 * math.pi))
    def test_inserts_match_static_rebuild(self, rows, alpha, width):
        """Query answers equal a statically built index on the same data."""
        base = POICollection([POI.make(0, 1.0, 1.0, ["a"])])
        idx = MutableDesksIndex(base, num_bands=2, num_wedges=2,
                                rebuild_threshold=1.0)
        pois = [POI.make(0, 1.0, 1.0, ["a"])]
        for i, (x, y, kw) in enumerate(rows, start=1):
            idx.insert(x, y, [kw])
            pois.append(POI.make(i, x, y, [kw]))
        static = DesksSearcher(DesksIndex(POICollection(pois),
                                          num_bands=2, num_wedges=2))
        q = DirectionalQuery.make(25.0, 25.0, alpha, alpha + width,
                                  ["a"], 5)
        assert idx.search(q).distances() == pytest.approx(
            static.search(q).distances())


class _Expired:
    """A deadline that has already passed."""

    def expired(self):
        return True


def traced_search(idx, query, stats=None, deadline=None):
    """``idx.search`` under a fresh tracer; the result and the span names."""
    tracer = Tracer()
    with tracer.activate():
        result = idx.search(query, stats=stats, deadline=deadline)
    return result, {span.name for span in tracer.roots}


class TestSnapshotMemo:
    """Each static index remembers its complete answers until a rebuild."""

    QUERY = DirectionalQuery.make(50.0, 50.0, 0.3, 2.8, ["cafe"], 5)

    def mutable(self):
        return MutableDesksIndex(make_collection(200, seed=14), num_bands=3,
                                 num_wedges=3, rebuild_threshold=1.0)

    def test_repeat_read_skips_the_indexed_search(self):
        idx = self.mutable()
        first, spans = traced_search(idx, self.QUERY)
        assert "desks.search" in spans and "desks.memo" not in spans
        idx.insert(50.5, 51.0, ["cafe"])
        idx.insert(10.0, 10.0, ["food"])
        stats = SearchStats()
        second, spans = traced_search(idx, self.QUERY, stats)
        assert "desks.memo" in spans and "desks.search" not in spans
        # The delta walk visits the `cafe` POI only, never the `food` one.
        assert stats.pois_examined == 1
        assert stats.candidates_verified == stats.subregions_examined == 0
        assert second.entries == brute_force_search(
            idx.live_pois(), self.QUERY).entries
        report = explain(idx, self.QUERY)
        assert report.actuals["access_path"] == "memo"
        assert report.actuals["pois_fetched"] == 1
        assert report.reconciled

    def test_compaction_carries_the_memo(self):
        idx = self.mutable()
        nearest = idx.search(self.QUERY).entries[0].poi_id
        idx.insert(50.5, 51.0, ["cafe"])
        assert idx.delete(nearest)
        idx.search(self.QUERY)      # memoized at one static tombstone
        assert idx.compact()
        stats = SearchStats()
        tracer = Tracer()
        with tracer.activate():
            result = idx.search(self.QUERY, stats=stats)
        # The memo, then the carried walk over the retired delta (its one
        # `cafe` insert) in place of the indexed search's tree.
        names = [span.name for span in tracer.roots]
        assert names == ["desks.memo", "desks.search", "desks.delta"]
        walk = tracer.find("desks.search")
        assert walk.children == [] and walk.attrs["pois_fetched"] == 1
        assert stats.pois_examined == 1
        assert result.entries == brute_force_search(
            idx.live_pois(), self.QUERY).entries
        assert result.entries == DesksSearcher(idx.static_index).search(
            self.QUERY).entries
        _, spans = traced_search(idx, self.QUERY)
        assert "desks.memo" in spans

    def test_partial_answers_are_not_memoized(self):
        idx = self.mutable()
        cut, _ = traced_search(idx, self.QUERY, deadline=_Expired())
        assert cut.partial
        full, spans = traced_search(idx, self.QUERY)
        assert "desks.search" in spans and not full.partial
        # Complete now, so memoized: a hit ignores the deadline.
        again, spans = traced_search(idx, self.QUERY, deadline=_Expired())
        assert "desks.memo" in spans and not again.partial
        assert again.entries == full.entries


class TestMoveLocation:
    def test_matches_from_scratch(self):
        col = make_collection(300, seed=9)
        searcher = DesksSearcher(DesksIndex(col, num_bands=4,
                                            num_wedges=4))
        inc = IncrementalSearcher(searcher)
        rng = random.Random(10)
        for _ in range(25):
            x, y, a, b, kws, k = random_query_params(rng)
            q = DirectionalQuery.make(x, y, a, b, kws, k)
            inc.initial_search(q)
            nx, ny = x + rng.uniform(-5, 5), y + rng.uniform(-5, 5)
            got = inc.move_location(nx, ny)
            expect = brute_force_search(
                col, DirectionalQuery.make(nx, ny, a, b, kws, k))
            assert [round(d, 9) for d in got.distances()] == \
                [round(d, 9) for d in expect.distances()]

    def test_cache_updated_to_new_location(self):
        col = make_collection(100, seed=11)
        searcher = DesksSearcher(DesksIndex(col, num_bands=3,
                                            num_wedges=3))
        inc = IncrementalSearcher(searcher)
        q = DirectionalQuery.make(50, 50, 0.0, 2.0, ["cafe"], 5)
        inc.initial_search(q)
        inc.move_location(60.0, 40.0)
        assert inc.cached.query.location.x == 60.0

    def test_small_hop_reduces_work_on_average(self):
        col = make_collection(400, seed=12)
        searcher = DesksSearcher(DesksIndex(col, num_bands=4,
                                            num_wedges=5))
        inc = IncrementalSearcher(searcher)
        rng = random.Random(13)
        seeded = fresh = 0
        for _ in range(30):
            x, y = rng.uniform(20, 80), rng.uniform(20, 80)
            a = rng.uniform(0, 2 * math.pi)
            q = DirectionalQuery.make(x, y, a, a + 1.5, ["food"], 10)
            inc.initial_search(q)
            s1, s2 = SearchStats(), SearchStats()
            inc.move_location(x + 1.0, y + 1.0, stats=s1)
            searcher.search(
                DirectionalQuery.make(x + 1.0, y + 1.0, a, a + 1.5,
                                      ["food"], 10), stats=s2)
            seeded += s1.pois_examined
            fresh += s2.pois_examined
        assert seeded <= fresh

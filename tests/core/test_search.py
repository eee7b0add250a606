"""Correctness tests for DESKS search: all modes against the brute oracle."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    MatchMode,
    PruningMode,
    brute_force_search,
)
from repro.core.search import _TopK
from repro.core.query import ResultEntry
from repro.datasets import POI, POICollection
from repro.storage import SearchStats

from .conftest import KEYWORD_POOL, make_collection, random_query_params


def assert_same_answers(got, expect):
    """Same distances; ids may differ only among exact ties."""
    assert [round(d, 9) for d in got.distances()] == \
        [round(d, 9) for d in expect.distances()]
    got_ids, exp_ids = got.poi_ids(), expect.poi_ids()
    for i, (g, e) in enumerate(zip(got_ids, exp_ids)):
        if g != e:
            assert got.distances()[i] == pytest.approx(expect.distances()[i])


class TestTopK:
    def test_below_capacity(self):
        top = _TopK(3)
        top.add(1, 5.0)
        assert top.kth_distance == math.inf
        assert [e.poi_id for e in top.entries()] == [1]

    def test_eviction(self):
        top = _TopK(2)
        for pid, d in [(1, 5.0), (2, 3.0), (3, 4.0)]:
            top.add(pid, d)
        assert [e.poi_id for e in top.entries()] == [2, 3]
        assert top.kth_distance == 4.0

    def test_duplicate_poi_ignored(self):
        top = _TopK(2)
        top.add(1, 5.0)
        top.add(1, 5.0)
        assert len(top.entries()) == 1

    def test_seed(self):
        top = _TopK(2, seed=[ResultEntry(9, 1.0), ResultEntry(8, 2.0)])
        assert top.kth_distance == 2.0

    @given(st.dictionaries(st.integers(0, 30), st.floats(0.0, 100.0),
                           max_size=40),
           st.integers(1, 8))
    def test_matches_sorted_take_k(self, distances, k):
        """The collector keeps ``sorted((distance, poi_id))[:k]``, ties too.

        In a search each POI has exactly one distance, hence the dict
        strategy; re-adds with conflicting distances cannot occur.
        """
        top = _TopK(k)
        for pid, d in distances.items():
            top.add(pid, d)
        expect = sorted((d, pid) for pid, d in distances.items())[:k]
        assert [(e.distance, e.poi_id) for e in top.entries()] == expect


class TestSearchBasics:
    def test_unknown_keyword_empty(self, searcher):
        q = DirectionalQuery.make(50, 50, 0, 1, ["nosuchword"], 5)
        assert len(searcher.search(q)) == 0

    def test_results_sorted_and_within_interval(self, collection, searcher):
        q = DirectionalQuery.make(50, 50, 0.3, 1.9, ["cafe"], 10)
        result = searcher.search(q)
        assert result.distances() == sorted(result.distances())
        for entry in result:
            poi = collection[entry.poi_id]
            assert "cafe" in poi.keywords
            theta = q.location.direction_to(poi.location)
            assert q.interval.contains(theta)

    def test_k_exceeds_matches(self, collection, searcher):
        q = DirectionalQuery.make(50, 50, 0.0, 0.05, ["cafe", "gas"], 1000)
        result = searcher.search(q)
        expect = brute_force_search(collection, q)
        assert_same_answers(result, expect)

    def test_full_circle_equals_undirected_knn(self, collection, searcher):
        q = DirectionalQuery.undirected(40, 60, ["food"], 8)
        assert_same_answers(searcher.search(q),
                            brute_force_search(collection, q))

    def test_search_basic_rejects_complex(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.1, 3.0, ["cafe"], 5)
        with pytest.raises(ValueError, match="single-quadrant"):
            searcher.search_basic(q)

    def test_search_basic_single_quadrant(self, collection, searcher):
        q = DirectionalQuery.make(50, 50, 0.1, 1.2, ["cafe"], 5)
        assert_same_answers(searcher.search_basic(q),
                            brute_force_search(collection, q))

    def test_query_on_poi_location(self, collection, searcher):
        poi = collection[0]
        kw = next(iter(poi.keywords))
        q = DirectionalQuery.make(poi.location.x, poi.location.y,
                                  0.2, 0.9, [kw], 3)
        result = searcher.search(q)
        assert result.entries[0].poi_id == poi.poi_id
        assert result.entries[0].distance == 0.0

    def test_stats_populated(self, searcher):
        stats = SearchStats()
        # Every keyword under ANY: the cost model picks the region search.
        q = DirectionalQuery.make(50, 50, 0.0, 1.0, KEYWORD_POOL, 5,
                                  MatchMode.ANY)
        searcher.search(q, stats=stats)
        assert stats.regions_examined > 0
        assert stats.pois_examined > 0


class TestPruningModes:
    @pytest.mark.parametrize("mode", list(PruningMode))
    def test_all_modes_correct_random(self, collection, searcher, mode):
        rng = random.Random(99)
        for _ in range(60):
            x, y, a, b, kws, k = random_query_params(rng)
            q = DirectionalQuery.make(x, y, a, b, kws, k)
            assert_same_answers(searcher.search(q, mode),
                                brute_force_search(collection, q))

    def test_mode_flags(self):
        assert PruningMode.R.region and not PruningMode.R.direction
        assert PruningMode.D.direction and not PruningMode.D.region
        assert PruningMode.RD.region and PruningMode.RD.direction

    def test_rd_examines_fewest_pois(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.0, math.pi / 3, ["cafe"], 10)
        counts = {}
        for mode in PruningMode:
            stats = SearchStats()
            searcher.search(q, mode, stats)
            counts[mode] = stats.pois_examined
        assert counts[PruningMode.RD] <= counts[PruningMode.R]
        assert counts[PruningMode.RD] <= counts[PruningMode.D]

    def test_direction_pruning_skips_subregions(self, searcher):
        """A narrow query must examine fewer sub-regions under +D than +R."""
        q = DirectionalQuery.make(50, 50, 0.1, 0.4, ["food"], 5)
        stats_r, stats_d = SearchStats(), SearchStats()
        searcher.search(q, PruningMode.R, stats_r)
        searcher.search(q, PruningMode.D, stats_d)
        assert stats_d.pois_examined <= stats_r.pois_examined


class TestQueryLocations:
    def test_query_outside_mbr(self, collection, searcher):
        rng = random.Random(5)
        for _ in range(40):
            x, y, a, b, kws, k = random_query_params(rng, outside=True)
            q = DirectionalQuery.make(x, y, a, b, kws, k)
            assert_same_answers(searcher.search(q),
                                brute_force_search(collection, q))

    def test_query_on_mbr_corner(self, collection, searcher):
        c = collection.mbr.bottom_left
        q = DirectionalQuery.make(c.x, c.y, 0.0, math.pi / 2, ["cafe"], 5)
        assert_same_answers(searcher.search(q),
                            brute_force_search(collection, q))

    def test_query_on_mbr_edges(self, collection, searcher):
        m = collection.mbr
        for x, y in [(m.min_x, 50.0), (m.max_x, 50.0),
                     (50.0, m.min_y), (50.0, m.max_y)]:
            q = DirectionalQuery.make(x, y, 0.5, 2.5, ["food"], 5)
            assert_same_answers(searcher.search(q),
                                brute_force_search(collection, q))


class TestIntervalShapes:
    @pytest.mark.parametrize("alpha,beta", [
        (0.0, 2 * math.pi),                 # full circle
        (0.0, math.pi / 2),                  # exactly one quadrant
        (math.pi / 2, math.pi),              # second quadrant
        (math.pi, 3 * math.pi / 2),          # third
        (3 * math.pi / 2, 2 * math.pi),      # fourth
        (7 * math.pi / 4, 9 * math.pi / 4),  # wraps 2*pi
        (1.0, 1.0),                          # degenerate single ray
        (0.0, math.pi),                      # half plane
        (math.pi / 4, 7 * math.pi / 4),      # wide, 3 quadrants
    ])
    def test_special_intervals(self, collection, searcher, alpha, beta):
        q = DirectionalQuery.make(47, 53, alpha, beta, ["food"], 10)
        assert_same_answers(searcher.search(q),
                            brute_force_search(collection, q))

    def test_degenerate_ray_through_poi(self, collection, searcher):
        """A zero-width interval aimed exactly at a POI must find it."""
        target = next(p for p in collection if "cafe" in p.keywords)
        origin = type(target.location)(target.location.x - 7.0,
                                       target.location.y - 3.0)
        theta = origin.direction_to(target.location)
        q = DirectionalQuery.make(origin.x, origin.y, theta, theta,
                                  ["cafe"], 50)
        assert target.poi_id in searcher.search(q).poi_ids()


class TestDiskBackedSearch:
    @pytest.fixture(scope="class")
    def disk_searcher(self):
        col = make_collection(300, seed=17)
        idx = DesksIndex(col, num_bands=4, num_wedges=5, disk_based=True)
        return col, DesksSearcher(idx)

    def test_matches_brute_force(self, disk_searcher):
        col, searcher = disk_searcher
        rng = random.Random(31)
        for _ in range(40):
            x, y, a, b, kws, k = random_query_params(rng)
            q = DirectionalQuery.make(x, y, a, b, kws, k)
            assert_same_answers(searcher.search(q),
                                brute_force_search(col, q))

    def test_io_counted(self, disk_searcher):
        col, searcher = disk_searcher
        searcher.index.drop_caches()
        searcher.index.io_stats.reset()
        q = DirectionalQuery.make(50, 50, 0.0, 1.0, ["cafe"], 5)
        searcher.search(q)
        assert searcher.index.io_stats.logical_reads > 0


class TestSpecialDatasets:
    def test_collinear_pois(self):
        pois = [POI.make(i, float(i), 0.0, ["x"]) for i in range(20)]
        col = POICollection(pois)
        idx = DesksIndex(col, num_bands=3, num_wedges=3)
        s = DesksSearcher(idx)
        q = DirectionalQuery.make(5.0, 0.0, 0.0, 0.1, ["x"], 3)
        expect = brute_force_search(col, q)
        assert_same_answers(s.search(q), expect)

    def test_coincident_pois(self):
        pois = [POI.make(i, 5.0, 5.0, ["x"]) for i in range(10)]
        pois.append(POI.make(10, 1.0, 1.0, ["x"]))
        col = POICollection(pois)
        idx = DesksIndex(col, num_bands=2, num_wedges=2)
        s = DesksSearcher(idx)
        q = DirectionalQuery.make(1.0, 1.0, 0.0, math.pi / 2, ["x"], 5)
        result = s.search(q)
        expect = brute_force_search(col, q)
        assert_same_answers(result, expect)

    def test_single_poi(self):
        col = POICollection([POI.make(0, 3.0, 4.0, ["only"])])
        idx = DesksIndex(col, num_bands=1, num_wedges=1)
        s = DesksSearcher(idx)
        q = DirectionalQuery.make(0.0, 0.0, 0.8, 1.0, ["only"], 1)
        result = s.search(q)
        assert result.poi_ids() == [0]
        assert result.distances()[0] == pytest.approx(5.0)

    def test_more_bands_than_pois(self):
        col = POICollection([POI.make(i, float(i), float(i), ["x"])
                             for i in range(5)])
        idx = DesksIndex(col, num_bands=50, num_wedges=50)
        s = DesksSearcher(idx)
        q = DirectionalQuery.undirected(0, 0, ["x"], 5)
        assert len(s.search(q)) == 5


poi_strategy = st.lists(
    st.tuples(st.floats(0, 50).map(lambda v: round(v, 2)),
              st.floats(0, 50).map(lambda v: round(v, 2)),
              st.sets(st.sampled_from("abcd"), min_size=1, max_size=3)),
    min_size=1, max_size=60)


class TestPropertyVsOracle:
    @settings(max_examples=40, deadline=None)
    @given(pois=poi_strategy,
           qx=st.floats(-10, 60), qy=st.floats(-10, 60),
           alpha=st.floats(0, 2 * math.pi),
           width=st.floats(0.0, 2 * math.pi),
           kws=st.sets(st.sampled_from("abcd"), min_size=1, max_size=2),
           k=st.integers(1, 8),
           mode=st.sampled_from(list(PruningMode)))
    def test_any_dataset_any_query(self, pois, qx, qy, alpha, width, kws,
                                   k, mode):
        col = POICollection([POI.make(i, x, y, ks)
                             for i, (x, y, ks) in enumerate(pois)])
        idx = DesksIndex(col, num_bands=3, num_wedges=3)
        searcher = DesksSearcher(idx)
        q = DirectionalQuery.make(qx, qy, alpha, alpha + width, kws, k)
        assert_same_answers(searcher.search(q, mode),
                            brute_force_search(col, q))

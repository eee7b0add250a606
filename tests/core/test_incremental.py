"""Tests for incremental direction updates (paper Sec. V)."""

import math
import random

import pytest

from repro.core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    IncrementalSearcher,
    brute_force_search,
)
from repro.core.incremental import _wedges, _widening_of
from repro.geometry import DirectionInterval
from repro.storage import SearchStats

from .conftest import make_collection


@pytest.fixture(scope="module")
def setup():
    col = make_collection(500, seed=23)
    searcher = DesksSearcher(DesksIndex(col, num_bands=4, num_wedges=6))
    return col, searcher


def assert_same_distances(got, expect):
    assert [round(d, 9) for d in got.distances()] == \
        [round(d, 9) for d in expect.distances()]


class TestWideningHelpers:
    def test_widening_both_sides(self):
        old = DirectionInterval(1.0, 2.0)
        new = DirectionInterval(0.5, 2.3)
        lo, hi = _widening_of(old, new)
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(0.3)

    def test_widening_one_side(self):
        old = DirectionInterval(1.0, 2.0)
        new = DirectionInterval(1.0, 2.5)
        lo, hi = _widening_of(old, new)
        assert lo == pytest.approx(0.0)
        assert hi == pytest.approx(0.5)

    def test_not_a_widening(self):
        old = DirectionInterval(1.0, 2.0)
        new = DirectionInterval(1.2, 2.0)
        assert _widening_of(old, new) == (None, None)

    def test_widening_to_full(self):
        old = DirectionInterval(1.0, 2.0)
        lo, hi = _widening_of(old, DirectionInterval.full())
        assert lo + hi == pytest.approx(2 * math.pi - 1.0)

    def test_wedges(self):
        old = DirectionInterval(1.0, 2.0)
        wedges = _wedges(old, 0.5, 0.3)
        assert len(wedges) == 2
        assert wedges[0].lower == pytest.approx(0.5)
        assert wedges[0].upper == pytest.approx(1.0)
        assert wedges[1].lower == pytest.approx(2.0)
        assert wedges[1].upper == pytest.approx(2.3)

    def test_no_wedges_when_no_growth(self):
        assert _wedges(DirectionInterval(1.0, 2.0), 0.0, 0.0) == []


class TestIncreaseDirection:
    def test_requires_initial_search(self, setup):
        _, searcher = setup
        inc = IncrementalSearcher(searcher)
        with pytest.raises(RuntimeError):
            inc.increase_direction(DirectionInterval(0, 1))

    def test_rejects_shrinking(self, setup):
        _, searcher = setup
        inc = IncrementalSearcher(searcher)
        inc.initial_search(DirectionalQuery.make(50, 50, 0.5, 1.5,
                                                 ["cafe"], 5))
        with pytest.raises(ValueError):
            inc.increase_direction(DirectionInterval(0.8, 1.2))

    def test_matches_from_scratch(self, setup):
        col, searcher = setup
        rng = random.Random(3)
        inc = IncrementalSearcher(searcher)
        for _ in range(30):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            a = rng.uniform(0, 2 * math.pi)
            w = rng.uniform(0.2, 1.0)
            q = DirectionalQuery.make(x, y, a, a + w, ["food"], 10)
            inc.initial_search(q)
            wider = DirectionInterval(a - rng.uniform(0, 0.8),
                                      a + w + rng.uniform(0, 0.8))
            got = inc.increase_direction(wider)
            expect = brute_force_search(col, q.with_interval(wider))
            assert_same_distances(got, expect)

    def test_repeated_increases(self, setup):
        col, searcher = setup
        inc = IncrementalSearcher(searcher)
        q = DirectionalQuery.make(50, 50, 1.0, 1.2, ["cafe"], 8)
        inc.initial_search(q)
        interval = q.interval
        for _step in range(6):
            interval = interval.widen(0.15, 0.25)
            got = inc.increase_direction(interval)
            expect = brute_force_search(col, q.with_interval(interval))
            assert_same_distances(got, expect)

    def test_increase_to_full_circle(self, setup):
        col, searcher = setup
        inc = IncrementalSearcher(searcher)
        q = DirectionalQuery.make(30, 70, 0.5, 1.5, ["gas"], 5)
        inc.initial_search(q)
        got = inc.increase_direction(DirectionInterval.full())
        expect = brute_force_search(col, q.with_interval(
            DirectionInterval.full()))
        assert_same_distances(got, expect)

    def test_cache_updated(self, setup):
        _, searcher = setup
        inc = IncrementalSearcher(searcher)
        q = DirectionalQuery.make(50, 50, 1.0, 1.5, ["cafe"], 5)
        inc.initial_search(q)
        wider = DirectionInterval(0.8, 1.7)
        inc.increase_direction(wider)
        assert inc.cached.query.interval.lower == pytest.approx(0.8)

    def test_incremental_examines_fewer_pois_on_average(self, setup):
        """The cached d_k bound must cut work versus fresh searches.

        The advantage is statistical (the paper's Fig. 20 averages 5000
        queries); a single query can go either way, so we aggregate.
        """
        _, searcher = setup
        rng = random.Random(77)
        inc = IncrementalSearcher(searcher)
        inc_total = fresh_total = 0
        for _ in range(40):
            x, y = rng.uniform(20, 80), rng.uniform(20, 80)
            a = rng.uniform(0, 2 * math.pi)
            q = DirectionalQuery.make(x, y, a, a + math.pi / 3,
                                      ["food"], 10)
            inc.initial_search(q)
            wider = q.interval.widen(math.pi / 36, math.pi / 36)

            inc_stats = SearchStats()
            inc.increase_direction(wider, stats=inc_stats)
            inc_total += inc_stats.pois_examined

            fresh_stats = SearchStats()
            searcher.search(q.with_interval(wider), stats=fresh_stats)
            fresh_total += fresh_stats.pois_examined
        assert inc_total < fresh_total


    def test_incremental_prunes_where_search_would_walk_postings(self, setup):
        """On a grid fine enough that ``search()`` answers ``food`` from
        its posting list (every holder examined, seed or no seed), the
        incremental searches must still be the region search, where the
        cached ``d_k`` cuts work."""
        col, _ = setup
        searcher = DesksSearcher(DesksIndex(col, num_bands=10,
                                            num_wedges=20))
        vocabulary = col.vocabulary
        holders = vocabulary.doc_frequency(vocabulary.id_of("food"))
        assert holders <= 10 * 20
        rng = random.Random(78)
        inc = IncrementalSearcher(searcher)
        inc_total = fresh_total = 0
        for _ in range(40):
            x, y = rng.uniform(20, 80), rng.uniform(20, 80)
            a = rng.uniform(0, 2 * math.pi)
            q = DirectionalQuery.make(x, y, a, a + math.pi / 3,
                                      ["food"], 10)
            inc.initial_search(q)
            wider = q.interval.widen(math.pi / 36, math.pi / 36)

            inc_stats = SearchStats()
            got = inc.increase_direction(wider, stats=inc_stats)
            inc_total += inc_stats.pois_examined

            fresh_stats = SearchStats()
            fresh = searcher.search(q.with_interval(wider),
                                    stats=fresh_stats)
            assert fresh_stats.pois_examined == holders
            assert fresh_stats.regions_examined == 0
            fresh_total += fresh_stats.pois_examined
            assert_same_distances(got, fresh)
        assert inc_total < fresh_total


class TestMoveDirection:
    def test_matches_from_scratch_small_moves(self, setup):
        col, searcher = setup
        rng = random.Random(11)
        inc = IncrementalSearcher(searcher)
        for _ in range(30):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            a = rng.uniform(0, 2 * math.pi)
            w = rng.uniform(0.4, 1.2)
            q = DirectionalQuery.make(x, y, a, a + w, ["food"], 10)
            inc.initial_search(q)
            delta = rng.uniform(-w * 0.9, w * 0.9)
            got = inc.move_direction(delta)
            expect = brute_force_search(
                col, q.with_interval(q.interval.rotate(delta)))
            assert_same_distances(got, expect)

    def test_large_move_falls_back_to_scratch(self, setup):
        col, searcher = setup
        inc = IncrementalSearcher(searcher)
        q = DirectionalQuery.make(50, 50, 1.0, 1.5, ["cafe"], 5)
        inc.initial_search(q)
        got = inc.move_direction(2.0)  # way past the old interval
        expect = brute_force_search(
            col, q.with_interval(q.interval.rotate(2.0)))
        assert_same_distances(got, expect)

    def test_negative_rotation(self, setup):
        col, searcher = setup
        inc = IncrementalSearcher(searcher)
        q = DirectionalQuery.make(40, 40, 2.0, 3.0, ["food"], 8)
        inc.initial_search(q)
        got = inc.move_direction(-0.3)
        expect = brute_force_search(
            col, q.with_interval(q.interval.rotate(-0.3)))
        assert_same_distances(got, expect)

    def test_repeated_moves_track_compass(self, setup):
        col, searcher = setup
        inc = IncrementalSearcher(searcher)
        q = DirectionalQuery.make(55, 45, 0.0, math.pi / 3, ["cafe"], 5)
        inc.initial_search(q)
        interval = q.interval
        for _ in range(12):
            interval = interval.rotate(math.pi / 18)
            got = inc.move_direction(math.pi / 18)
            expect = brute_force_search(col, q.with_interval(interval))
            assert_same_distances(got, expect)

    def test_zero_move(self, setup):
        col, searcher = setup
        inc = IncrementalSearcher(searcher)
        q = DirectionalQuery.make(50, 50, 1.0, 2.0, ["food"], 5)
        first = inc.initial_search(q)
        again = inc.move_direction(0.0)
        assert_same_distances(again, first)

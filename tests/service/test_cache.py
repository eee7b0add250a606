"""ResultCache: canonical keying, LRU behaviour, generation staleness."""

import math

import pytest

from repro.core import DirectionalQuery, QueryResult, ResultEntry
from repro.service import ResultCache


def q(x=0.0, y=0.0, lower=0.5, width=1.0, keywords=("cafe",), k=5):
    return DirectionalQuery.make(x, y, lower, lower + width,
                                 list(keywords), k)


def result(*poi_ids):
    return QueryResult([ResultEntry(pid, float(i))
                        for i, pid in enumerate(poi_ids)])


class TestBasics:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get(q()) is None
        cache.put(q(), result(1, 2))
        got = cache.get(q())
        assert got is not None and got.poi_ids() == [1, 2]
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_canonically_equal_queries_share_entry(self):
        cache = ResultCache(capacity=4)
        cache.put(q(keywords=("cafe", "atm")), result(1))
        two_pi = 2 * math.pi
        other = DirectionalQuery.make(0.0, 0.0, 0.5 + two_pi,
                                      1.5 + two_pi, ["atm", "cafe"], 5)
        assert cache.get(other) is not None

    def test_distinct_queries_distinct_entries(self):
        cache = ResultCache(capacity=4)
        cache.put(q(), result(1))
        assert cache.get(q(k=6)) is None
        assert cache.get(q(x=1.0)) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestLRU:
    def test_eviction_order_is_lru(self):
        cache = ResultCache(capacity=2)
        a, b, c = q(x=1), q(x=2), q(x=3)
        cache.put(a, result(1))
        cache.put(b, result(2))
        cache.get(a)           # a is now most recent
        cache.put(c, result(3))  # evicts b
        assert cache.get(a) is not None
        assert cache.get(b) is None
        assert cache.get(c) is not None
        assert cache.stats.evictions == 1

    def test_reinsert_same_key_does_not_evict(self):
        cache = ResultCache(capacity=2)
        cache.put(q(x=1), result(1))
        cache.put(q(x=2), result(2))
        cache.put(q(x=1), result(9))  # overwrite, not a growth
        assert len(cache) == 2
        assert cache.stats.evictions == 0


class TestGenerations:
    def test_stale_generation_is_a_miss(self):
        cache = ResultCache(capacity=4)
        cache.put(q(), result(1), generation=3)
        assert cache.get(q(), generation=4) is None
        assert cache.stats.invalidations == 1
        # ...and the stale entry is gone for good.
        assert len(cache) == 0

    def test_matching_generation_served(self):
        cache = ResultCache(capacity=4)
        cache.put(q(), result(1), generation=3)
        assert cache.get(q(), generation=3) is not None

    def test_put_refuses_to_shadow_newer_entry(self):
        cache = ResultCache(capacity=4)
        cache.put(q(), result(2), generation=5)
        assert not cache.put(q(), result(1), generation=4)
        assert cache.get(q(), generation=5).poi_ids() == [2]

    def test_invalidate_older_than(self):
        cache = ResultCache(capacity=8)
        cache.put(q(x=1), result(1), generation=1)
        cache.put(q(x=2), result(2), generation=2)
        cache.put(q(x=3), result(3), generation=3)
        dropped = cache.invalidate_older_than(3)
        assert dropped == 2
        assert len(cache) == 1
        assert cache.get(q(x=3), generation=3) is not None

    def test_clear(self):
        cache = ResultCache(capacity=4)
        cache.put(q(), result(1))
        cache.clear()
        assert len(cache) == 0


class TestPartialResults:
    def test_partial_results_never_cached(self):
        cache = ResultCache(capacity=4)
        partial = QueryResult([ResultEntry(1, 0.0)], partial=True)
        assert not cache.put(q(), partial)
        assert cache.get(q()) is None

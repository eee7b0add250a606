"""Tests for the query and result types."""

import math

import pytest

from repro.core import DirectionalQuery, MatchMode, QueryResult, ResultEntry
from repro.geometry import DirectionInterval, Point


class TestDirectionalQuery:
    def test_make(self):
        q = DirectionalQuery.make(1, 2, 0.0, 1.0, ["cafe"], k=5)
        assert q.location == Point(1, 2)
        assert q.interval.lower == 0.0
        assert q.keywords == frozenset({"cafe"})
        assert q.k == 5

    def test_k_validation(self):
        with pytest.raises(ValueError):
            DirectionalQuery.make(0, 0, 0, 1, ["a"], k=0)

    def test_keywords_required(self):
        with pytest.raises(ValueError):
            DirectionalQuery.make(0, 0, 0, 1, [], k=1)

    def test_undirected(self):
        q = DirectionalQuery.undirected(0, 0, ["a"])
        assert q.interval.is_full

    def test_with_interval(self):
        q = DirectionalQuery.make(0, 0, 0, 1, ["a"])
        q2 = q.with_interval(DirectionInterval(1, 2))
        assert q2.interval.lower == 1
        assert q2.keywords == q.keywords
        assert q.interval.lower == 0  # original untouched

    def test_basic_subqueries_single_quadrant(self):
        q = DirectionalQuery.make(0, 0, 0.1, 1.0, ["a"])
        assert len(q.basic_subqueries()) == 1

    def test_basic_subqueries_complex(self):
        q = DirectionalQuery.make(0, 0, 0.1, 0.1 + 1.9 * math.pi, ["a"])
        assert len(q.basic_subqueries()) == 4

    def test_accepts_direction(self):
        q = DirectionalQuery.make(0, 0, 0.0, math.pi / 2, ["a"])
        assert q.accepts_direction(0.5)
        assert not q.accepts_direction(3.0)

    def test_matches_checks_keywords_and_direction(self):
        q = DirectionalQuery.make(0, 0, 0.0, math.pi / 2, ["a"])
        assert q.matches(Point(1, 1), frozenset({"a", "b"}))
        assert not q.matches(Point(1, 1), frozenset({"b"}))
        assert not q.matches(Point(-1, 1), frozenset({"a"}))

    def test_matches_query_point_itself(self):
        q = DirectionalQuery.make(2, 2, 0.0, 1.0, ["a"])
        assert q.matches(Point(2, 2), frozenset({"a"}))


class TestQueryResult:
    def test_empty(self):
        r = QueryResult()
        assert len(r) == 0
        assert r.kth_distance == math.inf
        assert r.poi_ids() == []

    def test_accessors(self):
        r = QueryResult([ResultEntry(3, 1.0), ResultEntry(7, 2.0)])
        assert r.poi_ids() == [3, 7]
        assert r.distances() == [1.0, 2.0]
        assert r.kth_distance == 2.0
        assert [e.poi_id for e in r] == [3, 7]

    def test_result_entry_ordering(self):
        assert ResultEntry(5, 1.0) < ResultEntry(2, 2.0)
        assert ResultEntry(1, 1.0) < ResultEntry(2, 1.0)


class TestCanonicalKey:
    def test_keyword_order_irrelevant(self):
        a = DirectionalQuery.make(1, 2, 0.5, 1.5, ["cafe", "atm"], k=5)
        b = DirectionalQuery.make(1, 2, 0.5, 1.5, ["atm", "cafe"], k=5)
        assert a.canonical_key() == b.canonical_key()

    def test_hashable_and_stable(self):
        q = DirectionalQuery.make(1, 2, 0.5, 1.5, ["a"], k=5)
        assert hash(q.canonical_key()) == hash(q.canonical_key())
        assert len({q.canonical_key(), q.canonical_key()}) == 1

    def test_interval_normalized_into_two_pi(self):
        two_pi = 2 * math.pi
        a = DirectionalQuery.make(0, 0, 0.5, 1.5, ["a"])
        b = DirectionalQuery.make(0, 0, 0.5 + two_pi, 1.5 + two_pi, ["a"])
        assert a.canonical_key() == b.canonical_key()

    def test_full_circle_representations_collapse(self):
        two_pi = 2 * math.pi
        a = DirectionalQuery.make(0, 0, 0.0, two_pi, ["a"])
        b = DirectionalQuery.make(0, 0, 1.25, 1.25 + two_pi, ["a"])
        assert a.canonical_key() == b.canonical_key()

    def test_float_noise_collapses(self):
        a = DirectionalQuery.make(0, 0, 0.5, 1.5, ["a"])
        b = DirectionalQuery.make(0, 0, 0.5 + 1e-13, 1.5 - 1e-13, ["a"])
        assert a.canonical_key() == b.canonical_key()

    def test_distinguishes_k_and_mode_and_location(self):
        base = DirectionalQuery.make(0, 0, 0.5, 1.5, ["a"], k=5)
        assert base.canonical_key() != DirectionalQuery.make(
            0, 0, 0.5, 1.5, ["a"], k=6).canonical_key()
        assert base.canonical_key() != DirectionalQuery.make(
            0, 1, 0.5, 1.5, ["a"], k=5).canonical_key()
        assert base.canonical_key() != DirectionalQuery.make(
            0, 0, 0.5, 1.5, ["a"], k=5,
            match_mode=MatchMode.ANY).canonical_key()

    def test_negative_quantum_rejected(self):
        # The key takes no quantum at all: it always holds the exact
        # location, so nearby queries never share a cache entry.
        q = DirectionalQuery.make(0, 0, 0.5, 1.5, ["a"])
        for quantum in (-1.0, 0.5):
            with pytest.raises(TypeError):
                q.canonical_key(quantum)
        nearby = DirectionalQuery.make(0.04, -0.02, 0.5, 1.5, ["a"])
        assert q.canonical_key() != nearby.canonical_key()

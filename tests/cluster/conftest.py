"""Shared fixtures for the sharded scatter-gather layer tests."""

import random

import pytest

from repro.core import DesksIndex, DesksSearcher
from repro.datasets import POI, POICollection

KEYWORD_POOL = ["cafe", "food", "gas", "atm", "pizza", "bank", "hotel",
                "park"]


def make_collection(n=500, seed=23, extent=100.0):
    rng = random.Random(seed)
    return POICollection([
        POI.make(i, rng.uniform(0, extent), rng.uniform(0, extent),
                 rng.sample(KEYWORD_POOL, rng.randint(1, 3)))
        for i in range(n)
    ])


def random_queries(rng, count, extent=100.0, pool=KEYWORD_POOL):
    """Mixed random workload: locations inside and outside the data."""
    import math

    from repro.core import DirectionalQuery

    queries = []
    for _ in range(count):
        margin = 0.3 * extent
        x = rng.uniform(-margin, extent + margin)
        y = rng.uniform(-margin, extent + margin)
        alpha = rng.uniform(0.0, 2 * math.pi)
        width = rng.uniform(0.05, 2 * math.pi)
        keywords = rng.sample(pool, rng.randint(1, 2))
        k = rng.choice([1, 3, 10])
        queries.append(DirectionalQuery.make(x, y, alpha, alpha + width,
                                             keywords, k))
    return queries


def with_rare_keyword(collection):
    """``collection`` plus six holders of ``kiosk`` — few enough that a
    searcher over it (or over a shard of it) walks the posting list
    instead of the regions on any grid of six sub-regions or more."""
    rare = [POI.make(len(collection) + i, 9.0 + 16.0 * i, 88.0 - 15.0 * i,
                     ["kiosk", "cafe"] if i % 2 else ["kiosk"])
            for i in range(6)]
    return POICollection(list(collection) + rare)


def rare_keyword_queries():
    """Queries on ``kiosk`` from inside, on a holder, and outside."""
    import math

    from repro.core import DirectionalQuery

    return [DirectionalQuery.make(x, y, alpha, alpha + width, keywords, k)
            for x, y in ((50.0, 50.0), (9.0, 88.0), (-10.0, 120.0))
            for alpha, width in ((0.0, 2 * math.pi), (5.0, 2.0))
            for keywords in (["kiosk"], ["kiosk", "cafe"])
            for k in (1, 3, 10)]


def entries_of(result):
    """Comparable (poi_id, distance) pairs of a QueryResult."""
    return [(e.poi_id, e.distance) for e in result.entries]


@pytest.fixture(scope="module")
def collection():
    return make_collection()


@pytest.fixture(scope="module")
def reference(collection):
    """Unsharded searcher — the equivalence oracle."""
    return DesksSearcher(DesksIndex(collection, num_bands=4, num_wedges=5))

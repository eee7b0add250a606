"""Shared fixtures for the tracing/EXPLAIN tests."""

import math
import random

import pytest

from repro.core import DirectionalQuery, MatchMode
from repro.datasets import POI, POICollection

KEYWORD_POOL = ["cafe", "food", "gas", "atm", "pizza", "bank", "hotel",
                "park"]
EXTENT = 100.0


def make_collection(n=400, seed=42):
    rng = random.Random(seed)
    pois = []
    for i in range(n):
        kws = rng.sample(KEYWORD_POOL, rng.randint(1, 3))
        pois.append(POI.make(i, rng.uniform(0, EXTENT),
                             rng.uniform(0, EXTENT), kws))
    return POICollection(pois)


def make_query(alpha=0.3, width=math.pi / 3, x=40.0, y=55.0,
               keywords=("cafe",), k=5, match_mode=MatchMode.ALL):
    return DirectionalQuery.make(x, y, alpha, alpha + width,
                                 list(keywords), k, match_mode)


def region_query(k=5):
    """Every keyword of the pool under ANY in one quadrant: the walk
    would verify every POI, so the cost model picks the region search."""
    return make_query(keywords=KEYWORD_POOL, k=k, match_mode=MatchMode.ANY)


def make_queries(count, seed=0, k=5):
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        lower = rng.uniform(0, 2 * math.pi)
        queries.append(DirectionalQuery.make(
            rng.uniform(0, EXTENT), rng.uniform(0, EXTENT),
            lower, lower + rng.uniform(0.3, 5.0),
            rng.sample(KEYWORD_POOL, rng.randint(1, 2)), k))
    return queries


@pytest.fixture(scope="module")
def collection():
    return make_collection()

"""Differential fuzzing: every engine, every config, one oracle.

A seeded generator produces random datasets (clustered, collinear,
duplicated locations), random index configurations (bands/wedges, memory /
sliced-disk / compressed-disk stores), and random queries (ALL and ANY
modes, in and out of the MBR, degenerate and wrapping intervals).  Every
engine must return the same answer distances as the linear-scan oracle.

This is the repository's last line of defence: anything the targeted unit
tests missed tends to surface here first.
"""

import math
import random

import pytest

from repro.baselines import FilterThenVerify, IRTree, MIR2Tree
from repro.core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    MatchMode,
    MutableDesksIndex,
    PruningMode,
    brute_force_search,
)
from repro.datasets import POI, POICollection
from repro.geometry import DirectionInterval, Point

KEYWORDS = ["cafe", "gas", "atm", "pizza", "park", "inn"]


def random_dataset(rng):
    style = rng.choice(["uniform", "clustered", "collinear", "dupes"])
    n = rng.randint(5, 120)
    pois = []
    for i in range(n):
        if style == "uniform":
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        elif style == "clustered":
            cx, cy = rng.choice([(20, 20), (80, 30), (50, 90)])
            x, y = rng.gauss(cx, 5), rng.gauss(cy, 5)
        elif style == "collinear":
            x, y = rng.uniform(0, 100), 37.0
        else:  # duplicate locations
            x, y = rng.choice([(10.0, 10.0), (60.0, 60.0)])
        kws = rng.sample(KEYWORDS, rng.randint(1, 3))
        pois.append(POI.make(i, x, y, kws))
    return POICollection(pois)


def random_query(rng):
    x = rng.uniform(-30, 130)
    y = rng.uniform(-30, 130)
    alpha = rng.uniform(0, 2 * math.pi)
    width = rng.choice([0.0, 0.1, 1.0, math.pi, 1.9 * math.pi, 2 * math.pi])
    kws = rng.sample(KEYWORDS + ["missingkw"], rng.randint(1, 3))
    k = rng.choice([1, 3, 10, 50])
    mode = rng.choice([MatchMode.ALL, MatchMode.ANY])
    return DirectionalQuery(Point(x, y), DirectionInterval(alpha,
                                                           alpha + width),
                            frozenset(kws), k, mode)


def build_engines(rng, collection):
    bands = rng.randint(1, 8)
    wedges = rng.randint(1, 8)
    engines = {}
    desks_kind = rng.choice(["memory", "disk", "compressed"])
    if desks_kind == "memory":
        index = DesksIndex(collection, bands, wedges)
    else:
        index = DesksIndex(collection, bands, wedges, disk_based=True,
                           disk_format=("sliced" if desks_kind == "disk"
                                        else "compressed"))
    searcher = DesksSearcher(index)
    pruning = rng.choice(list(PruningMode))
    engines[f"desks-{desks_kind}-{pruning.name}"] = (
        lambda q, s=searcher, m=pruning: s.search(q, m))
    baseline_cls = rng.choice([FilterThenVerify, MIR2Tree, IRTree])
    baseline = baseline_cls(collection, fanout=rng.choice([4, 8, 16]))
    engines[baseline.name] = lambda q, b=baseline: b.search(q)
    mutable = MutableDesksIndex(collection, bands, wedges,
                                rebuild_threshold=1.0)
    engines["mutable"] = lambda q, m=mutable: m.search(q)
    return engines


@pytest.mark.parametrize("seed", range(12))
def test_differential_fuzz(seed):
    rng = random.Random(1000 + seed)
    collection = random_dataset(rng)
    engines = build_engines(rng, collection)
    for _ in range(15):
        query = random_query(rng)
        expect = [round(d, 9)
                  for d in brute_force_search(collection, query).distances()]
        for name, engine in engines.items():
            got = [round(d, 9) for d in engine(query).distances()]
            assert got == expect, (
                f"{name} diverged on seed={seed} query={query}")

"""Opt-in larger-scale run: closer to the paper's data sizes.

The default benchmarks run at laptop-Python scale (~5-8k POIs).  Setting
``DESKS_LARGE=1`` runs this module's single experiment at 10x that scale
(82.5k CN-like POIs), where the asymptotic effects the paper measures —
wider DESKS margins, stronger baseline blow-up — are more visible.

    DESKS_LARGE=1 pytest benchmarks/test_scale_large.py -s --benchmark-disable
"""

import math
import os

import pytest

from repro.bench import generate_queries
from repro.baselines import MIR2Tree
from repro.core import DesksIndex, DesksSearcher, PruningMode
from repro.datasets import china_like, generate

from series import (
    baseline_search_fn,
    desks_search_fn,
    format_series_table,
    run_workload,
    write_result,
)

pytestmark = pytest.mark.skipif(
    os.environ.get("DESKS_LARGE") != "1",
    reason="set DESKS_LARGE=1 to run the large-scale benchmark")

WIDTH_STEPS = (1, 6, 12)  # * pi/6
QUERIES = 20


def test_large_scale_comparison():
    collection = generate(china_like(scale=200.0))  # ~82.5k POIs
    bands = max(2, round(len(collection) / 2000))
    wedges = max(2, round(len(collection) / bands / 20))
    searcher = DesksSearcher(DesksIndex(collection, num_bands=bands,
                                        num_wedges=wedges))
    mir2 = MIR2Tree(collection, fanout=50)
    methods = {
        "Desks": desks_search_fn(searcher, PruningMode.RD),
        "MIR2-tree": baseline_search_fn(mir2),
    }
    time_cols = {name: [] for name in methods}
    poi_cols = {name: [] for name in methods}
    for step in WIDTH_STEPS:
        queries = generate_queries(collection, QUERIES, 2,
                                   step * math.pi / 6, k=10, seed=41)
        for name, fn in methods.items():
            run = run_workload(name, fn, queries)
            time_cols[name].append(run.avg_ms)
            poi_cols[name].append(run.avg_pois_examined)
    labels = [f"{s}pi/6" for s in WIDTH_STEPS]
    table = format_series_table(
        f"Large scale ({len(collection)} POIs): DESKS vs MIR2-tree",
        "beta-alpha", labels, time_cols)
    pois = format_series_table(
        f"Large scale ({len(collection)} POIs) [POIs examined]",
        "beta-alpha", labels, poi_cols, unit="POIs")
    print()
    print(table)
    print(pois)
    write_result("scale_large", table + "\n\n" + pois)

    # At 10x scale the narrow-width margins widen towards the paper's.
    assert poi_cols["Desks"][0] < 0.2 * poi_cols["MIR2-tree"][0]
    assert time_cols["Desks"][0] < time_cols["MIR2-tree"][0]

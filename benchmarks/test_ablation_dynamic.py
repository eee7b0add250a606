"""Ablation (beyond the paper) — dynamic updates via delta buffer.

The paper leaves data update as future work; our `MutableDesksIndex` uses
the standard main-plus-delta design.  Two questions this bench answers:

* how does query cost grow with the pending-delta fraction (the delta
  walk, which visits the pending POIs posted under the query's rarest
  keyword, is the price of O(1) inserts)?
* what does a rebuild cost relative to the steady-state insert?  A
  rebuild lays no index out: the first read that misses after it does,
  so that read is timed as its own row.
"""

import gc
import math
import time

from repro.bench import generate_queries
from repro.core import MutableDesksIndex
from repro.storage import SearchStats

from series import format_series_table, write_result

QUERIES = 30
WIDTH = math.pi / 3


def test_ablation_query_cost_vs_delta_fraction(datasets):
    collection = datasets["VA"]
    base = collection.subset(len(collection) // 2)
    queries = generate_queries(base, QUERIES, 1, WIDTH, k=10, seed=31)
    fractions = (0.0, 0.05, 0.15, 0.30)
    pois_col, times_col = [], []
    for fraction in fractions:
        idx = MutableDesksIndex(base, rebuild_threshold=0.5)
        extra = int(len(base) * fraction)
        donor = list(collection)[len(base):len(base) + extra]
        for poi in donor:
            idx.insert(poi.location.x, poi.location.y, poi.keywords)
        assert idx.rebuild_count == 0  # stay inside the delta regime
        stats = SearchStats()
        started = time.perf_counter()
        for query in queries:
            idx.search(query, stats=stats)
        times_col.append(1000.0 * (time.perf_counter() - started) / QUERIES)
        pois_col.append(stats.pois_examined / QUERIES)
    table = format_series_table(
        "Ablation (VA): query cost vs pending-delta fraction",
        "delta fraction", [f"{f:.0%}" for f in fractions],
        {"avg ms": times_col, "POIs examined": pois_col},
        unit="ms / POIs")
    print()
    print(table)
    write_result("ablation_dynamic_delta", table)

    # The delta walk adds work that grows with the delta, by at most
    # roughly the delta size itself.
    assert pois_col[-1] > pois_col[0]
    expected_extra = int(len(base) * fractions[-1])
    assert pois_col[-1] - pois_col[0] <= expected_extra * 1.2


def test_ablation_insert_throughput_and_rebuild(datasets):
    collection = datasets["VA"]
    base = collection.subset(2000)
    idx = MutableDesksIndex(base, rebuild_threshold=0.25)
    donor = list(collection)[2000:2600]

    # The session's datasets make a full collection take ~50 ms; whether
    # one lands inside 600 inserts depends on allocation counts, not on
    # the inserts, so start the timed loop with none pending.
    gc.collect()
    started = time.perf_counter()
    for poi in donor:
        idx.insert(poi.location.x, poi.location.y, poi.keywords)
    elapsed = time.perf_counter() - started
    per_insert_us = 1e6 * elapsed / len(donor)
    # The first read after the loop misses the (empty) answer cache of
    # the rebuilt snapshot: it builds that snapshot's index, then searches.
    query = generate_queries(base, 1, 1, WIDTH, k=10, seed=32)[0]
    started = time.perf_counter()
    idx.search(query)
    first_read_ms = 1e3 * (time.perf_counter() - started)
    table = format_series_table(
        "Ablation (VA): 600 inserts into a 2000-POI index",
        "metric", ["us/insert (amortised)", "rebuilds",
                   "first read (ms)"],
        {"value": [per_insert_us, float(idx.rebuild_count),
                   first_read_ms]},
        unit="mixed")
    print()
    print(table)
    write_result("ablation_dynamic_inserts", table)

    assert idx.rebuild_count >= 1  # 600 > 25% of 2000
    assert len(idx) == 2600
    # Amortised insert cost stays far below a from-scratch build per op.
    assert per_insert_us < 1e6  # < 1 s per insert even with rebuilds

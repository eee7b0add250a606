"""Figure 19 — DESKS vs MIR2-tree vs LkT, varying the number of keywords.

Paper setup: five query sets with 1-5 keywords (1000 queries each), k=10,
direction [0, pi/3]; log-scale time.  Expected shape: DESKS is fast and
stable (10-20 ms in the paper) across keyword counts; baselines remain
orders of magnitude slower throughout.
"""

import math

from repro.bench import generate_queries
from repro.core import PruningMode

from series import (
    baseline_search_fn,
    desks_search_fn,
    format_series_table,
    run_workload,
    write_result,
)

KEYWORD_COUNTS = (1, 2, 3, 4, 5)
QUERIES_PER_POINT = 30
WIDTH = math.pi / 3


def _sweep(collection, searcher, baselines):
    methods = {"Desks": desks_search_fn(searcher, PruningMode.RD)}
    for name, index in baselines.items():
        methods[name] = baseline_search_fn(index)
    time_cols = {name: [] for name in methods}
    poi_cols = {name: [] for name in methods}
    for num_keywords in KEYWORD_COUNTS:
        queries = generate_queries(
            collection, QUERIES_PER_POINT, num_keywords=num_keywords,
            direction_width=WIDTH, k=10, seed=19, alpha=0.0)
        for name, fn in methods.items():
            run = run_workload(name, fn, queries)
            time_cols[name].append(run.avg_ms)
            poi_cols[name].append(run.avg_pois_examined)
    return time_cols, poi_cols


def test_fig19_compare_vary_keywords(datasets, desks_searchers,
                                     baseline_indexes):
    outputs = []
    for name in ("VA", "CA", "CN"):
        time_cols, poi_cols = _sweep(
            datasets[name], desks_searchers[name], baseline_indexes[name])
        table = format_series_table(
            f"Fig 19 ({name}): method comparison varying keyword count",
            "#keywords", list(KEYWORD_COUNTS), time_cols)
        pois = format_series_table(
            f"Fig 19 ({name}) [POIs examined per query]",
            "#keywords", list(KEYWORD_COUNTS), poi_cols, unit="POIs")
        print()
        print(table)
        print(pois)
        outputs.extend([table, pois])

        # DESKS beats the tree baselines at every keyword count.
        for i in range(len(KEYWORD_COUNTS)):
            for rival in ("MIR2-tree", "LkT", "filter-verify"):
                assert poi_cols["Desks"][i] <= poi_cols[rival][i]
        # DESKS stays stable across keyword counts (paper: ~10-20 ms band).
        desks_band = max(time_cols["Desks"]) / max(min(time_cols["Desks"]),
                                                   1e-9)
        assert desks_band < 25.0
    write_result("fig19_compare_vary_keywords", "\n\n".join(outputs))


def test_benchmark_desks_five_keywords(benchmark, datasets,
                                       desks_searchers):
    queries = generate_queries(datasets["VA"], 15, 5, WIDTH, k=10,
                               seed=20, alpha=0.0)
    searcher = desks_searchers["VA"]

    def run():
        for q in queries:
            searcher.search_regions(q, PruningMode.RD)

    benchmark(run)

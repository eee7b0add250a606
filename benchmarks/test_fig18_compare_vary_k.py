"""Figure 18 — DESKS vs MIR2-tree vs LkT, varying k.

Paper setup: 5000 queries, alpha=0, beta=pi/3, k in {1, 5, 10, 20, 50,
100}; log-scale time.  Expected shape: DESKS outperforms both baselines at
every k (the paper reports 2-3 orders of magnitude on wall time; our
Python/baseline gap is smaller but the ordering and growth trend hold),
and the baselines' cost grows faster with k because each extra answer
costs them many out-of-direction candidates.
"""

import math

from repro.bench import generate_queries
from repro.core import PruningMode

from series import (
    ascii_chart,
    baseline_search_fn,
    desks_search_fn,
    format_series_table,
    run_workload,
    write_result,
)

K_VALUES = (1, 5, 10, 20, 50, 100)
QUERIES_PER_POINT = 30
WIDTH = math.pi / 3


def _sweep(collection, searcher, baselines):
    methods = {"Desks": desks_search_fn(searcher, PruningMode.RD)}
    for name, index in baselines.items():
        methods[name] = baseline_search_fn(index)
    time_cols = {name: [] for name in methods}
    poi_cols = {name: [] for name in methods}
    for k in K_VALUES:
        queries = generate_queries(collection, QUERIES_PER_POINT,
                                   num_keywords=2, direction_width=WIDTH,
                                   k=k, seed=18, alpha=0.0)
        for name, fn in methods.items():
            run = run_workload(name, fn, queries)
            time_cols[name].append(run.avg_ms)
            poi_cols[name].append(run.avg_pois_examined)
    return time_cols, poi_cols


def test_fig18_compare_vary_k(datasets, desks_searchers, baseline_indexes):
    outputs = []
    for name in ("VA", "CA", "CN"):
        time_cols, poi_cols = _sweep(
            datasets[name], desks_searchers[name], baseline_indexes[name])
        table = format_series_table(
            f"Fig 18 ({name}): method comparison varying k",
            "k", list(K_VALUES), time_cols)
        pois = format_series_table(
            f"Fig 18 ({name}) [POIs examined per query]",
            "k", list(K_VALUES), poi_cols, unit="POIs")
        chart = ascii_chart(
            f"Fig 18 ({name}) shape (avg ms, log scale):",
            list(K_VALUES), time_cols, log_scale=True)
        print()
        print(table)
        print(pois)
        print(chart)
        outputs.extend([table, pois, chart])

        # DESKS examines far fewer POIs than every rival at every k.
        for i in range(len(K_VALUES)):
            for rival in ("MIR2-tree", "LkT", "filter-verify"):
                assert poi_cols["Desks"][i] < poi_cols[rival][i]
        # And wins on wall time summed over the sweep.
        for rival in ("MIR2-tree", "LkT", "filter-verify"):
            assert sum(time_cols["Desks"]) < sum(time_cols[rival])
    write_result("fig18_compare_vary_k", "\n\n".join(outputs))


def test_benchmark_desks_k100(benchmark, datasets, desks_searchers):
    queries = generate_queries(datasets["VA"], 15, 2, WIDTH, k=100,
                               seed=19, alpha=0.0)
    searcher = desks_searchers["VA"]

    def run():
        for q in queries:
            searcher.search_regions(q, PruningMode.RD)

    benchmark(run)

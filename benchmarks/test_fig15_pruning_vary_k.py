"""Figure 15 — pruning techniques varying k.

Paper setup: 5000 queries, alpha=0, beta=pi/3, k in {1, 5, 10, 20, 50,
100}; compares DESKS+R (region pruning only), DESKS+D (direction pruning
only) and DESKS+RD.  Expected shape: +D and +RD significantly outperform
+R at every k; +RD is at least as good as +D, with the largest margin on
the biggest dataset (CN) where there are many bands to skip.
"""

import math

from repro.bench import generate_queries
from repro.core import PruningMode

from series import (
    desks_search_fn,
    format_series_table,
    run_workload,
    write_result,
)

K_VALUES = (1, 5, 10, 20, 50, 100)
QUERIES_PER_POINT = 40
WIDTH = math.pi / 3

MODES = [("Desks+R", PruningMode.R), ("Desks+D", PruningMode.D),
         ("Desks+RD", PruningMode.RD)]


def _sweep(collection, searcher, dataset_name):
    time_cols = {name: [] for name, _ in MODES}
    poi_cols = {name: [] for name, _ in MODES}
    for k in K_VALUES:
        queries = generate_queries(collection, QUERIES_PER_POINT,
                                   num_keywords=2, direction_width=WIDTH,
                                   k=k, seed=15, alpha=0.0)
        for name, mode in MODES:
            run = run_workload(name, desks_search_fn(searcher, mode),
                               queries)
            time_cols[name].append(run.avg_ms)
            poi_cols[name].append(run.avg_pois_examined)
    return time_cols, poi_cols


def test_fig15_pruning_vary_k(datasets, desks_searchers):
    outputs = []
    for name in ("VA", "CA", "CN"):
        time_cols, poi_cols = _sweep(datasets[name],
                                     desks_searchers[name], name)
        table = format_series_table(
            f"Fig 15 ({name}): pruning techniques varying k",
            "k", list(K_VALUES), time_cols)
        pois = format_series_table(
            f"Fig 15 ({name}) [POIs examined per query]",
            "k", list(K_VALUES), poi_cols, unit="POIs")
        print()
        print(table)
        print(pois)
        outputs.extend([table, pois])

        # Shape: +RD examines no more POIs than either single technique,
        # summed over the k sweep (the paper's consistent ordering).
        total = {n: sum(vals) for n, vals in poi_cols.items()}
        assert total["Desks+RD"] <= total["Desks+R"]
        assert total["Desks+RD"] <= total["Desks+D"] * 1.05
        # Direction pruning is the bigger lever (paper: +D >> +R).
        assert total["Desks+D"] < total["Desks+R"]
    write_result("fig15_pruning_vary_k", "\n\n".join(outputs))


def test_benchmark_desks_rd_k10(benchmark, datasets, desks_searchers):
    queries = generate_queries(datasets["VA"], 20, 2, WIDTH, k=10,
                               seed=16, alpha=0.0)
    searcher = desks_searchers["VA"]

    def run():
        for q in queries:
            searcher.search_regions(q, PruningMode.RD)

    benchmark(run)

"""Figure 14 — search performance varying N (bands) and M (sub-regions).

Paper setup: 5000 queries, k=10, direction [0, pi/3]; elapsed time plotted
for a grid of (N, M).  Expected shape: performance is flat once M is large
enough — the structure is robust to parameter choice — with a mild optimum
around moderate N and M.
"""

import math

from repro.bench import (
    desks_search_fn,
    format_series_table,
    generate_queries,
    run_workload,
    write_result,
)
from repro.core import DesksIndex, DesksSearcher, PruningMode

#: Bench-scale grids (the paper sweeps N in 50..250 / M in 50..250 on
#: CA/VA and up to 1000 on CN; scaled ~20x down with the datasets).
N_VALUES = (3, 6, 12, 24, 48)
M_VALUES = (3, 6, 12, 24)

QUERIES_PER_POINT = 40
WIDTH = math.pi / 3


def _sweep(collection, dataset_name):
    queries = generate_queries(collection, QUERIES_PER_POINT,
                               num_keywords=2, direction_width=WIDTH,
                               k=10, seed=14, alpha=0.0)
    columns = {f"M={m}": [] for m in M_VALUES}
    poi_columns = {f"M={m}": [] for m in M_VALUES}
    for n in N_VALUES:
        for m in M_VALUES:
            index = DesksIndex(collection, num_bands=n, num_wedges=m)
            searcher = DesksSearcher(index)
            run = run_workload(
                f"N={n},M={m}",
                desks_search_fn(searcher, PruningMode.RD), queries)
            columns[f"M={m}"].append(run.avg_ms)
            poi_columns[f"M={m}"].append(run.avg_pois_examined)
    return format_series_table(
        f"Fig 14 ({dataset_name}): DESKS query time varying N and M",
        "N", list(N_VALUES), columns), poi_columns


def test_fig14_vary_mn(datasets):
    outputs = []
    for name in ("VA", "CA", "CN"):
        table, columns = _sweep(datasets[name], name)
        print()
        print(table)
        outputs.append(table)

        # Shape check (deterministic, on POIs examined rather than noisy
        # wall time): across the whole grid the examined work stays in a
        # modest band — the paper reports <2x variation in time; finer
        # grids examine slightly FEWER POIs (tighter wedges), so the
        # robustness claim is that no setting explodes.
        values = [v for m in M_VALUES for v in columns[f"M={m}"]]
        assert max(values) <= 8.0 * min(values)
    write_result("fig14_vary_mn", "\n\n".join(outputs))


def test_benchmark_desks_query_default_mn(benchmark, datasets,
                                          desks_searchers):
    queries = generate_queries(datasets["CN"], 20, 2, WIDTH, k=10,
                               seed=15, alpha=0.0)
    searcher = desks_searchers["CN"]

    def run():
        for q in queries:
            searcher.search_regions(q, PruningMode.RD)

    benchmark(run)

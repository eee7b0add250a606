"""Figure 16 — pruning techniques varying the direction width.

Paper setup: 5000 queries, k=10, direction width beta-alpha swept from
pi/6 to 2*pi.  Expected shape: +D/+RD beat +R across the sweep, most
dramatically at narrow widths where direction pruning eliminates almost
every sub-region; all methods converge somewhat as the width approaches
the full circle (nothing to prune by direction).
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

WIDTH_STEPS = tuple(range(1, 13))  # multiples of pi/6
QUERIES_PER_POINT = 30

MODES = [("Desks+R", PruningMode.R), ("Desks+D", PruningMode.D),
         ("Desks+RD", PruningMode.RD)]


def _sweep(collection, searcher):
    time_cols = {name: [] for name, _ in MODES}
    poi_cols = {name: [] for name, _ in MODES}
    for step in WIDTH_STEPS:
        width = step * math.pi / 6
        queries = generate_queries(collection, QUERIES_PER_POINT,
                                   num_keywords=2, direction_width=width,
                                   k=10, seed=16)
        for name, mode in MODES:
            run = run_workload(name, desks_search_fn(searcher, mode),
                               queries)
            time_cols[name].append(run.avg_ms)
            poi_cols[name].append(run.avg_pois_examined)
    return time_cols, poi_cols


def test_fig16_pruning_vary_direction(datasets, desks_searchers):
    outputs = []
    for name in ("VA", "CA", "CN"):
        time_cols, poi_cols = _sweep(datasets[name], desks_searchers[name])
        x_labels = [f"{s}pi/6" for s in WIDTH_STEPS]
        table = format_series_table(
            f"Fig 16 ({name}): pruning techniques varying direction width",
            "beta-alpha", x_labels, time_cols)
        pois = format_series_table(
            f"Fig 16 ({name}) [POIs examined per query]",
            "beta-alpha", x_labels, poi_cols, unit="POIs")
        print()
        print(table)
        print(pois)
        outputs.extend([table, pois])

        # Shape (paper: "DESKS+R took more than 20 ms, DESKS+D and
        # DESKS+RD only took about 2 ms"): the direction-pruned variants
        # stay well below +R across the entire width sweep.
        for i in range(len(WIDTH_STEPS)):
            assert poi_cols["Desks+RD"][i] < poi_cols["Desks+R"][i]
            assert poi_cols["Desks+D"][i] < poi_cols["Desks+R"][i]
        total_r = sum(poi_cols["Desks+R"])
        total_rd = sum(poi_cols["Desks+RD"])
        assert total_r > 1.5 * total_rd
    write_result("fig16_pruning_vary_direction", "\n\n".join(outputs))

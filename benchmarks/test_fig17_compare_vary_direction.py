"""Figure 17 — DESKS vs MIR2-tree vs LkT, varying the direction width.

Paper setup: 5000 queries, k=10, width from pi/6 to 2*pi; log-scale time.
Expected shapes: the baselines are slow for narrow directions (they
enumerate MBRs/POIs in useless directions — 5+ seconds at pi/3 on CA vs
DESKS's ~20 ms) and improve towards 2*pi; DESKS is nearly flat and wins at
every width, including the full circle.
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

WIDTH_STEPS = (1, 2, 4, 6, 9, 12)  # multiples of pi/6 (paper: 1..12)
QUERIES_PER_POINT = 25


def _sweep(collection, searcher, baselines):
    methods = {"Desks": desks_search_fn(searcher, PruningMode.RD)}
    for name, index in baselines.items():
        methods[name] = baseline_search_fn(index)
    time_cols = {name: [] for name in methods}
    poi_cols = {name: [] for name in methods}
    for step in WIDTH_STEPS:
        width = step * math.pi / 6
        queries = generate_queries(collection, QUERIES_PER_POINT,
                                   num_keywords=2, direction_width=width,
                                   k=10, seed=17)
        for name, fn in methods.items():
            run = run_workload(name, fn, queries)
            time_cols[name].append(run.avg_ms)
            poi_cols[name].append(run.avg_pois_examined)
    return time_cols, poi_cols


def test_fig17_compare_vary_direction(datasets, desks_searchers,
                                      baseline_indexes):
    outputs = []
    for name in ("VA", "CA", "CN"):
        time_cols, poi_cols = _sweep(
            datasets[name], desks_searchers[name], baseline_indexes[name])
        x_labels = [f"{s}pi/6" for s in WIDTH_STEPS]
        table = format_series_table(
            f"Fig 17 ({name}): method comparison varying direction width",
            "beta-alpha", x_labels, time_cols)
        pois = format_series_table(
            f"Fig 17 ({name}) [POIs examined per query]",
            "beta-alpha", x_labels, poi_cols, unit="POIs")
        chart = ascii_chart(
            f"Fig 17 ({name}) shape (avg ms, log scale):",
            [s for s in WIDTH_STEPS], time_cols, log_scale=True)
        print()
        print(table)
        print(pois)
        print(chart)
        outputs.extend([table, pois, chart])

        # DESKS wins at the narrowest width by a wide margin (paper: 25x+
        # in time; we assert on examined POIs, the hardware-independent
        # proxy, and on wall time with a safety factor).
        for rival in ("MIR2-tree", "LkT", "filter-verify"):
            assert poi_cols["Desks"][0] < 0.5 * poi_cols[rival][0]
            assert time_cols["Desks"][0] < time_cols[rival][0]
        # Baselines degrade sharply as the width narrows (the two-step
        # method draws ~1/width more candidates); DESKS stays nearly flat.
        for rival in ("MIR2-tree", "LkT"):
            assert poi_cols[rival][0] > 1.7 * poi_cols[rival][-1]
        desks_flatness = (max(poi_cols["Desks"])
                          / max(min(poi_cols["Desks"]), 1e-9))
        assert desks_flatness < 20.0
    write_result("fig17_compare_vary_direction", "\n\n".join(outputs))


def test_benchmark_desks_narrow_direction(benchmark, datasets,
                                          desks_searchers):
    queries = generate_queries(datasets["CA"], 15, 2, math.pi / 6, k=10,
                               seed=18)
    searcher = desks_searchers["CA"]

    def run():
        for q in queries:
            searcher.search_regions(q, PruningMode.RD)

    benchmark(run)


def test_benchmark_mir2_narrow_direction(benchmark, datasets,
                                         baseline_indexes):
    queries = generate_queries(datasets["CA"], 15, 2, math.pi / 6, k=10,
                               seed=18)
    index = baseline_indexes["CA"]["MIR2-tree"]

    def run():
        for q in queries:
            index.search(q)

    benchmark(run)

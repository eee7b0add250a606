"""Figure 21 — scalability on the CN dataset, varying the POI count.

Bench note: single-keyword queries keep match density comparable across
subset sizes; with sparse 2-keyword conjunctions the smallest subsets
have near-zero matches and growth ratios degenerate.

Paper setup: CN subsets of 2..16 million POIs; (a) query time for k in
{1, 10, 20, 50, 100} at width pi/3; (b) query time for widths pi/3..2*pi
at k=10.  Expected shape: near-linear, gently growing curves — the
direction-aware index keeps per-query work almost independent of |P|.

Bench scale: subsets of the CN-like dataset (eighths of the full size
standing in for the paper's 2M steps).
"""

import math

from repro.bench import generate_queries
from repro.core import DesksIndex, DesksSearcher, PruningMode

from conftest import bench_bands, bench_wedges
from series import (
    desks_search_fn,
    format_series_table,
    run_workload,
    write_result,
)

FRACTIONS = (0.25, 0.5, 0.75, 1.0)
K_VALUES = (1, 10, 100)
WIDTH_STEPS = (2, 6, 12)  # * pi/6
QUERIES_PER_POINT = 25


def _searchers_for_subsets(collection):
    out = []
    for fraction in FRACTIONS:
        subset = collection.subset(max(10, int(len(collection) * fraction)))
        bands = bench_bands(len(subset))
        wedges = bench_wedges(len(subset), bands)
        index = DesksIndex(subset, num_bands=bands, num_wedges=wedges)
        out.append((subset, DesksSearcher(index)))
    return out


def test_fig21_scalability(datasets):
    collection = datasets["CN"]
    subsets = _searchers_for_subsets(collection)
    sizes = [len(s) for s, _ in subsets]

    # (a) varying k at width pi/3.
    cols_a = {f"k={k}": [] for k in K_VALUES}
    pois_a = {f"k={k}": [] for k in K_VALUES}
    for subset, searcher in subsets:
        queries_by_k = {
            k: generate_queries(subset, QUERIES_PER_POINT, 1, math.pi / 3,
                                k=k, seed=23, alpha=0.0)
            for k in K_VALUES}
        for k in K_VALUES:
            run = run_workload(
                f"k={k}", desks_search_fn(searcher, PruningMode.RD),
                queries_by_k[k])
            cols_a[f"k={k}"].append(run.avg_ms)
            pois_a[f"k={k}"].append(run.avg_pois_examined)
    table_a = format_series_table(
        "Fig 21(a) (CN): scalability varying k (width pi/3)",
        "|P|", sizes, cols_a)

    # (b) varying direction width at k=10.
    cols_b = {f"{s}pi/6": [] for s in WIDTH_STEPS}
    pois_b = {f"{s}pi/6": [] for s in WIDTH_STEPS}
    for subset, searcher in subsets:
        for step in WIDTH_STEPS:
            queries = generate_queries(subset, QUERIES_PER_POINT, 1,
                                       step * math.pi / 6, k=10, seed=24)
            run = run_workload(
                f"w={step}", desks_search_fn(searcher, PruningMode.RD),
                queries)
            cols_b[f"{step}pi/6"].append(run.avg_ms)
            pois_b[f"{step}pi/6"].append(run.avg_pois_examined)
    table_b = format_series_table(
        "Fig 21(b) (CN): scalability varying direction width (k=10)",
        "|P|", sizes, cols_b)

    print()
    print(table_a)
    print(table_b)
    write_result("fig21_scalability", table_a + "\n\n" + table_b)

    # Shape (deterministic, on examined POIs): quadrupling |P| must not
    # quadruple the per-query work (paper shows nearly flat curves).
    for label, values in {**pois_a, **pois_b}.items():
        growth = values[-1] / max(values[0], 1e-9)
        assert growth < 4.0, f"{label}: growth {growth:.2f} over 4x POIs"
    # Larger k costs more at a fixed size (sanity of the sweep).
    assert pois_a["k=100"][-1] >= pois_a["k=1"][-1]

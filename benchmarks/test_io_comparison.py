"""I/O comparison — the paper's disk-resident cost story.

The paper's evaluation ran all indexes disk-resident, so its gaps are
largely I/O gaps; pure-Python wall time under-reports them.  This bench
compares logical disk accesses per query:

* DESKS (disk-backed, cold buffer pool per query): logical page reads
  through the simulated page store;
* MIR2-tree / LkT: examined tree nodes — in a disk R-tree one node is one
  page, so node accesses are the canonical I/O measure.

Expected shape: DESKS touches a handful of pages (region lists + pointer
slices) where the tree baselines touch tens of node pages at narrow
widths — this is the asymmetry that produces the paper's 2-3
order-of-magnitude wall-time gaps on spinning disks.
"""

import math

from repro.bench import generate_queries
from repro.core import DesksIndex, DesksSearcher, PruningMode
from repro.storage import SearchStats

from conftest import bench_bands, bench_wedges
from series import format_series_table, write_result

WIDTH_STEPS = (1, 3, 6, 12)  # * pi/6
QUERIES = 25


def test_io_comparison(datasets, baseline_indexes):
    collection = datasets["CA"]
    bands = bench_bands(len(collection))
    wedges = bench_wedges(len(collection), bands)
    desks = DesksIndex(collection, num_bands=bands, num_wedges=wedges,
                       disk_based=True)
    searcher = DesksSearcher(desks)
    mir2 = baseline_indexes["CA"]["MIR2-tree"]
    lkt = baseline_indexes["CA"]["LkT"]

    cols = {"Desks (pages)": [], "MIR2-tree (nodes)": [],
            "LkT (nodes)": []}
    for step in WIDTH_STEPS:
        queries = generate_queries(collection, QUERIES, 2,
                                   step * math.pi / 6, k=10, seed=43)
        desks.io_stats.reset()
        for query in queries:
            desks.drop_caches()  # cold pool: every page read is physical
            searcher.search_regions(query, PruningMode.RD)
        cols["Desks (pages)"].append(
            desks.io_stats.logical_reads / len(queries))
        for name, index in (("MIR2-tree (nodes)", mir2),
                            ("LkT (nodes)", lkt)):
            stats = SearchStats()
            for query in queries:
                index.search(query, stats)
            cols[name].append(stats.nodes_examined / len(queries))
    labels = [f"{s}pi/6" for s in WIDTH_STEPS]
    table = format_series_table(
        "I/O comparison (CA): disk accesses per query "
        "(DESKS pages vs R-tree node pages)",
        "beta-alpha", labels, cols, unit="disk accesses")
    print()
    print(table)
    write_result("io_comparison", table)

    # DESKS's disk footprint per query beats the trees' node accesses at
    # the narrow widths the paper emphasises.
    for i in range(2):  # pi/6 and pi/2
        assert cols["Desks (pages)"][i] < cols["MIR2-tree (nodes)"][i]
        assert cols["Desks (pages)"][i] < cols["LkT (nodes)"][i]
    desks.close()

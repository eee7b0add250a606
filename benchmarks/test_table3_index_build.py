"""Table III — index sizes and construction time.

Builds all three indexes on each dataset and reports sizes (MB) and build
times.  The shapes to reproduce from the paper: LkT's index is the largest
by far (per-node inverted files), DESKS is roughly four single-anchor
structures (it indexes all four MBR corners) yet stays moderate, and
MIR2-tree is the smallest of the keyword-aware trees.
"""

import pytest

from repro.core import DesksIndex
from repro.geometry import Anchor

from conftest import bench_bands, bench_wedges
from series import write_result


def _mb(num_bytes: int) -> float:
    return num_bytes / (1024.0 * 1024.0)


def test_table3_sizes_and_times(datasets, desks_indexes, baseline_indexes):
    lines = ["Table III: index sizes (MB) and build times (s)",
             f"{'dataset':<10}{'method':<16}{'size MB':>12}{'build s':>12}"]
    sizes = {}
    for name in ("CA", "VA", "CN"):
        desks = desks_indexes[name]
        rows = [("DESKS", desks.size_bytes, desks.build_seconds)]
        for method, index in baseline_indexes[name].items():
            rows.append((method, index.size_bytes, index.build_seconds))
        for method, size, secs in rows:
            sizes[(name, method)] = size
            lines.append(
                f"{name:<10}{method:<16}{_mb(size):>12.3f}{secs:>12.3f}")
    table = "\n".join(lines)
    print()
    print(table)
    write_result("table3_index_build", table)

    for name in ("CA", "VA", "CN"):
        # LkT's inverted-file index dominates everything (paper: 1430 MB
        # vs 72 MB on CA).
        assert sizes[(name, "LkT")] > sizes[(name, "MIR2-tree")]
        assert sizes[(name, "LkT")] > sizes[(name, "DESKS")]
        # The plain R-tree is the smallest (no textual payload).
        assert sizes[(name, "filter-verify")] < sizes[(name, "MIR2-tree")]


def test_desks_four_anchor_cost(datasets):
    """DESKS's size is ~4x a single-anchor structure (paper Sec. II-B)."""
    collection = datasets["VA"]
    bands = bench_bands(len(collection))
    wedges = bench_wedges(len(collection), bands)
    full = DesksIndex(collection, num_bands=bands, num_wedges=wedges)
    single = DesksIndex(collection, num_bands=bands, num_wedges=wedges,
                        anchors=[Anchor.BOTTOM_LEFT])
    assert full.size_bytes == pytest.approx(4 * single.size_bytes, rel=0.05)


def test_load_faster_than_build(datasets, tmp_path_factory):
    """(beyond paper) loading a saved index skips the global sorts."""
    import gc
    import time

    from repro.core import load_index, save_index

    from repro.datasets import load_csv, save_csv

    collection = datasets["CN"]
    bands = bench_bands(len(collection))
    wedges = bench_wedges(len(collection), bands)
    index = DesksIndex(collection, num_bands=bands, num_wedges=wedges)

    # Both cold paths start from files on disk: CSV parse + build vs load.
    csv_path = tmp_path_factory.mktemp("csv") / "cn.csv"
    save_csv(collection, csv_path)
    directory = tmp_path_factory.mktemp("idx") / "cn"
    save_index(index, str(directory))

    def build():
        return DesksIndex(load_csv(csv_path), num_bands=bands,
                          num_wedges=wedges)

    def load():
        return load_index(str(directory))

    # After the other benchmarks of a pytest run the heap holds every
    # dataset and index their fixtures built, and a full collection over
    # it costs more than either path; one landing inside a single-shot timing once read
    # load 308 ms against build 100 ms.  So collect before each call,
    # interleave the two paths, and keep the best of three.
    seconds = {build: [], load: []}
    indexes = {}
    for _ in range(3):
        for path in (build, load):
            gc.collect()
            started = time.perf_counter()
            indexes[path] = path()
            seconds[path].append(time.perf_counter() - started)
    build_s, load_s = min(seconds[build]), min(seconds[load])
    print(f"\nCN index from disk: parse+build {build_s * 1e3:.0f} ms, "
          f"load {load_s * 1e3:.0f} ms (best of 3)")
    assert indexes[load].num_bands == indexes[build].num_bands
    # At bench scale both cold paths are CSV-parse-dominated, so load and
    # build land within noise of each other; the assertion only rules out
    # a load path that regressed to much slower than building.  (The
    # sort-skip advantage grows with collection size — sorts are the only
    # superlinear part of a build.)
    assert load_s < build_s * 2.0


def test_benchmark_desks_build(benchmark, datasets):
    collection = datasets["VA"]
    bands = bench_bands(len(collection))
    wedges = bench_wedges(len(collection), bands)
    benchmark(lambda: DesksIndex(collection, num_bands=bands,
                                 num_wedges=wedges))


def test_benchmark_mir2_build(benchmark, datasets):
    from repro.baselines import MIR2Tree

    benchmark(lambda: MIR2Tree(datasets["VA"], fanout=50))


def test_benchmark_lkt_build(benchmark, datasets):
    from repro.baselines import IRTree

    benchmark(lambda: IRTree(datasets["VA"], fanout=50))

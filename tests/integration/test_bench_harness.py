"""Tests for the benchmark harness: the query generators
(``repro.bench``) and the timed runner and series tables
(``benchmarks/series.py``)."""

import math
import os

import pytest

from benchmarks.series import (
    ascii_chart,
    baseline_search_fn,
    desks_search_fn,
    format_series_table,
    run_workload,
    speedup,
    write_result,
)
from repro.baselines import FilterThenVerify
from repro.bench import generate_queries, paper_query_mix
from repro.core import (
    DesksIndex,
    DesksSearcher,
    PruningMode,
    brute_force_search,
)
from repro.storage import SearchStats

from ..core.conftest import make_collection


@pytest.fixture(scope="module")
def collection():
    return make_collection(250, seed=71)


class TestGenerateQueries:
    def test_count_and_shape(self, collection):
        queries = generate_queries(collection, 20, num_keywords=2,
                                   direction_width=math.pi / 3, k=7, seed=1)
        assert len(queries) == 20
        for q in queries:
            assert len(q.keywords) == 2
            assert q.k == 7
            assert q.interval.width == pytest.approx(math.pi / 3)
            assert collection.mbr.contains_point(q.location)

    def test_keywords_satisfiable(self, collection):
        """Every query's conjunction must exist in at least one POI."""
        queries = generate_queries(collection, 30, 2, math.pi, seed=2)
        for q in queries:
            assert any(q.keywords <= p.keywords for p in collection)

    def test_fixed_alpha(self, collection):
        queries = generate_queries(collection, 5, 1, 1.0, seed=3, alpha=0.0)
        assert all(q.interval.lower == 0.0 for q in queries)

    def test_deterministic(self, collection):
        a = generate_queries(collection, 10, 1, 1.0, seed=9)
        b = generate_queries(collection, 10, 1, 1.0, seed=9)
        assert [q.location for q in a] == [q.location for q in b]
        assert [q.keywords for q in a] == [q.keywords for q in b]

    def test_validation(self, collection):
        with pytest.raises(ValueError):
            generate_queries(collection, 0, 1, 1.0)
        with pytest.raises(ValueError):
            generate_queries(collection, 5, 0, 1.0)
        with pytest.raises(ValueError):
            generate_queries(collection, 5, 1, 10.0)

    def test_paper_mix(self, collection):
        queries = paper_query_mix(collection, per_set=4,
                                  direction_width=1.0,
                                  keyword_counts=(1, 2))
        assert len(queries) == 8
        assert sorted({len(q.keywords) for q in queries}) == [1, 2]


class TestRunWorkload:
    def test_measurement_fields(self, collection):
        index = DesksIndex(collection, num_bands=3, num_wedges=4)
        searcher = DesksSearcher(index)
        queries = generate_queries(collection, 10, 1, math.pi, seed=4)
        m = run_workload("desks", desks_search_fn(searcher, PruningMode.RD),
                         queries)
        assert m.method == "desks"
        assert m.num_queries == 10
        assert m.total_seconds > 0
        assert m.avg_ms > 0
        assert m.stats.pois_examined >= 0
        assert m.avg_pois_examined == m.stats.pois_examined / 10

    def test_methods_agree(self, collection):
        """Both adapters must return the oracle's answer distances."""
        index = DesksIndex(collection, num_bands=3, num_wedges=4)
        searcher = DesksSearcher(index)
        ftv = FilterThenVerify(collection, fanout=8)
        queries = generate_queries(collection, 15, 2, 2.0, seed=5)
        fns = [desks_search_fn(searcher, PruningMode.RD),
               baseline_search_fn(ftv)]
        for q in queries:
            expected = brute_force_search(collection, q).distances()
            for fn in fns:
                got = fn(q, SearchStats()).distances()
                assert got == pytest.approx(expected, abs=1e-9)


class TestReporting:
    def test_format_series_table(self):
        table = format_series_table(
            "Fig X", "k", [1, 5], {"DESKS": [1.0, 2.0],
                                   "MIR2-tree": [10.0, 20.0]})
        assert "Fig X" in table
        assert "DESKS" in table
        assert "20.000" in table

    def test_format_rejects_ragged(self):
        with pytest.raises(ValueError):
            format_series_table("t", "x", [1, 2], {"a": [1.0]})

    def test_write_result(self, tmp_path):
        path = write_result("test_exp", "hello", results_dir=str(tmp_path))
        assert os.path.exists(path)
        assert open(path).read() == "hello\n"

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(1.0, 0.0) == math.inf


class TestAsciiChart:
    def test_basic_render(self):
        out = ascii_chart("t", [1, 2], {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        assert "t" in out
        assert "*=a" in out and "o=b" in out
        assert "+--" in out

    def test_log_scale_marker(self):
        out = ascii_chart("t", [1], {"a": [10.0]}, log_scale=True)
        assert "(log scale)" in out

    def test_collision_glyph(self):
        out = ascii_chart("t", [1], {"a": [5.0], "b": [5.0]})
        assert "=" in out.splitlines()[1] or "=" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_chart("t", [1], {"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            ascii_chart("t", [], {})
        with pytest.raises(ValueError):
            ascii_chart("t", [1], {"a": [1.0]}, height=1)

    def test_flat_series_no_crash(self):
        out = ascii_chart("t", [1, 2, 3], {"a": [2.0, 2.0, 2.0]})
        assert "*" in out


class TestRunMeasurementIO:
    def test_avg_io_counts_disk_reads(self, collection):
        from repro.core import DesksIndex, DesksSearcher, PruningMode

        index = DesksIndex(collection, num_bands=3, num_wedges=4,
                           disk_based=True)
        searcher = DesksSearcher(index)
        queries = generate_queries(collection, 6, 1, math.pi, seed=14)

        def fn(query, stats):
            index.drop_caches()
            before = index.io_stats.snapshot()
            result = searcher.search(query, PruningMode.RD, stats)
            if stats is not None:
                delta = before.delta(index.io_stats.snapshot())
                stats.io.physical_reads += delta.physical_reads
                stats.io.cache_hits += delta.cache_hits
            return result

        m = run_workload("desks-disk", fn, queries)
        assert m.avg_io > 0

    def test_avg_io_zero_for_memory(self, collection):
        from repro.core import DesksIndex, DesksSearcher, PruningMode

        searcher = DesksSearcher(DesksIndex(collection, num_bands=3,
                                            num_wedges=4))
        queries = generate_queries(collection, 4, 1, math.pi, seed=15)
        m = run_workload(
            "desks-mem",
            lambda q, s: searcher.search(q, PruningMode.RD, s), queries)
        assert m.avg_io == 0.0

"""Tests for the command-line interface."""

import csv
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from repro.cli import main


@pytest.fixture()
def csv_path(tmp_path):
    path = tmp_path / "pois.csv"
    code = main(["generate", str(path), "--pois", "300", "--terms", "200",
                 "--terms-per-poi", "3", "--seed", "4"])
    assert code == 0
    return path


class TestGenerate:
    def test_creates_csv(self, csv_path, capsys):
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "id,x,y,keywords"

    def test_preset(self, tmp_path, capsys):
        path = tmp_path / "va.csv"
        assert main(["generate", str(path), "--preset", "VA",
                     "--scale", "5000"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out


class TestStats:
    def test_prints_table(self, csv_path, capsys):
        assert main(["stats", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "Total number of POIs" in out
        assert "300" in out


def answer_ids(out):
    """The ``poi=`` ids of a rendered SELECT, in rank order."""
    return [int(line.split("poi=")[1].split()[0])
            for line in out.splitlines() if line.startswith("  poi=")]


class TestQuery:
    # Flag-built queries are SELECT statements: same executor, same output.
    def test_finds_answers(self, csv_path, capsys):
        code = main(["query", str(csv_path), "-x", "5000", "-y", "5000",
                     "--alpha", "0", "--beta", "360",
                     "--keywords", "restaurant", "-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "-- SELECT 3 NEAR (5000.0, 5000.0) MATCHING 'restaurant'")
        assert "rows: 3\n" in out
        assert len(answer_ids(out)) == 3

    def test_direction_constrained(self, csv_path, capsys):
        code = main(["query", str(csv_path), "-x", "5000", "-y", "5000",
                     "--alpha", "0", "--beta", "45",
                     "--keywords", "restaurant", "-k", "3"])
        assert code == 0
        ids = answer_ids(capsys.readouterr().out)
        assert ids
        with open(csv_path, newline="") as handle:
            rows = {int(row["id"]): row for row in csv.DictReader(handle)}
        for poi_id in ids:
            bearing = math.degrees(math.atan2(
                float(rows[poi_id]["y"]) - 5000.0,
                float(rows[poi_id]["x"]) - 5000.0)) % 360.0
            assert 0.0 <= bearing <= 45.0 + 1e-6

    def test_no_answers_message(self, csv_path, capsys):
        code = main(["query", str(csv_path), "-x", "5000", "-y", "5000",
                     "--keywords", "keyword-that-does-not-exist"])
        assert code == 0
        assert "rows: 0\n" in capsys.readouterr().out

    def test_mode_flag(self, csv_path, capsys):
        # A pruning mode is an EXPLAIN clause (``MODE R``); a SELECT
        # always runs RD.
        with pytest.raises(SystemExit) as exited:
            main(["query", str(csv_path), "-x", "100", "-y", "100",
                  "--keywords", "restaurant", "--mode", "R"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --mode R" in capsys.readouterr().err

    @pytest.mark.parametrize("output", [[], ["--json"]],
                             ids=["text", "json"])
    def test_timeout_applies_to_flag_query(self, csv_path, capsys, output):
        code = main(["query", str(csv_path), "-x", "5000", "-y", "5000",
                     "--keywords", "restaurant", "-k", "3",
                     "--timeout-ms", "0.000001", *output])
        assert code == 0
        out = capsys.readouterr().out
        if output:
            data = json.loads(out)
            assert data[0]["partial"] is True and data[0]["rows"] == []
        else:
            assert "rows: 0 (partial)" in out


def assert_removed_command(argv, capsys):
    """A removed subcommand is argparse's exit 2, before any work."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err


class TestBench:
    # DESKS agreeing with the baselines: test_end_to_end.py::
    # TestFullPipeline::test_all_methods_agree_on_paper_mix.
    def test_bench_runs(self, capsys):
        assert_removed_command(["bench", "pois.csv", "--queries", "5"],
                               capsys)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestBuildAndLoad:
    def test_build_then_query_saved_index(self, csv_path, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        assert main(["build", str(csv_path), str(index_dir),
                     "--bands", "3", "--wedges", "3"]) == 0
        assert (index_dir / "meta.json").exists()
        capsys.readouterr()
        code = main(["query", str(index_dir), "--index",
                     "-x", "5000", "-y", "5000",
                     "--keywords", "restaurant", "-k", "3"])
        assert code == 0
        assert len(answer_ids(capsys.readouterr().out)) == 3

    def test_query_match_any(self, csv_path, capsys):
        code = main(["query", str(csv_path), "-x", "5000", "-y", "5000",
                     "--keywords", "restaurant", "nosuchword",
                     "--match-any", "-k", "3"])
        assert code == 0
        assert len(answer_ids(capsys.readouterr().out)) == 3


class TestErrorHandling:
    def test_missing_csv(self, capsys):
        assert main(["stats", "/nonexistent/pois.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_index_dir(self, capsys):
        assert main(["query", "/nonexistent/idx", "--index",
                     "-x", "0", "-y", "0", "--keywords", "a"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_csv_contents(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,poi,file\n1,2\n")
        assert main(["stats", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_lint_missing_target(self, tmp_path, capsys):
        # A mistyped path is an error, not an empty (clean) directory.
        missing = str(tmp_path / "srcc")
        assert main(["lint", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err


class TestBrokenPipe:
    """A reader that stops early (``repro query ... | head -2``) ends the
    run quietly: no traceback, a non-zero exit, at most one ``error:``
    line."""

    #: Answers printed: well past what a pipe buffers (~64 kB), so the
    #: CLI is still writing when the reader closes its end.
    ANSWERS = 4000

    @pytest.fixture()
    def cafes(self, tmp_path):
        rng = random.Random(5)
        path = tmp_path / "cafes.csv"
        path.write_text("id,x,y,keywords\n" + "".join(
            f"{i},{rng.uniform(0, 1000):.3f},{rng.uniform(0, 1000):.3f},"
            f"cafe\n" for i in range(self.ANSWERS)))
        return path

    @pytest.mark.parametrize("args", [
        ["-x", "500", "-y", "500", "--alpha", "0", "--beta", "360",
         "--keywords", "cafe", "-k", str(ANSWERS)],
        ["-e", f"SELECT {ANSWERS} NEAR (500, 500) MATCHING 'cafe'",
         "--json"],
    ], ids=["flags", "statement-json"])
    def test_reader_closing_early_is_not_a_traceback(self, cafes, args):
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "query", str(cafes), *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) != 0
        assert first
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) <= 1 and all(
            line.startswith("error:") for line in lines)


class TestServeBench:
    # The closed loop is benchmarks/closed_loop.py, tested by
    # tests/service/test_workload.py::TestClosedLoop (engine) and
    # tests/net/test_server_client.py::test_closed_loop_over_the_socket.
    def test_sweep_and_metrics_json(self, capsys):
        assert_removed_command(["serve-bench", "pois.csv",
                                "--clients", "1", "2"], capsys)

    def test_socket_transport_sweep(self, capsys):
        assert_removed_command(["serve-bench", "pois.csv",
                                "--transport", "socket"], capsys)


class TestClusterBench:
    # Sharded answers equal unsharded ones, R=2 under injected faults:
    # tests/cluster/test_replica.py::
    # test_router_exact_under_single_replica_failure.
    def test_sweep_verifies_and_writes_metrics(self, capsys):
        assert_removed_command(["cluster-bench", "pois.csv",
                                "--shards", "1", "4"], capsys)

    def test_replicated_with_faults(self, capsys):
        assert_removed_command(["cluster-bench", "pois.csv",
                                "--replicas", "2", "--fault-rate", "1.0"],
                               capsys)

    def test_rejects_unknown_partitioner(self, capsys):
        assert_removed_command(["cluster-bench", "pois.csv",
                                "--partitioner", "voronoi"], capsys)


class TestScrub:
    def test_clean_saved_index(self, csv_path, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        assert main(["build", str(csv_path), str(index_dir)]) == 0
        capsys.readouterr()
        assert main(["scrub", str(index_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupt_saved_index_exits_nonzero(self, csv_path, tmp_path,
                                               capsys):
        from benchmarks.chaos_durability import CorruptionInjector

        index_dir = tmp_path / "idx"
        assert main(["build", str(csv_path), str(index_dir)]) == 0
        CorruptionInjector(seed=3).corrupt_file(str(index_dir / "pois.csv"))
        capsys.readouterr()
        assert main(["scrub", str(index_dir)]) == 1
        captured = capsys.readouterr()
        assert "corrupt" in captured.out
        assert "pois.csv" in captured.err

    def test_durable_directory_scrubbed_end_to_end(self, tmp_path, capsys):
        import random

        from repro.datasets import POI, POICollection
        from repro.durability import DurableMutableIndex

        rng = random.Random(5)
        base = POICollection([
            POI.make(i, rng.uniform(0, 50), rng.uniform(0, 50), ["cafe"])
            for i in range(40)])
        root = tmp_path / "dur"
        with DurableMutableIndex.create(base, str(root)) as index:
            index.insert(1.0, 2.0, ["food"])
        assert main(["scrub", str(root)]) == 0
        assert "wal" in capsys.readouterr().out

    def test_durable_directory_names_the_damaged_file(self, tmp_path,
                                                      capsys):
        import random

        from repro.datasets import POI, POICollection
        from repro.durability import DurableMutableIndex

        rng = random.Random(5)
        base = POICollection([
            POI.make(i, rng.uniform(0, 50), rng.uniform(0, 50), ["cafe"])
            for i in range(40)])
        root = tmp_path / "dur"
        DurableMutableIndex.create(base, str(root)).close()
        pois = root / "snapshot" / "pois.csv"
        blob = bytearray(pois.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        pois.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["scrub", str(root)]) == 1
        assert "pois.csv" in capsys.readouterr().err

    def test_undecodable_durable_json_is_named(self, tmp_path, capsys):
        import random

        from repro.datasets import POI, POICollection
        from repro.durability import DurableMutableIndex

        rng = random.Random(5)
        base = POICollection([
            POI.make(i, rng.uniform(0, 50), rng.uniform(0, 50), ["cafe"])
            for i in range(40)])
        root = tmp_path / "dur"
        DurableMutableIndex.create(base, str(root)).close()
        meta = root / "durable.json"
        blob = bytearray(meta.read_bytes())
        blob[0] ^= 0x80  # `{` becomes a byte no UTF-8 text starts with
        meta.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["scrub", str(root)]) == 1
        assert f"corrupt: {meta}:" in capsys.readouterr().err

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["scrub", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err


def explain_argv(csv_path, select, *extra):
    return ["query", str(csv_path), "-e", f"EXPLAIN {select}", *extra]


def actuals_of(text):
    """The ``actuals:`` section of an EXPLAIN report, as strings."""
    lines = text.splitlines()
    start = lines.index("actuals:") + 1
    end = next(i for i, line in enumerate(lines)
               if line.startswith("reconciliation ("))
    return dict(line.strip().split("=", 1) for line in lines[start:end])


class TestExplain:
    # EXPLAIN ANALYZE is the DQL statement; the subcommand is gone.
    SELECT = ("SELECT 3 NEAR (5000, 5000) HEADING [0 DEG, 90 DEG] "
              "MATCHING 'restaurant'")

    def test_explain_command_removed(self, capsys):
        assert_removed_command(["explain", "pois.csv", "-x", "0", "-y",
                                "0", "--keywords", "cafe"], capsys)

    def test_reconciles_and_renders(self, csv_path, capsys):
        assert main(explain_argv(csv_path, self.SELECT)) == 0
        out = capsys.readouterr().out
        assert "reconciliation (OK)" in out
        assert "desks.search" in out

    def test_json_report(self, csv_path, capsys):
        assert main(explain_argv(csv_path, self.SELECT + " MODE D",
                                 "--json")) == 0
        [outcome] = json.loads(capsys.readouterr().out)
        assert outcome["kind"] == "text"
        lines = outcome["text"].splitlines()
        assert lines[0].endswith(" mode=D")
        assert "reconciliation (OK):" in lines
        assert lines[lines.index("spans:") + 1].startswith(
            "  desks.search ")

    def test_saved_index_target(self, csv_path, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        assert main(["build", str(csv_path), str(index_dir)]) == 0
        capsys.readouterr()
        assert main([*explain_argv(index_dir, self.SELECT), "--index"]) == 0
        out = capsys.readouterr().out
        assert "pages_read: span=" in out
        assert "reconciliation (OK)" in out

    def test_mismatch_exits_1(self, csv_path, monkeypatch, capsys):
        import repro.lang.executor as executor_mod

        real = executor_mod.explain

        def miscounted(*args, **kwargs):
            report = real(*args, **kwargs)
            report.reconciliation[0]["match"] = False
            return report

        monkeypatch.setattr(executor_mod, "explain", miscounted)
        assert main(explain_argv(csv_path, self.SELECT)) == 1
        assert "do not reconcile" in capsys.readouterr().err


class TestTrace:
    # The span tree is part of every EXPLAIN report; the engine's own
    # spans: tests/trace/test_propagation.py.
    def test_trace_command_removed(self, capsys):
        assert_removed_command(["trace", "pois.csv", "-x", "0", "-y", "0",
                                "--keywords", "cafe"], capsys)

    def test_prints_span_tree(self, csv_path, capsys):
        # The five commonest keywords under ANY: more postings than the
        # walk can verify as cheaply as the region search scans a band.
        assert main(explain_argv(
            csv_path, "SELECT 3 NEAR (5000, 5000) HEADING [0 DEG, 90 DEG] "
            "MATCHING 'restaurant food chinese italian mexican' "
            "MATCH ANY")) == 0
        out = capsys.readouterr().out
        assert "desks.search" in out
        assert "desks.band" in out

    def test_json_export(self, csv_path, capsys):
        # The searcher's cost model picked the stage; EXPLAIN shows the
        # two estimates it weighed ('restaurant' is far above the floor).
        assert main(explain_argv(
            csv_path, "SELECT 10 NEAR (5000, 5000) MATCHING 'restaurant'",
            "--json")) == 0
        text = json.loads(capsys.readouterr().out)[0]["text"]
        actuals = actuals_of(text)
        walks = float(actuals["walk_cost"]) <= float(actuals["region_cost"])
        assert actuals["access_path"] == ("postings" if walks else "regions")
        stage = "desks.postings" if walks else "desks.prepare"
        assert f"\n    {stage} [" in text


class TestChaosBench:
    # Crash trials: tests/durability/test_chaos_harness.py.
    def test_small_run_passes_and_writes_json(self, capsys):
        assert_removed_command(["chaos-bench", "--crash-trials", "4"],
                               capsys)


class TestDqlQuery:
    STATEMENT = ("SELECT 3 NEAR (5000.0, 5000.0) HEADING [0 DEG, 360 DEG] "
                 "MATCHING 'restaurant'")

    def test_execute_statement(self, csv_path, capsys):
        assert main(["query", str(csv_path), "-e", self.STATEMENT]) == 0
        out = capsys.readouterr().out
        assert out.startswith("-- SELECT 3 NEAR (5000.0, 5000.0)")
        assert "rows: 3" in out
        assert out.count("poi=") == 3

    def test_inproc_and_socket_render_identically(self, csv_path, capsys):
        assert main(["query", str(csv_path), "-e", self.STATEMENT,
                     "--transport", "inproc"]) == 0
        inproc = capsys.readouterr().out
        assert main(["query", str(csv_path), "-e", self.STATEMENT,
                     "--transport", "socket"]) == 0
        socket_out = capsys.readouterr().out
        assert inproc == socket_out

    def test_json_envelope(self, csv_path, capsys):
        assert main(["query", str(csv_path), "--json",
                     "-e", self.STATEMENT, "-e", "SHOW METRICS"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [d["kind"] for d in data] == ["search", "table"]
        assert len(data[0]["rows"]) == 3

    def test_syntax_error_exits_2_with_caret(self, csv_path, capsys):
        assert main(["query", str(csv_path), "-e", "SELEKT 1"]) == 2
        err = capsys.readouterr().err
        assert "SELEKT 1" in err
        assert "^" in err

    def test_metrics_json_written(self, csv_path, capsys):
        # The snapshot --metrics-json wrote is the SHOW METRICS table.
        assert main(["query", str(csv_path), "-e", self.STATEMENT,
                     "-e", "SHOW METRICS"]) == 0
        assert "  queries_total = 1\n" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exited:
            main(["query", str(csv_path), "-e", self.STATEMENT,
                  "--metrics-json", "metrics.json"])
        assert exited.value.code == 2

    def test_explain_statement(self, csv_path, capsys):
        assert main(["query", str(csv_path),
                     "-e", "EXPLAIN " + self.STATEMENT]) == 0
        out = capsys.readouterr().out
        assert "reconciliation (OK)" in out

    def test_flag_query_with_json_uses_envelope(self, csv_path, capsys):
        assert main(["query", str(csv_path), "-x", "5000", "-y", "5000",
                     "--alpha", "0", "--beta", "360",
                     "--keywords", "restaurant", "-k", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["kind"] == "search"
        assert len(data[0]["rows"]) == 3

    def test_missing_flags_without_statement_exit_2(self, csv_path,
                                                    capsys):
        assert main(["query", str(csv_path)]) == 2
        assert "-e/--repl" in capsys.readouterr().err


class TestDqlRepl:
    SCRIPT = ("-- a comment, skipped\n"
              "\n"
              "SELECT 2 NEAR (5000.0, 5000.0) MATCHING 'restaurant'\n"
              "SELEKT nope\n"
              "SHOW SHARDS\n"
              "exit\n"
              "SELECT 1 NEAR (0, 0) MATCHING 'never reached'\n")

    def run_repl(self, csv_path, monkeypatch, capsys, *extra):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self.SCRIPT))
        assert main(["query", str(csv_path), "--repl", *extra]) == 0
        return capsys.readouterr().out

    def test_repl_script_is_deterministic_golden(self, csv_path,
                                                 monkeypatch, capsys):
        first = self.run_repl(csv_path, monkeypatch, capsys)
        second = self.run_repl(csv_path, monkeypatch, capsys)
        assert first == second  # history-free, timing-free output
        lines = first.splitlines()
        # No prompt when stdin is not a tty; statements echo canonically.
        assert lines[0] == \
            "-- SELECT 2 NEAR (5000.0, 5000.0) MATCHING 'restaurant'"
        assert lines[1] == "rows: 2"
        # The parse error renders inline (stdout) and the REPL continues.
        assert "SELEKT nope" in first
        assert "^" in first
        assert "shards.total = 1" in first
        # EXIT stops the script before the last statement.
        assert "never reached" not in first

    def test_repl_over_socket_matches_inproc(self, csv_path, monkeypatch,
                                             capsys):
        inproc = self.run_repl(csv_path, monkeypatch, capsys)
        socket_out = self.run_repl(csv_path, monkeypatch, capsys,
                                   "--transport", "socket")
        assert inproc == socket_out

    def test_statement_outcomes_print_before_the_repl(self, csv_path,
                                                      monkeypatch, capsys):
        out = self.run_repl(csv_path, monkeypatch, capsys,
                            "-e", TestDqlQuery.STATEMENT)
        lines = out.splitlines()
        assert lines[0].startswith("-- SELECT 3 NEAR (5000.0, 5000.0)")
        assert lines[1] == "rows: 3"
        assert out.index("rows: 3") < out.index("rows: 2")

    def test_json_with_repl_is_a_usage_error(self, csv_path, monkeypatch,
                                             capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self.SCRIPT))
        assert main(["query", str(csv_path), "-e", TestDqlQuery.STATEMENT,
                     "--repl", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--repl" in captured.err

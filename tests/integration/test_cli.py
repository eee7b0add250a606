"""Tests for the command-line interface."""

import pytest

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


class TestQuery:
    def test_finds_answers(self, csv_path, capsys):
        code = main(["query", str(csv_path), "-x", "5000", "-y", "5000",
                     "--alpha", "0", "--beta", "360",
                     "--keywords", "restaurant", "-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "POIs examined" in out

    def test_direction_constrained(self, csv_path, capsys):
        code = main(["query", str(csv_path), "-x", "5000", "-y", "5000",
                     "--alpha", "0", "--beta", "45",
                     "--keywords", "restaurant", "-k", "3",
                     "--mode", "RD"])
        assert code == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if "bearing=" in line:
                bearing = float(line.split("bearing=")[1].split()[0])
                assert 0.0 <= bearing <= 45.0 + 1e-6

    def test_no_answers_message(self, csv_path, capsys):
        code = main(["query", str(csv_path), "-x", "5000", "-y", "5000",
                     "--keywords", "keyword-that-does-not-exist"])
        assert code == 0
        assert "no answers" in capsys.readouterr().out

    def test_mode_flag(self, csv_path, capsys):
        for mode in ("R", "D", "RD"):
            assert main(["query", str(csv_path), "-x", "100", "-y", "100",
                         "--keywords", "restaurant", "--mode", mode]) == 0


class TestBench:
    def test_bench_runs(self, csv_path, capsys):
        code = main(["bench", str(csv_path), "--queries", "5",
                     "--width", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "DESKS" in out
        assert "MIR2-tree" in out
        assert "LkT" in out


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
        assert "POIs examined" in capsys.readouterr().out

    def test_query_match_any(self, csv_path, capsys):
        code = main(["query", str(csv_path), "-x", "5000", "-y", "5000",
                     "--keywords", "restaurant", "nosuchword",
                     "--match-any", "-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no answers" not in out


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


class TestServeBench:
    def test_sweep_and_metrics_json(self, csv_path, tmp_path, capsys):
        import json

        metrics_path = tmp_path / "metrics.json"
        code = main(["serve-bench", str(csv_path),
                     "--clients", "1", "2", "--requests", "10",
                     "--queries", "5", "--think-ms", "0",
                     "--metrics-json", str(metrics_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "req/client" in out
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["queries_total"] > 0
        assert "histograms" in snapshot
        # The search kernel is not a serving option.
        with pytest.raises(SystemExit) as exited:
            main(["serve-bench", str(csv_path), "--kernel", "columnar"])
        assert exited.value.code == 2

    def test_socket_transport_sweep(self, csv_path, capsys):
        code = main(["serve-bench", str(csv_path), "--transport", "socket",
                     "--clients", "1", "2", "--requests", "5",
                     "--queries", "5", "--think-ms", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "transport=socket" in out
        rows = [line for line in out.splitlines()
                if line.startswith("clients=")]
        assert [row.split()[0] for row in rows] == ["clients=1",
                                                    "clients=2"]
        for row in rows:
            # Same row as the inproc sweep, plus the shed column.
            assert "qps=" in row and "hit_rate=" in row and "p95=" in row
            assert "errors=0" in row and row.endswith("shed=0")
        # Mutations are not on the wire: refused before the CSV is read.
        assert main(["serve-bench", str(csv_path) + ".missing",
                     "--transport", "socket", "--inserts", "1"]) == 2
        assert "--inserts requires --transport inproc" in \
            capsys.readouterr().err


class TestClusterBench:
    def test_sweep_verifies_and_writes_metrics(self, csv_path, tmp_path,
                                               capsys):
        import json

        metrics_path = tmp_path / "cluster.json"
        code = main(["cluster-bench", str(csv_path),
                     "--shards", "1", "4", "--queries", "15",
                     "--partitioner", "angular",
                     "--metrics-json", str(metrics_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mismatches" in out
        # Every sweep row must report zero mismatches.
        for line in out.splitlines():
            cells = line.split()
            if cells and cells[0] in {"1", "4"}:
                assert cells[-1] == "0"
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["cluster"]["counters"]["cluster_queries_total"] == 15
        assert len(snapshot["shards"]) == 4

    def test_replicated_with_faults(self, csv_path, capsys):
        code = main(["cluster-bench", str(csv_path),
                     "--shards", "2", "--queries", "10",
                     "--replicas", "2", "--fault-rate", "1.0"])
        assert code == 0
        out = capsys.readouterr().out
        row = [ln for ln in out.splitlines()
               if ln.split() and ln.split()[0] == "2"][-1]
        cells = row.split()
        assert int(cells[3]) > 0   # retries happened
        assert cells[4] == "0"     # but nothing degraded
        assert cells[5] == "0"     # and answers stayed exact

    def test_rejects_unknown_partitioner(self, csv_path):
        with pytest.raises(SystemExit):
            main(["cluster-bench", str(csv_path),
                  "--partitioner", "voronoi"])
        with pytest.raises(SystemExit) as exited:
            main(["cluster-bench", str(csv_path), "--kernel", "columnar"])
        assert exited.value.code == 2


class TestScrub:
    def test_clean_saved_index(self, csv_path, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        assert main(["build", str(csv_path), str(index_dir)]) == 0
        capsys.readouterr()
        assert main(["scrub", str(index_dir)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupt_saved_index_exits_nonzero(self, csv_path, tmp_path,
                                               capsys):
        from repro.storage import CorruptionInjector

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

    def test_missing_directory(self, tmp_path, capsys):
        assert main(["scrub", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err


class TestExplain:
    def test_reconciles_and_renders(self, csv_path, capsys):
        code = main(["explain", str(csv_path), "-x", "5000", "-y", "5000",
                     "--alpha", "0", "--beta", "90",
                     "--keywords", "restaurant", "-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reconciliation (OK)" in out
        assert "desks.search" in out

    def test_json_report(self, csv_path, tmp_path, capsys):
        import json

        report = tmp_path / "explain.json"
        code = main(["explain", str(csv_path), "-x", "5000", "-y", "5000",
                     "--keywords", "restaurant", "--mode", "D",
                     "--json", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["reconciled"] is True
        assert payload["mode"] == "D"
        assert payload["trace"]["spans"][0]["name"] == "desks.search"

    def test_saved_index_target(self, csv_path, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        assert main(["build", str(csv_path), str(index_dir)]) == 0
        capsys.readouterr()
        code = main(["explain", str(index_dir), "--index",
                     "-x", "5000", "-y", "5000",
                     "--keywords", "restaurant"])
        assert code == 0
        assert "pages_read" in capsys.readouterr().out


class TestTrace:
    def test_prints_span_tree(self, csv_path, capsys):
        code = main(["trace", str(csv_path), "-x", "5000", "-y", "5000",
                     "--alpha", "0", "--beta", "90",
                     "--keywords", "restaurant", "-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "desks.search" in out
        assert "desks.band" in out

    def test_engine_mode_wraps_search(self, csv_path, capsys):
        code = main(["trace", str(csv_path), "--engine",
                     "-x", "5000", "-y", "5000",
                     "--keywords", "restaurant"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.worker" in out
        assert "engine.execute" in out
        assert "desks.search" in out

    def test_json_export(self, csv_path, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(["trace", str(csv_path), "-x", "5000", "-y", "5000",
                     "--keywords", "restaurant", "--json", str(trace_path)])
        assert code == 0
        payload = json.loads(trace_path.read_text())
        spans = payload["spans"]
        assert spans[0]["name"] == "desks.search"
        names = {child["name"] for child in spans[0]["children"]}
        assert "desks.prepare" in names


class TestChaosBench:
    def test_small_run_passes_and_writes_json(self, tmp_path, capsys):
        import json

        report = tmp_path / "chaos.json"
        code = main(["chaos-bench", "--pois", "80", "--ops", "25",
                     "--crash-trials", "4", "--corruption-trials", "3",
                     "--seed", "2", "--json", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert "crash trials" in out
        assert "corruption trials" in out
        assert "WAL overhead" in out
        payload = json.loads(report.read_text())
        assert payload["ok"] is True
        assert payload["crash"]["identical"] == 4
        assert payload["corruption"]["silent_wrong"] == 0


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
        import json

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

    def test_metrics_json_written(self, csv_path, tmp_path, capsys):
        import json

        out_path = tmp_path / "dql_metrics.json"
        assert main(["query", str(csv_path), "-e", self.STATEMENT,
                     "--metrics-json", str(out_path)]) == 0
        snapshot = json.loads(out_path.read_text())
        assert snapshot["queries_total"] >= 1.0

    def test_explain_statement(self, csv_path, capsys):
        assert main(["query", str(csv_path),
                     "-e", "EXPLAIN " + self.STATEMENT]) == 0
        out = capsys.readouterr().out
        assert "reconciliation (OK)" in out

    def test_flag_query_with_json_uses_envelope(self, csv_path, capsys):
        import json

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

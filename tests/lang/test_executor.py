"""Executor tests: the uniform envelope, and backend equivalence.

The load-bearing suite is :class:`TestEquivalence`: a fixed statement
corpus (full circle, wraparound sector, narrow wedge, WITHIN, MATCH
ANY) must produce **bit-identical** entries via

* the direct API (``DesksSearcher.search`` on the same index),
* DQL through :class:`EngineBackend` in-process, and
* DQL shipped as text over a real socket to a ``ShardServer``.

That is the language layer's correctness claim: parsing, planning, and
transport never change an answer.
"""

import math

import pytest

from repro.core import PruningMode
from repro.lang import (
    DqlExecutionError,
    DqlExecutor,
    DqlSyntaxError,
    EngineBackend,
    SocketBackend,
    StatementOutcome,
    parse,
)

TWO_PI = 2.0 * math.pi

#: The equivalence corpus.  Every statement is deterministic for a fixed
#: index; comments call out which regime each row exercises.
CORPUS = [
    # full circle, default everything
    "SELECT 5 NEAR (500.0, 500.0) MATCHING 'cafe'",
    # wraparound sector (crosses 0/2*pi)
    "SELECT 8 NEAR (500.0, 500.0) HEADING [-0.7853981633974483, "
    "0.7853981633974483] MATCHING 'cafe'",
    # narrow wedge
    "SELECT 3 NEAR (200.0, 800.0) HEADING [1.0, 1.02] MATCHING 'gas'",
    # quadrant-spanning sector, multiple keywords, ALL semantics
    "SELECT 10 NEAR (100.0, 100.0) HEADING [0.5, 4.0] "
    "MATCHING 'cafe food'",
    # MATCH ANY over two keywords
    "SELECT 10 NEAR (900.0, 100.0) MATCHING 'atm sushi' MATCH ANY",
    # the sector whose three pruning modes are compared below
    "SELECT 6 NEAR (400.0, 600.0) HEADING [2.0, 5.0] MATCHING 'pizza'",
    # degrees spelling of a sector
    "SELECT 4 NEAR (500.0, 500.0) HEADING [45 DEG, 135 DEG] "
    "MATCHING 'bank'",
    # radius cap
    "SELECT 20 NEAR (500.0, 500.0) MATCHING 'hotel' WITHIN 300.0",
    # query point outside the dataset extent
    "SELECT 5 NEAR (-250.0, 1500.0) HEADING [5.0, 7.0] MATCHING 'park'",
]


def rows(outcome):
    return [(e.poi_id, e.distance) for e in outcome.entries]


def direct_rows(searcher, statement):
    """The oracle: the parsed plan run straight through the API."""
    plan = parse(statement)
    result = searcher.search(plan.query())
    entries = [(e.poi_id, e.distance) for e in result.entries]
    if plan.within is not None:
        entries = [(p, d) for p, d in entries if d <= plan.within]
    return entries


@pytest.fixture(scope="module")
def engine(index):
    from repro.service import QueryEngine

    with QueryEngine(index, num_workers=2) as eng:
        yield eng


@pytest.fixture(scope="module")
def socket_executor(index):
    from repro.net import RemoteShardClient, ShardServer

    server = ShardServer(index, num_workers=2).start()
    client = RemoteShardClient(server.address)
    yield DqlExecutor(SocketBackend(client))
    client.close()
    server.stop()


class TestEquivalence:
    @pytest.mark.parametrize("statement", CORPUS)
    def test_direct_vs_inproc_vs_socket(self, statement, searcher, engine,
                                        socket_executor):
        oracle = direct_rows(searcher, statement)
        via_engine = DqlExecutor(EngineBackend(engine)).execute(statement)
        via_socket = socket_executor.execute(statement)
        assert rows(via_engine) == oracle, statement
        assert rows(via_socket) == oracle, statement

    def test_modes_agree_with_each_other(self, searcher, engine):
        # A mode changes effort, never answers: SELECT takes none.
        executor = DqlExecutor(EngineBackend(engine))
        base = "SELECT 6 NEAR (400.0, 600.0) HEADING [2.0, 5.0] " \
               "MATCHING 'pizza'"
        query = parse(base).query()
        answers = {mode: [(e.poi_id, e.distance)
                          for e in searcher.search(query, mode).entries]
                   for mode in PruningMode}
        assert answers[PruningMode.RD] == answers[PruningMode.R] == \
            answers[PruningMode.D]
        assert rows(executor.execute(base)) == answers[PruningMode.RD]
        with pytest.raises(DqlSyntaxError, match="MODE"):
            executor.execute(base + " MODE R")

    def test_render_and_reparse_same_answers(self, engine):
        executor = DqlExecutor(EngineBackend(engine))
        for statement in CORPUS:
            plan = parse(statement)
            assert rows(executor.execute(plan)) == \
                rows(executor.execute(plan.render())), statement


class TestEnvelope:
    def test_search_outcome_shape(self, engine):
        outcome = DqlExecutor(EngineBackend(engine)).execute(CORPUS[0])
        assert isinstance(outcome, StatementOutcome)
        assert outcome.kind == "search"
        assert outcome.backend == "engine"
        assert outcome.statement == parse(CORPUS[0]).render()
        assert len(outcome.entries) == 5

    def test_render_is_deterministic(self, engine):
        executor = DqlExecutor(EngineBackend(engine))
        first = executor.execute(CORPUS[0]).render()
        second = executor.execute(CORPUS[0]).render()
        assert first == second
        assert first.startswith("-- SELECT 5")
        assert "rows: 5" in first

    def test_to_dict_carries_volatile_fields(self, engine):
        outcome = DqlExecutor(EngineBackend(engine)).execute(CORPUS[0])
        data = outcome.to_dict()
        assert data["kind"] == "search"
        assert "latency_seconds" in data
        assert len(data["rows"]) == 5

    def test_within_filter_inclusive(self, engine):
        executor = DqlExecutor(EngineBackend(engine))
        outcome = executor.execute(
            "SELECT 50 NEAR (500.0, 500.0) MATCHING 'cafe'")
        assert outcome.entries, "corpus index has cafes"
        boundary = outcome.entries[0].distance
        capped = executor.execute(
            f"SELECT 50 NEAR (500.0, 500.0) MATCHING 'cafe' "
            f"WITHIN {boundary!r}")
        assert capped.entries[0].distance == boundary  # <=, not <

    def test_timeout_yields_partial_not_error(self, engine):
        executor = DqlExecutor(EngineBackend(engine))
        outcome = executor.execute(
            "SELECT 10 NEAR (500.0, 500.0) MATCHING 'cafe' "
            "TIMEOUT 0.000001")
        assert outcome.kind == "search"  # partial or complete, never raise

    def test_budget_combines_with_plan_timeout(self, engine):
        executor = DqlExecutor(EngineBackend(engine))
        outcome = executor.execute(CORPUS[0], budget=1e-9)
        assert outcome.kind == "search"


class TestShowAndExplain:
    def test_show_shards_single_pseudo_shard(self, engine):
        outcome = DqlExecutor(EngineBackend(engine)).execute("SHOW SHARDS")
        assert outcome.table["shards.total"] == 1.0
        assert outcome.table["shard.0.pois"] == 400.0

    def test_show_metrics_engine_counts_queries(self, engine):
        executor = DqlExecutor(EngineBackend(engine))
        executor.execute(CORPUS[0])
        outcome = executor.execute("SHOW METRICS")
        assert outcome.table["queries_total"] >= 1.0

    def test_explain_reconciles(self, engine):
        outcome = DqlExecutor(EngineBackend(engine)).execute(
            "EXPLAIN " + CORPUS[1])
        assert outcome.kind == "text"
        assert "reconciliation (OK)" in outcome.text

    def test_explain_over_socket_matches_local(self, engine,
                                               socket_executor):
        statement = "EXPLAIN " + CORPUS[3]
        local = DqlExecutor(EngineBackend(engine)).execute(statement)
        remote = socket_executor.execute(statement)
        assert "reconciliation (OK)" in remote.text
        # Span timings differ run to run; the plan section must not.
        assert plan_section(local.text) == plan_section(remote.text)


class TestUnreconciledExplain:
    """An EXPLAIN whose span counters disagree with the search's own is
    an error on every surface, never a report that prints ``MISMATCH``."""

    STATEMENT = "EXPLAIN " + CORPUS[1]

    @pytest.fixture()
    def miscounted(self, monkeypatch):
        import repro.lang.executor as executor_mod

        real = executor_mod.explain

        def explain(*args, **kwargs):
            report = real(*args, **kwargs)
            report.reconciliation[0]["match"] = False
            return report

        monkeypatch.setattr(executor_mod, "explain", explain)

    def test_executor_raises(self, engine, miscounted):
        with pytest.raises(DqlExecutionError, match="do not reconcile"):
            DqlExecutor(EngineBackend(engine)).execute(self.STATEMENT)

    def test_statement_frame_is_internal(self, index, miscounted):
        from repro.net import ErrorCode, RemoteShardClient, RpcError, \
            ShardServer

        server = ShardServer(index, num_workers=2).start()
        try:
            with RemoteShardClient(server.address) as client:
                with pytest.raises(RpcError) as info:
                    client.execute_statement(self.STATEMENT)
        finally:
            server.stop()
        assert info.value.code is ErrorCode.INTERNAL
        assert "do not reconcile" in str(info.value)


class TestExplainThroughEngine:
    """``EXPLAIN`` through an engine reports what that engine does for the
    statement right now, over the grid its index was built with."""

    def test_mutable_index_names_its_grid(self, collection):
        from repro.core import DesksIndex, MutableDesksIndex
        from repro.service import QueryEngine

        index = DesksIndex(collection, num_bands=3, num_wedges=5,
                           disk_based=True)
        with QueryEngine(MutableDesksIndex.from_static(index)) as engine:
            text = DqlExecutor(EngineBackend(engine)).execute(
                "EXPLAIN " + CORPUS[0]).text
        assert "index: 3 bands x 5 wedges per anchor (disk-based)" in text

    def test_explain_after_select_reads_the_memo(self, index):
        from repro.service import QueryEngine

        with QueryEngine(index) as engine:
            executor = DqlExecutor(EngineBackend(engine))
            executor.execute(CORPUS[0])
            selected = executor.execute("EXPLAIN " + CORPUS[0]).text
            unseen = executor.execute("EXPLAIN " + CORPUS[2]).text
        assert "access_path=memo" in selected
        assert "reconciliation (OK)" in selected
        assert "access_path=memo" not in unseen

    def test_explain_after_compaction_reads_the_carried_memo(self,
                                                              collection):
        from repro.core import MutableDesksIndex
        from repro.service import QueryEngine

        index = MutableDesksIndex(collection, num_bands=4, num_wedges=6)
        with QueryEngine(index) as engine:
            executor = DqlExecutor(EngineBackend(engine))
            executor.execute(CORPUS[0])
            index.insert(510.0, 505.0, ["cafe"])
            assert index.compact()
            text = executor.execute("EXPLAIN " + CORPUS[0]).text
        assert "access_path=memo" in text
        assert "reconciliation (OK)" in text


def plan_section(text):
    lines = text.splitlines()
    return lines[:next(i for i, line in enumerate(lines)
                       if line.startswith("spans:"))]


class TestErrors:
    def test_syntax_error_passes_through(self, engine):
        executor = DqlExecutor(EngineBackend(engine))
        with pytest.raises(DqlSyntaxError):
            executor.execute("SELEKT 1")

    def test_backend_failure_wrapped(self):
        class Exploding:
            def select(self, plan, budget=None):
                raise RuntimeError("boom")

        executor = DqlExecutor(Exploding())
        with pytest.raises(DqlExecutionError, match="RuntimeError: boom"):
            executor.execute("SELECT 1 NEAR (0, 0) MATCHING 'cafe'")

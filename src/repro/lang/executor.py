"""Bind DQL plans to a backend and execute them uniformly.

One seam: a :class:`DqlExecutor` takes *any*
backend object and turns every statement form into one
:class:`StatementOutcome` envelope.  Three backend adapters ship here —

* :class:`EngineBackend` — a ``repro.service.QueryEngine`` (cache,
  deadlines, metrics; ``TIMEOUT`` becomes the engine deadline);
* :class:`RouterBackend` — a ``repro.cluster.ShardRouter``
  (scatter-gather; ``SHOW SHARDS`` reports the real layout);
* :class:`SocketBackend` — anything with ``execute_statement(text,
  budget)`` (``repro.net.RemoteShardClient``), shipping the *canonical
  statement text* across the wire;

— but none of them import the serving/cluster/net packages: the adapter
holds whatever object the caller constructed and speaks to it through
its public methods (lint rule DAL010 holds this package to imports of
``geometry``/``text``/``core``/``trace`` only).  That is what lets one
executor run the same statement against an in-process engine and a
server across a socket and return bit-identical entries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple, Union

from ..core import ResultEntry
from ..trace import explain
from .errors import DqlError, DqlExecutionError
from .parser import parse
from .plan import ExplainPlan, Plan, SelectPlan, ShowPlan


@dataclass(frozen=True)
class StatementOutcome:
    """One executed statement, whatever its form or backend.

    ``kind`` is ``"search"`` (a ``SELECT``: ``entries`` holds the
    answers), ``"table"`` (a ``SHOW``: ``table`` holds a flat ``name ->
    float`` map), or ``"text"`` (an ``EXPLAIN``: ``text`` holds the
    report).  ``latency_seconds`` is informational and deliberately
    excluded from :meth:`render`.
    """

    statement: str
    kind: str
    backend: str = ""
    entries: Tuple[ResultEntry, ...] = ()
    partial: bool = False
    cached: bool = False
    generation: int = 0
    table: Dict[str, float] = field(default_factory=dict)
    text: str = ""
    latency_seconds: float = 0.0

    def render(self) -> str:
        """Text form without ``latency_seconds``, ``cached`` or
        ``generation``: deterministic for a ``SELECT`` or ``SHOW SHARDS``
        on a fixed index, so CLI tests can golden-file it.  An
        ``EXPLAIN``'s text carries its span timings and ``seconds=``."""
        lines = [f"-- {self.statement}"]
        if self.kind == "search":
            lines.append(f"rows: {len(self.entries)}"
                         + (" (partial)" if self.partial else ""))
            lines.extend(f"  poi={entry.poi_id} distance={entry.distance!r}"
                         for entry in self.entries)
        elif self.kind == "table":
            lines.extend(f"  {name} = {self.table[name]:g}"
                         for name in sorted(self.table))
        else:
            lines.extend(self.text.splitlines())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (includes the volatile fields render omits)."""
        out: Dict[str, Any] = {
            "statement": self.statement,
            "kind": self.kind,
            "backend": self.backend,
            "latency_seconds": self.latency_seconds,
        }
        if self.kind == "search":
            out["rows"] = [{"poi_id": entry.poi_id,
                            "distance": entry.distance}
                           for entry in self.entries]
            out["partial"] = self.partial
            out["cached"] = self.cached
            out["generation"] = self.generation
        elif self.kind == "table":
            out["table"] = dict(sorted(self.table.items()))
        else:
            out["text"] = self.text
        return out


def _combine(*budgets: Optional[float]) -> Optional[float]:
    """The tightest of several optional second budgets."""
    live = [budget for budget in budgets if budget is not None]
    return min(live) if live else None


def _flatten_metrics(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """A ``MetricsRegistry.to_dict`` snapshot as one flat float map."""
    table: Dict[str, float] = {
        "uptime_seconds": float(snapshot.get("uptime_seconds", 0.0))}
    for name, value in snapshot.get("counters", {}).items():
        table[name] = float(value)
    for name, summary in snapshot.get("histograms", {}).items():
        for stat in ("count", "mean", "p50", "p95", "p99", "max"):
            if stat in summary:
                table[f"{name}.{stat}"] = float(summary[stat])
    return table


def _shard_rows(shard_id: int, population: int, mbr) -> Dict[str, float]:
    rows = {f"shard.{shard_id}.pois": float(population)}
    if mbr is not None:
        rows[f"shard.{shard_id}.min_x"] = float(mbr.min_x)
        rows[f"shard.{shard_id}.min_y"] = float(mbr.min_y)
        rows[f"shard.{shard_id}.max_x"] = float(mbr.max_x)
        rows[f"shard.{shard_id}.max_y"] = float(mbr.max_y)
    return rows


class EngineBackend:
    """Plans against a ``repro.service.QueryEngine`` (duck-typed).

    ``TIMEOUT`` becomes the engine's cooperative deadline.  ``EXPLAIN``
    runs under its ``MODE`` and fails unless its span counters reconcile.
    ``SHOW METRICS`` flattens the engine's registry.
    """

    name = "engine"

    def __init__(self, engine) -> None:
        self.engine = engine

    def select(self, plan: SelectPlan,
               budget: Optional[float] = None) -> StatementOutcome:
        """Serve one ``SELECT`` through the engine (cache + deadline)."""
        limit = _combine(plan.timeout_seconds(), budget)
        response = self.engine.execute(plan.query(), timeout=limit)
        return StatementOutcome(
            statement=plan.render(), kind="search", backend=self.name,
            entries=tuple(response.result.entries),
            partial=response.result.partial, cached=response.cached,
            generation=response.generation,
            latency_seconds=response.latency_seconds)

    def explain(self, plan: ExplainPlan) -> StatementOutcome:
        """Full ``explain()`` through the engine's index: what the engine
        does for the statement right now (``access_path=memo`` once its
        snapshot cache holds the answer).

        Raises :class:`~repro.lang.DqlExecutionError` when a span total
        disagrees with its independent counter: the trace would be
        misattributing cost.
        """
        report = explain(self.engine.index, plan.target.query(),
                         mode=plan.mode)
        if not report.reconciled:
            raise DqlExecutionError(
                "span counters do not reconcile with SearchStats/IOStats: "
                + ", ".join(f"{row['quantity']} span={row['span']} "
                            f"independent={row['independent']}"
                            for row in report.reconciliation
                            if not row["match"]),
                statement=plan.render())
        return StatementOutcome(
            statement=plan.render(), kind="text", backend=self.name,
            text=report.render())

    def show(self, plan: ShowPlan) -> StatementOutcome:
        """Engine metrics, or its index as a single pseudo-shard."""
        if plan.target == "SHARDS":
            collection = self.engine.index.collection
            table = {"shards.total": 1.0}
            table.update(_shard_rows(0, len(collection), collection.mbr))
        else:
            table = _flatten_metrics(self.engine.metrics.to_dict())
            table["generation"] = float(self.engine.generation)
        return StatementOutcome(statement=plan.render(), kind="table",
                                backend=self.name, table=table)


class RouterBackend:
    """Plans against a ``repro.cluster.ShardRouter`` (duck-typed).

    ``EXPLAIN`` is plan-only here: the scatter-gather's work happens in
    many shard searches (possibly in other processes), so there is no
    single span tree to reconcile — the report shows the logical plan
    plus the router's pruning/ordering decisions instead.
    """

    name = "router"

    def __init__(self, router) -> None:
        self.router = router

    def select(self, plan: SelectPlan,
               budget: Optional[float] = None) -> StatementOutcome:
        """Scatter-gather one ``SELECT`` across the shards."""
        limit = _combine(plan.timeout_seconds(), budget)
        response = self.router.execute(plan.query(), timeout=limit)
        return StatementOutcome(
            statement=plan.render(), kind="search", backend=self.name,
            entries=tuple(response.result.entries),
            partial=response.result.partial,
            latency_seconds=response.latency_seconds)

    def explain(self, plan: ExplainPlan) -> StatementOutcome:
        """The logical plan plus shard pruning/ordering decisions."""
        target = plan.target
        survivors, keyword_pruned, sector_pruned = \
            self.router.plan(target.query())
        lines = ["cluster plan (no single-search reconciliation across "
                 "shards):"]
        lines.extend(target.describe())
        lines.append(
            f"  shards: total={self.router.num_shards} "
            f"survivors={len(survivors)} "
            f"keyword_pruned={keyword_pruned} "
            f"sector_pruned={sector_pruned}")
        lines.extend(
            f"  dispatch shard={shard.spec.shard_id} "
            f"mindist={mindist:.6f}" for mindist, shard in survivors)
        return StatementOutcome(
            statement=plan.render(), kind="text", backend=self.name,
            text="\n".join(lines))

    def show(self, plan: ShowPlan) -> StatementOutcome:
        """Cluster metrics, or one row-group per shard."""
        if plan.target == "SHARDS":
            table = {"shards.total": float(self.router.num_shards)}
            for shard in self.router.shards:
                spec = shard.spec
                table.update(_shard_rows(spec.shard_id, len(spec),
                                         spec.mbr))
        else:
            table = _flatten_metrics(self.router.metrics.to_dict())
        return StatementOutcome(statement=plan.render(), kind="table",
                                backend=self.name, table=table)


class SocketBackend:
    """Plans shipped as statement text to a remote server.

    ``client`` is anything with ``execute_statement(statement, budget)
    -> result`` where the result carries ``kind`` plus the matching
    payload (``repro.net.RemoteShardClient`` and the decoded
    ``RemoteStatementResult``).  The *server* runs the real executor;
    this adapter only converts the decoded frame back into the uniform
    envelope.
    """

    name = "socket"

    def __init__(self, client) -> None:
        self.client = client

    def _call(self, statement: str,
              budget: Optional[float] = None) -> StatementOutcome:
        remote = self.client.execute_statement(statement, budget)
        if remote.kind == "search":
            search = remote.search
            return StatementOutcome(
                statement=remote.statement, kind="search",
                backend=self.name,
                entries=tuple(search.result.entries),
                partial=search.result.partial, cached=search.cached,
                generation=search.generation,
                latency_seconds=search.server_latency)
        if remote.kind == "table":
            return StatementOutcome(
                statement=remote.statement, kind="table",
                backend=self.name, table=dict(remote.table))
        return StatementOutcome(
            statement=remote.statement, kind="text", backend=self.name,
            text=remote.text)

    def select(self, plan: SelectPlan,
               budget: Optional[float] = None) -> StatementOutcome:
        """Send the canonical ``SELECT`` text; decode the answer."""
        return self._call(plan.render(),
                          _combine(plan.timeout_seconds(), budget))

    def explain(self, plan: ExplainPlan) -> StatementOutcome:
        """Send ``EXPLAIN ...``; the server renders the report."""
        return self._call(plan.render())

    def show(self, plan: ShowPlan) -> StatementOutcome:
        """Send ``SHOW ...``; the server tabulates its own state."""
        return self._call(plan.render())


class DqlExecutor:
    """Parse (when needed) and execute statements against one backend.

    Repeated statement texts hit a bounded prepared-plan cache: plans
    are frozen (and memoize their derived query), so caching the parse
    is safe and turns the serving hot path — the same statements
    arriving over and over — into one dict probe instead of a
    tokenize/parse/validate pass per request (the ``BENCH_lang``
    overhead gate measures exactly this).
    """

    #: Prepared-plan cache bound; old entries evict in insertion order.
    PLAN_CACHE_SIZE = 256

    def __init__(self, backend) -> None:
        self.backend = backend
        self._plans: Dict[str, Plan] = {}
        self._plans_lock = threading.Lock()

    def prepare(self, statement: str) -> Plan:
        """The frozen plan of ``statement``, parsed at most once.

        Raises :class:`~repro.lang.DqlSyntaxError` for unparseable text.
        """
        plan = self._plans.get(statement)
        if plan is None:
            plan = parse(statement)
            with self._plans_lock:
                if len(self._plans) >= self.PLAN_CACHE_SIZE:
                    self._plans.pop(next(iter(self._plans)))
                self._plans[statement] = plan
        return plan

    def execute(self, statement: Union[str, Plan],
                budget: Optional[float] = None) -> StatementOutcome:
        """One statement (text or plan) in, one envelope out.

        Raises :class:`~repro.lang.DqlSyntaxError` for unparseable text
        and :class:`~repro.lang.DqlExecutionError` when the backend
        fails; nothing else escapes.
        """
        plan = self.prepare(statement) if isinstance(statement, str) \
            else statement
        try:
            if isinstance(plan, SelectPlan):
                outcome = self.backend.select(plan, budget)
                if plan.within is not None:
                    # Inclusive radius cap.  Filtering again on the local
                    # side is idempotent, so a socket backend whose server
                    # already applied it returns unchanged entries.
                    outcome = replace(outcome, entries=tuple(
                        entry for entry in outcome.entries
                        if entry.distance <= plan.within))
            elif isinstance(plan, ExplainPlan):
                outcome = self.backend.explain(plan)
            elif isinstance(plan, ShowPlan):
                outcome = self.backend.show(plan)
            else:
                raise DqlExecutionError(
                    f"not an executable plan: {plan!r}")
        except DqlError:
            raise
        except Exception as exc:
            raise DqlExecutionError(
                f"{type(exc).__name__}: {exc}",
                statement=plan.render()) from exc
        return outcome

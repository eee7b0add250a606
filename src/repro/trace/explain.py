"""``EXPLAIN ANALYZE`` for DESKS queries.

:func:`explain` runs one query under a fresh :class:`~repro.trace.Tracer`
and packages three views of it into an :class:`ExplainReport`:

* **plan** — what the searcher will do before touching data: the quadrant
  decomposition of the direction interval (paper Sec. IV-B), which pruning
  lemmas are armed, and the index shape (bands × wedges per anchor);
* **actuals** — what it did: which access path answered (``postings``:
  the keywords' POI lists were verified whole; ``regions``: Algorithms
  1-2; ``memo``: a mutable index's static index had answered the same
  static query before, or the last rebuild carried its answer, and no
  indexed search ran) next to the two cost
  estimates it was chosen by (``walk_cost``, ``region_cost``, in
  estimated microseconds; the walk is also taken
  without asking when the lists hold at most ``N x M`` postings; see
  :meth:`repro.core.DesksSearcher.access_costs`), bands scanned vs
  skipped by Lemma 1,
  sub-regions window-pruned (Lemmas 2-4) vs MINDIST-pruned, the
  planner's exact count of keyword ``holders`` beside the POIs fetched
  (equal on the walk path) and verified, logical page reads, the full
  span tree;
* **reconciliation** — the span totals checked *exactly* against the
  :class:`~repro.storage.SearchStats` / :class:`~repro.storage.IOStats`
  counters of the very same search, summed over ``desks.search`` and — on
  a mutable index with pending inserts — ``desks.delta``.  A mismatch
  means the tracer is lying about where cost went, so tests assert
  ``report.reconciled``; it holds for deadline-cut (partial) results too.

Imports of :mod:`repro.core` are deferred into the function bodies:
``repro.core.search`` imports :mod:`repro.trace.spans`, so a module-level
import here would be circular.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .spans import Tracer

#: ``span total -> SearchStats counter`` pairs checked by reconciliation.
RECONCILED_COUNTERS = (
    ("pois_fetched", "pois_examined"),
    ("pois_verified", "candidates_verified"),
    ("subregions_examined", "subregions_examined"),
    ("bands_scanned", "regions_examined"),
)


@dataclass
class ExplainReport:
    """Structured plan/actuals/reconciliation for one explained query.

    ``trace`` keeps the live :class:`~repro.trace.Tracer`; everything else
    is plain dicts/lists ready for JSON.
    """

    query: Dict[str, Any]
    mode: str
    plan: Dict[str, Any]
    actuals: Dict[str, Any]
    reconciliation: List[Dict[str, Any]]
    results: List[Dict[str, Any]]
    trace: Tracer

    @property
    def reconciled(self) -> bool:
        """True when every span total matched its independent counter."""
        return all(row["match"] for row in self.reconciliation)

    def to_dict(self) -> Dict[str, Any]:
        """The whole report as one JSON-ready dict (trace included)."""
        return {
            "query": self.query,
            "mode": self.mode,
            "plan": self.plan,
            "actuals": self.actuals,
            "reconciliation": self.reconciliation,
            "reconciled": self.reconciled,
            "results": self.results,
            "trace": self.trace.to_dict(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable report: plan, span tree, actuals, reconciliation."""
        lines = [
            f"EXPLAIN {self.query['keywords']} k={self.query['k']} "
            f"interval=[{self.query['interval'][0]:.4f}, "
            f"{self.query['interval'][1]:.4f}] mode={self.mode}",
            "plan:",
        ]
        pruning = self.plan["pruning"]
        lines.append(
            f"  pruning: region(Lemma 1)={'on' if pruning['region'] else 'off'}"
            f" direction(Lemmas 2-4)={'on' if pruning['direction'] else 'off'}")
        lines.append(
            f"  index: {self.plan['index']['num_bands']} bands x "
            f"{self.plan['index']['num_wedges']} wedges per anchor"
            + (" (disk-based)" if self.plan["index"]["disk_based"] else ""))
        for sub in self.plan["subqueries"]:
            lines.append(
                f"  subquery quadrant={sub['quadrant']} interval="
                f"[{sub['interval'][0]:.4f}, {sub['interval'][1]:.4f}]")
        lines.append("spans:")
        lines.extend("  " + line for line in self.trace.render().splitlines())
        lines.append("actuals:")
        for key, value in self.actuals.items():
            lines.append(f"  {key}={value}")
        lines.append("reconciliation ("
                     + ("OK" if self.reconciled else "MISMATCH") + "):")
        for row in self.reconciliation:
            status = "ok" if row["match"] else "MISMATCH"
            lines.append(
                f"  {row['quantity']}: span={row['span']} "
                f"independent={row['independent']} [{status}]")
        return "\n".join(lines)


def explain(index, query, mode=None) -> ExplainReport:
    """Run ``query`` against ``index`` traced, and account for every cost.

    ``index`` is a :class:`~repro.core.DesksIndex` (or anything exposing a
    compatible ``search``/``io_stats``).  ``mode`` is a
    :class:`~repro.core.PruningMode` or its name (``"R"``/``"D"``/``"RD"``,
    default ``RD``).

    The search runs once, with a fresh tracer active and an independent
    :class:`~repro.storage.SearchStats`; the report's reconciliation
    section proves the span tree accounts for exactly the pages and
    pruning work the counters saw.
    """
    from ..core.search import DesksSearcher, PruningMode, price
    from ..storage import SearchStats

    if mode is None:
        mode = PruningMode.RD
    elif isinstance(mode, str):
        mode = PruningMode[mode]

    searcher = (index if isinstance(index, DesksSearcher)
                else DesksSearcher(getattr(index, "static_index", index)))
    search = getattr(index, "search", searcher.search)
    terms = searcher.cost_terms(query)
    costs = (None, None) if terms is None else price(terms)
    io_stats = getattr(index, "io_stats", None)
    if io_stats is None:
        io_stats = getattr(getattr(index, "index", None), "io_stats", None)

    stats = SearchStats()
    tracer = Tracer()
    io_before = io_stats.snapshot() if io_stats is not None else None
    with tracer.activate():
        result = search(query, mode=mode, stats=stats)
    io_delta = (io_before.delta(io_stats.snapshot())
                if io_before is not None else None)

    root = tracer.find("desks.search")
    attrs = root.attrs if root is not None else {}
    # A mutable index scans its delta buffer outside the indexed search;
    # the counters the search saw are the sum over both spans.
    spans = tracer.find_all("desks.search") + tracer.find_all("desks.delta")

    def total(key: str) -> int:
        return sum(span.attrs.get(key, 0) for span in spans)

    reconciliation = [
        _row(span_key, total(span_key), getattr(stats, stats_key))
        for span_key, stats_key in RECONCILED_COUNTERS
    ]
    if io_delta is not None:
        reconciliation.append(_row(
            "pages_read", total("pages_read"), io_delta.logical_reads))

    actuals = {
        # The searcher chooses per query; the span tree is the record.
        "access_path": _access_path(tracer),
        # What it weighed (estimated microseconds), floor path included.
        "walk_cost": costs[0],
        "region_cost": costs[1],
        "seconds": root.seconds if root is not None else 0.0,
        "results": len(result),
        "partial": result.partial,
        "terminated_early": attrs.get("terminated_early", False),
        "bands_scanned": total("bands_scanned"),
        "bands_skipped_lemma1": total("bands_skipped_lemma1"),
        "subregions_examined": total("subregions_examined"),
        "subregions_pruned": total("subregions_pruned"),
        "mindist_evaluations": total("mindist_evaluations"),
        # The planner's count of keyword holders: on the walk path, the
        # POIs fetched.
        "holders": 0 if terms is None else terms.holders,
        "pois_fetched": total("pois_fetched"),
        "pois_verified": total("pois_verified"),
        "pages_read": total("pages_read"),
        "distance_computations": stats.distance_computations,
    }
    if io_delta is not None:
        actuals["physical_reads"] = io_delta.physical_reads
        actuals["cache_hits"] = io_delta.cache_hits

    return ExplainReport(
        query=_query_summary(query),
        mode=mode.name,
        plan=_plan(index, query, mode),
        actuals=actuals,
        reconciliation=reconciliation,
        results=[{"poi_id": e.poi_id, "distance": e.distance}
                 for e in result],
        trace=tracer,
    )


def _access_path(tracer: Tracer) -> str:
    if tracer.find("desks.memo") is not None:
        return "memo"
    if tracer.find("desks.postings") is not None:
        return "postings"
    return "regions"


def _row(quantity: str, span_value, independent_value) -> Dict[str, Any]:
    return {
        "quantity": quantity,
        "span": int(span_value),
        "independent": int(independent_value),
        "match": int(span_value) == int(independent_value),
    }


def _query_summary(query) -> Dict[str, Any]:
    return {
        "location": [query.location.x, query.location.y],
        "interval": [query.interval.lower, query.interval.upper],
        "keywords": sorted(query.keywords),
        "k": query.k,
        "match_mode": query.match_mode.value,
    }


def _plan(index, query, mode) -> Dict[str, Any]:
    # A mutable index names its grid through its static index, a
    # searcher through the index it searches.
    inner = getattr(index, "static_index", getattr(index, "index", index))
    return {
        "pruning": {"region": mode.region, "direction": mode.direction},
        "index": {
            "num_bands": getattr(inner, "num_bands", None),
            "num_wedges": getattr(inner, "num_wedges", None),
            "disk_based": bool(getattr(inner, "disk_based", False)),
        },
        "subqueries": [
            {"quadrant": quadrant,
             "interval": [piece.lower, piece.upper]}
            for quadrant, piece in query.basic_subqueries()
        ],
    }

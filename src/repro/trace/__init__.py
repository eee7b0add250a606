"""repro.trace — per-query span tracing and EXPLAIN.

The aggregate metrics in :mod:`repro.service` say how the system is doing;
this package says where *one query* spent its time and I/O.  A
:class:`Tracer` activated around any entry point — a raw
:meth:`~repro.core.DesksSearcher.search`, a
:meth:`~repro.service.QueryEngine.execute`, a whole
:meth:`~repro.cluster.ShardRouter.execute` scatter-gather — collects a
span tree from every instrumented layer it passes through, with page
reads and pruning decisions attributed per stage.  :func:`explain` wraps
one search into a plan/actuals/reconciliation report.

Tracing is per-request opt-in.  When no tracer is active, instrumented
code pays one ``ContextVar`` read and allocates nothing.
"""

from .explain import ExplainReport, explain
from .spans import Span, Tracer, current_span, current_tracer, traced

__all__ = [
    "ExplainReport",
    "Span",
    "Tracer",
    "current_span",
    "current_tracer",
    "explain",
    "traced",
]

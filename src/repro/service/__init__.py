"""The serving layer: concurrent query execution over a DESKS index.

The paper evaluates one query at a time; this package is the reproduction's
first step toward the ROADMAP's production north star.  It adds, without
touching the algorithms' answers:

* :class:`QueryEngine` — a thread-pooled front door with ``submit`` /
  ``submit_batch`` (``engine.py``);
* :class:`ResultCache` — canonical-key LRU caching with generation-based
  invalidation against :class:`~repro.core.MutableDesksIndex`
  (``cache.py``);
* :class:`Deadline` — cooperative per-query budgets with graceful
  degradation to partial results (``deadline.py``);
* :class:`MetricsRegistry` — counters and latency/page-I/O histograms
  (``metrics.py``).

The closed-loop load generator that drives an engine, a socket client or
a router is benchmark tooling: ``benchmarks/closed_loop.py``.

See ``docs/SERVICE.md`` for the architecture and the cache-invalidation
and deadline contracts.
"""

from .cache import CacheStats, ResultCache
from .deadline import Deadline
from .engine import QueryEngine, ServiceResponse
from .metrics import (
    LATENCY_BUCKETS,
    PAGES_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "CacheStats",
    "Counter",
    "Deadline",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "PAGES_BUCKETS",
    "QueryEngine",
    "ResultCache",
    "ServiceResponse",
]

"""Closed-loop load generation against an engine or any issue function.

N client threads each run the classic closed loop: issue a query, wait for
the answer, *think* for a configurable time, repeat.  Think time is what
makes a closed-loop benchmark scale with clients — while one client
thinks, the target serves the others — and it mirrors real interactive
traffic (a map user pans, reads, then queries again).  With zero think
time and a pure-Python (GIL-bound) searcher, adding clients mostly adds
queueing; the serve-bench defaults therefore use a small think time so
client-count sweeps show the expected aggregate-QPS scaling.

The target is a :class:`QueryEngine` (``submit`` / ``submit_batch``,
with cache-hit accounting) or any ``issue(query)`` callable —
``client.search`` over a socket, ``router.execute`` — so every transport
replays the same workload with the same bookkeeping.  Latency is
client-observed, one sample per completed request of *this* run: exact
nearest-rank percentiles, never a histogram shared with earlier runs.

The loop is deterministic given ``seed``: client ``i`` walks the query
list starting at offset ``i`` with stride ``num_clients``, so a repeated
(cache-warm) workload replays exactly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from ..core import DirectionalQuery
from .engine import QueryEngine


@dataclass
class WorkloadReport:
    """Aggregate outcome of one closed-loop run."""

    num_clients: int
    elapsed_seconds: float
    total_queries: int
    per_client_queries: List[int]
    cache_hits: int
    cache_lookups: int
    partial_results: int
    errors: int
    first_error: Optional[str] = None
    #: Exact client-observed latency of this run's completed requests
    #: (seconds): mean/p50/p95/p99/max, plus the sample ``count``.
    latency: Dict[str, float] = field(default_factory=dict)
    #: Requests shed with a caller-declared exception, per type name.
    shed: Dict[str, int] = field(default_factory=dict)

    @property
    def attempts(self) -> int:
        """Requests issued, whatever their outcome."""
        return self.total_queries + sum(self.shed.values()) + self.errors

    @property
    def qps(self) -> float:
        """Aggregate completed queries per wall-clock second."""
        return self.total_queries / max(self.elapsed_seconds, 1e-9)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups that hit (engine targets only)."""
        return self.cache_hits / max(self.cache_lookups, 1)

    def summary(self) -> str:
        """One human-readable line, serve-bench's table row."""
        p95 = self.latency.get("p95", 0.0) * 1000.0
        hit_rate = (f"{self.cache_hit_rate:6.1%}" if self.cache_lookups
                    else "   n/a")
        shed = f"  shed={sum(self.shed.values())}" if self.shed else ""
        return (f"clients={self.num_clients:<3} qps={self.qps:8.1f}  "
                f"hit_rate={hit_rate}  "
                f"p95={p95:7.2f}ms  partial={self.partial_results}  "
                f"errors={self.errors}{shed}")


def _exact_percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted ``samples``."""
    if not samples:
        return 0.0
    rank = -(-q * len(samples) // 100)  # ceil(q/100 * n) via floor-div
    rank = min(len(samples), max(1, int(rank)))
    return samples[rank - 1]


def run_closed_loop(target: Union[QueryEngine,
                                  Callable[[DirectionalQuery], Any]],
                    queries: Sequence[DirectionalQuery],
                    num_clients: int,
                    requests_per_client: Optional[int] = None,
                    duration_seconds: Optional[float] = None,
                    think_time: float = 0.0,
                    batch_size: int = 1,
                    shed_on: Tuple[Type[Exception], ...] = (),
                    ) -> WorkloadReport:
    """Drive ``target`` with ``num_clients`` synchronous client threads.

    Exactly one of ``requests_per_client`` (deterministic, test-friendly)
    or ``duration_seconds`` (wall-clock bound, bench-friendly) must be
    given.  Each client blocks on its own request — the closed loop —
    then sleeps ``think_time`` seconds before the next one.

    ``target`` is a :class:`QueryEngine` or an ``issue(query)`` callable
    whose answer has a truthy/falsy ``partial`` attribute (a deadline is
    the engine's ``default_timeout`` or bound into the callable).

    ``batch_size > 1`` (engine targets only) models batching clients:
    each loop iteration gathers that many consecutive queries from the
    client's stride and issues them as ONE ``engine.submit_batch`` call,
    blocking until the whole batch answers (one think pause, and one
    latency sample per request, per batch).  On a columnar engine this
    is the path that amortises kernel plan construction.

    ``shed_on`` names the exception types that mean "the target shed
    this request, keep going" (``OverloadError``, ``TransportError`` for
    a socket): each is counted under its type name in the report's
    ``shed`` and costs the client one request of its quota.  Any other
    exception stops that client and is reported through ``errors`` /
    ``first_error``.
    """
    if not queries:
        raise ValueError("the workload needs at least one query")
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive: {num_clients}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1: {batch_size}")
    if (requests_per_client is None) == (duration_seconds is None):
        raise ValueError("give exactly one of requests_per_client or "
                         "duration_seconds")
    engine = target if isinstance(target, QueryEngine) else None
    if engine is None and batch_size != 1:
        raise ValueError("batch_size > 1 needs a QueryEngine target")

    def issue(batch: List[DirectionalQuery]) -> List[Any]:
        if engine is None:
            return [target(batch[0])]
        if len(batch) == 1:
            return [engine.submit(batch[0]).result()]
        return [future.result() for future in engine.submit_batch(batch)]

    stop_at = (time.monotonic() + duration_seconds
               if duration_seconds is not None else None)
    # Per-client slots keep the measured path lock-free; sheds and
    # errors share one lock.
    samples: List[List[float]] = [[] for _ in range(num_clients)]
    partials = [0] * num_clients
    shed = {shed_type.__name__: 0 for shed_type in shed_on}
    errors: List[str] = []
    outcome_lock = threading.Lock()
    start_barrier = threading.Barrier(num_clients + 1)

    def client(client_id: int) -> None:
        position = client_id
        issued = 0
        start_barrier.wait()
        while True:
            if requests_per_client is not None and \
                    issued >= requests_per_client:
                break
            if stop_at is not None and time.monotonic() >= stop_at:
                break
            take = batch_size
            if requests_per_client is not None:
                take = min(take, requests_per_client - issued)
            batch = []
            for _ in range(take):
                batch.append(queries[position % len(queries)])
                position += num_clients
            issued += take
            started = time.monotonic()
            try:
                responses = issue(batch)
            except shed_on as exc:
                name = next(shed_type.__name__ for shed_type in shed_on
                            if isinstance(exc, shed_type))
                with outcome_lock:
                    shed[name] += take
                continue
            except Exception as exc:  # desks: noqa-DAL011 - cause reported through the errors list
                with outcome_lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                break
            samples[client_id].extend(
                [time.monotonic() - started] * take)
            for response in responses:
                if getattr(response, "partial", False):
                    partials[client_id] += 1
            if think_time > 0.0:
                time.sleep(think_time)

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"client-{i}", daemon=True)
               for i in range(num_clients)]
    cache_before = engine.cache.stats if engine is not None else None
    for thread in threads:
        thread.start()
    start_barrier.wait()
    started = time.monotonic()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    cache_hits = cache_lookups = 0
    if engine is not None:
        cache_after = engine.cache.stats
        cache_hits = cache_after.hits - cache_before.hits
        cache_lookups = cache_after.lookups - cache_before.lookups

    merged = sorted(s for per_client in samples for s in per_client)
    return WorkloadReport(
        num_clients=num_clients,
        elapsed_seconds=elapsed,
        total_queries=len(merged),
        per_client_queries=[len(per_client) for per_client in samples],
        cache_hits=cache_hits,
        cache_lookups=cache_lookups,
        partial_results=sum(partials),
        errors=len(errors),
        first_error=errors[0] if errors else None,
        latency={
            "count": len(merged),
            "mean": sum(merged) / len(merged) if merged else 0.0,
            "p50": _exact_percentile(merged, 50),
            "p95": _exact_percentile(merged, 95),
            "p99": _exact_percentile(merged, 99),
            "max": merged[-1] if merged else 0.0,
        },
        shed=shed,
    )

"""Closed-loop load generation against any ``issue(query)`` callable.

N client threads each run the classic closed loop: issue a query, wait for
the answer, *think* for a configurable time, repeat.  Think time is what
makes a closed-loop benchmark scale with clients — while one client
thinks, the target serves the others — and it mirrors real interactive
traffic (a map user pans, reads, then queries again).  With zero think
time and a pure-Python (GIL-bound) searcher, adding clients mostly adds
queueing; a client-count sweep therefore uses a small think time to
show the expected aggregate-QPS scaling.

The target is one callable — ``lambda q: engine.submit(q).result()`` for
an engine's pool, ``engine.execute``, ``client.search`` over a socket,
``router.execute`` — so every transport replays the same workload with
the same bookkeeping.  Latency is client-observed, one sample per
completed request of *this* run: exact nearest-rank percentiles, never a
histogram shared with earlier runs.  Cache hits are the engine's to
count: read ``engine.cache.stats`` before and after a run.

The loop is deterministic: client ``i`` walks the query list starting at
offset ``i`` with stride ``num_clients``, so a repeated (cache-warm)
workload replays exactly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.core import DirectionalQuery


@dataclass
class WorkloadReport:
    """Aggregate outcome of one closed-loop run."""

    num_clients: int
    elapsed_seconds: float
    total_queries: int
    per_client_queries: List[int]
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

    def summary(self) -> str:
        """One human-readable line: a client-count sweep's table row."""
        p95 = self.latency.get("p95", 0.0) * 1000.0
        shed = f"  shed={sum(self.shed.values())}" if self.shed else ""
        return (f"clients={self.num_clients:<3} qps={self.qps:8.1f}  "
                f"p95={p95:7.2f}ms  partial={self.partial_results}  "
                f"errors={self.errors}{shed}")


def _exact_percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted ``samples``."""
    if not samples:
        return 0.0
    rank = -(-q * len(samples) // 100)  # ceil(q/100 * n) via floor-div
    rank = min(len(samples), max(1, int(rank)))
    return samples[rank - 1]


def run_closed_loop(target: Callable[[DirectionalQuery], Any],
                    queries: Sequence[DirectionalQuery],
                    num_clients: int,
                    requests_per_client: Optional[int] = None,
                    duration_seconds: Optional[float] = None,
                    think_time: float = 0.0,
                    shed_on: Tuple[Type[Exception], ...] = (),
                    ) -> WorkloadReport:
    """Drive ``target`` with ``num_clients`` synchronous client threads.

    Exactly one of ``requests_per_client`` (deterministic, test-friendly)
    or ``duration_seconds`` (wall-clock bound, bench-friendly) must be
    given.  Each client blocks on its own request — the closed loop —
    then sleeps ``think_time`` seconds before the next one.

    ``target`` is an ``issue(query)`` callable whose answer has a
    truthy/falsy ``partial`` attribute.  A deadline is bound into the
    callable (``partial(engine.execute, timeout=t)``,
    ``partial(client.search, budget=t)``).

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
    if (requests_per_client is None) == (duration_seconds is None):
        raise ValueError("give exactly one of requests_per_client or "
                         "duration_seconds")

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
            query = queries[position % len(queries)]
            position += num_clients
            issued += 1
            started = time.monotonic()
            try:
                response = target(query)
            except shed_on as exc:
                name = next(shed_type.__name__ for shed_type in shed_on
                            if isinstance(exc, shed_type))
                with outcome_lock:
                    shed[name] += 1
                continue
            except Exception as exc:  # reported through errors
                with outcome_lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                break
            samples[client_id].append(time.monotonic() - started)
            if getattr(response, "partial", False):
                partials[client_id] += 1
            if think_time > 0.0:
                time.sleep(think_time)

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"client-{i}", daemon=True)
               for i in range(num_clients)]
    for thread in threads:
        thread.start()
    start_barrier.wait()
    started = time.monotonic()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started

    merged = sorted(s for per_client in samples for s in per_client)
    return WorkloadReport(
        num_clients=num_clients,
        elapsed_seconds=elapsed,
        total_queries=len(merged),
        per_client_queries=[len(per_client) for per_client in samples],
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

"""R-way replication: the one replica health model and the one failover loop.

Each shard is served by ``R`` replicas.  A :class:`Replica` is an
*endpoint* — something that answers one query (see
:mod:`repro.cluster.transport`) — plus the caller's view of its health:
failure counts, the :data:`HEALTH_THRESHOLD` that marks it unhealthy, sticky
corruption quarantine with :meth:`Replica.release`, and an optional
circuit breaker handed in by the caller.

:meth:`FailoverSet.execute` is the only failover driver in the tree.  Per
query it rotates the starting replica, orders the rest healthy-first, and
walks that plan under one :class:`~repro.service.Deadline`: each attempt
receives the *remaining* budget, failover stops once it is spent, and
every attempt after the first must be granted by the retry budget when
one was handed in.  Only when no replica answers does the set raise
:class:`ShardUnavailableError`, which the router reports as a degraded
(partial) answer rather than an error.

:class:`ReplicaSet` is the in-process deployment: one
:class:`EngineEndpoint` per replica, each a private
:class:`~repro.service.QueryEngine` (``RD`` pruning, a
:data:`SHARD_CACHE_CAPACITY`-entry answer cache — what a shard server
runs) whose ``execute`` runs on the thread that called the set — the
thread that called the router, or one of its ``desks-shard`` pool threads
when a wave asks more than one shard.
:class:`~repro.net.RemoteReplicaSet` is the same loop over socket
endpoints, with breakers, a retry budget, hedging and background probes.
Tests make a replica fail by swapping its ``endpoint`` for a
``FaultyEndpoint`` (``benchmarks/chaos_net.py``); nothing here knows
about it.
"""

from __future__ import annotations

import threading
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from ..core import DesksIndex, DirectionalQuery, MutableDesksIndex
from ..service import Deadline, MetricsRegistry, QueryEngine, ServiceResponse
from ..storage import PageCorruptionError
from .transport import ReplicaEndpoint, RequestRejected

#: Result-cache entries of one shard replica's engine — in-process here,
#: and the default of a :class:`~repro.net.ShardServer` process.
SHARD_CACHE_CAPACITY = 128

#: Consecutive failures that mark a replica unhealthy (sorted last in the
#: attempt plan until one success).  Also the default breaker threshold
#: of a :class:`~repro.net.RemoteReplicaSet`, so breaker-open and
#: unhealthy coincide.
HEALTH_THRESHOLD = 3


class ShardUnavailableError(RuntimeError):
    """Every replica of one shard failed for one query."""

    def __init__(self, shard_id: int, attempts: int,
                 last_error: Optional[BaseException]) -> None:
        self.shard_id = shard_id
        self.attempts = attempts
        self.last_error = last_error
        detail = f": {last_error}" if last_error is not None else ""
        super().__init__(
            f"shard {shard_id} unavailable after {attempts} replica "
            f"attempts{detail}")


class EngineEndpoint:
    """A replica served in-process by its own :class:`QueryEngine`.

    Whatever an engine raises is retryable elsewhere: never fatal.
    """

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine

    def call(self, query: DirectionalQuery,
             budget: Optional[float]) -> ServiceResponse:
        return self.engine.execute(query, budget)

    def probe(self, timeout: float) -> bool:
        # Nothing sits between the caller and an in-process engine; its
        # recovery probe is the in-band attempt unhealthy replicas get.
        return True

    def describe(self) -> dict:
        return {}

    def close(self) -> None:
        self.engine.close()


class Replica:
    """One replica: an endpoint plus the caller's view of its health.

    ``breaker`` is optional and duck-typed (``try_acquire``,
    ``record_success``, ``record_failure``, ``state.value`` — in practice
    a :class:`repro.net.CircuitBreaker`, which this package never imports).
    """

    def __init__(self, replica_id: int, endpoint: ReplicaEndpoint,
                 breaker=None) -> None:
        self.replica_id = replica_id
        self.endpoint = endpoint
        self.breaker = breaker
        self.healthy = True
        self.consecutive_failures = 0
        self.total_failures = 0
        #: Set on detected data corruption.  Unlike ``healthy`` (which
        #: recovers on the next successful probe), quarantine is sticky:
        #: a replica serving damaged pages must not be retried until an
        #: operator scrubs/restores it and calls :meth:`release`.
        self.quarantined = False
        self.quarantine_cause: Optional[str] = None
        self._lock = threading.Lock()

    def mark_success(self) -> None:
        """Record a successful request; an unhealthy replica recovers."""
        with self._lock:
            self.consecutive_failures = 0
            self.healthy = True
        if self.breaker is not None:
            self.breaker.record_success()

    def mark_failure(self) -> None:
        """Record a failure; :data:`HEALTH_THRESHOLD` in a row mark it
        unhealthy."""
        with self._lock:
            self.consecutive_failures += 1
            self.total_failures += 1
            if self.consecutive_failures >= HEALTH_THRESHOLD:
                self.healthy = False
        if self.breaker is not None:
            self.breaker.record_failure()

    def quarantine(self, cause: str) -> None:
        """Exclude this replica from dispatch until ``release()`` is called."""
        with self._lock:
            self.quarantined = True
            self.quarantine_cause = cause
            self.healthy = False

    def release(self) -> None:
        """Operator action after repair: healthy, breaker closed, eligible."""
        with self._lock:
            self.quarantined = False
            self.quarantine_cause = None
        self.mark_success()

    @property
    def breaker_state(self) -> str:
        """The breaker's state name; ``"disabled"`` without a breaker."""
        return (self.breaker.state.value if self.breaker is not None
                else "disabled")

    @property
    def breaker_open(self) -> bool:
        """True while the circuit refuses attempts (OPEN, not yet due)."""
        return self.breaker_state == "open"


class FailoverSet:
    """The replicas serving one shard and the loop that fails over across
    them; :class:`ReplicaSet` and :class:`~repro.net.RemoteReplicaSet`
    only decide what the endpoints are."""

    def __init__(self, shard_id: int,
                 members: Sequence[Tuple[ReplicaEndpoint, object]],
                 metrics: Optional[MetricsRegistry],
                 retry_budget=None) -> None:
        """``members`` is one ``(endpoint, breaker or None)`` per replica;
        ``retry_budget`` (duck-typed like the breaker, or ``None``) is
        charged for each attempt after a query's first."""
        if not members:
            raise ValueError(f"shard {shard_id} needs >= 1 replica")
        self.shard_id = shard_id
        self.metrics = metrics
        self.retry_budget = retry_budget
        self.replicas: List[Replica] = [
            Replica(replica_id, endpoint, breaker)
            for replica_id, (endpoint, breaker) in enumerate(members)
        ]
        self._rotation = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.replicas)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment()

    def _note_tokens(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("net_retry_tokens").set(
                self.retry_budget.tokens)

    # -- the failover loop ---------------------------------------------------

    def _attempts(self, deadline: Deadline) -> Iterator[Replica]:
        """The replicas one query may try, in order, each already admitted.

        Healthy first from a rotating start; unhealthy last (transient
        faults heal, so they get recovery probes); quarantined never
        (corruption does not heal by retrying); open circuits left out —
        unless *every* circuit is open, when the rotation is attempted
        past the breakers: a shard degrades through real attempts, never
        wedges behind its own breakers.  Ends when the deadline expires or
        the retry budget refuses an attempt after the first.
        """
        with self._lock:
            start = self._rotation
            self._rotation = (self._rotation + 1) % len(self.replicas)
        rotated = [r for r in (self.replicas[start:] + self.replicas[:start])
                   if not r.quarantined]
        plan = sorted((r for r in rotated if not r.breaker_open),
                      key=lambda r: not r.healthy)
        last_resort = not plan
        retrying = False
        for replica in plan or rotated:
            if deadline.expired():
                return
            if (not last_resort and replica.breaker is not None
                    and not replica.breaker.try_acquire()):
                continue
            if retrying and self.retry_budget is not None:
                allowed = self.retry_budget.try_spend()
                self._count("net_retry_tokens_spent_total" if allowed
                            else "net_retries_denied_total")
                self._note_tokens()
                if not allowed:
                    return
            retrying = True
            yield replica

    def _attempt(self, replica: Replica, query: DirectionalQuery,
                 budget: Optional[float],
                 ) -> Tuple[Optional[ServiceResponse],
                            Optional[BaseException]]:
        """One attempt with its health/metrics bookkeeping: ``(response,
        None)`` when the replica answered, ``(None, cause)`` when it failed.

        The endpoint's fatal verdict re-raises the wrapped error untouched:
        retrying a malformed request anywhere would fail identically, and
        one bad query must not poison every replica's health.
        """
        try:
            response = replica.endpoint.call(query, budget)
        except RequestRejected as exc:
            raise exc.error from None
        except PageCorruptionError as exc:
            self._quarantine(replica, str(exc))
            return None, exc
        except Exception as exc:  # desks: noqa-DAL011 - converted to failover; cause kept in last_error
            replica.mark_failure()
            self._count("cluster_replica_failures_total")
            return None, exc
        if response.degraded:
            # The engine already caught the corruption and refused to
            # answer; treat it exactly like the raised form — park the
            # replica and fail over to one with intact pages.
            cause = response.failure_cause or "degraded response"
            self._quarantine(replica, cause)
            return None, PageCorruptionError(-1, cause, None)
        replica.mark_success()
        if self.retry_budget is not None:
            self.retry_budget.record_success()
            self._note_tokens()
        return response, None

    def execute(self, query: DirectionalQuery,
                timeout: Optional[float] = None,
                ) -> Tuple[ServiceResponse, int]:
        """Serve ``query``, failing over across replicas.

        Returns ``(response, retries)`` where ``retries`` counts failed
        attempts before the one that succeeded.  Raises
        :class:`ShardUnavailableError` when every replica fails, when the
        retry budget refuses further attempts, or when ``timeout``
        expires mid-failover; each attempt gets the budget still left.
        """
        deadline = Deadline.from_timeout(timeout)
        last_error: Optional[BaseException] = None
        attempts = 0
        for replica in self._attempts(deadline):
            attempts += 1
            response, last_error = self._attempt(replica, query,
                                                 deadline.budget())
            if response is not None:
                return response, attempts - 1
        raise ShardUnavailableError(self.shard_id, attempts, last_error)

    def _quarantine(self, replica: Replica, cause: str) -> None:
        replica.quarantine(cause)
        self._count("cluster_replicas_quarantined_total")

    # -- inspection / shutdown -----------------------------------------------

    def quarantined_replicas(self) -> List[int]:
        """Replica ids currently parked for corruption."""
        return [r.replica_id for r in self.replicas if r.quarantined]

    def health_summary(self) -> List[dict]:
        """Per-replica health for stats/CLI output."""
        return [
            {
                "replica_id": r.replica_id,
                "healthy": r.healthy,
                "consecutive_failures": r.consecutive_failures,
                "total_failures": r.total_failures,
                "breaker": r.breaker_state,
                **r.endpoint.describe(),
            }
            for r in self.replicas
        ]

    def close(self) -> None:
        """Close every replica's endpoint."""
        for replica in self.replicas:
            replica.endpoint.close()


class ReplicaSet(FailoverSet):
    """R in-process replicas of one shard: a private engine each."""

    def __init__(self, shard_id: int,
                 index: Union[DesksIndex, MutableDesksIndex],
                 replication: int,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        # Replicas share the shard's (read-only) index; each gets a private
        # engine so caches and per-replica metrics stay independent, as
        # they would be on separate machines.
        super().__init__(shard_id, [
            (EngineEndpoint(QueryEngine(
                index, num_workers=1, cache_capacity=SHARD_CACHE_CAPACITY)),
             None)
            for _ in range(replication)
        ], metrics)

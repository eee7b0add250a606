"""Client-side resilience primitives for the RPC layer.

Three mechanisms, composable and individually testable, that keep a
:class:`~repro.net.RemoteReplicaSet` correct and *bounded* when the
network under it misbehaves (see :mod:`repro.net.chaos` for the fault
injector they are tested against):

:class:`CircuitBreaker`
    Per-replica closed/open/half-open state machine.  A run of failures
    opens the circuit, which removes the replica from the attempt order
    entirely (instead of merely sorting it last); after
    ``reset_timeout`` seconds one half-open trial is admitted, and its
    outcome decides between re-closing and re-opening.  The clock is
    injected so every transition is unit-testable without sleeping.
    One trial slot: a second concurrent trial would only double the risk.

:class:`RetryBudget`
    A process-wide token bucket that caps failover and hedge attempts:
    each retry spends one token, each success earns ``earn_per_success``
    back (up to ``max_tokens``).  Under a partial outage retries are
    cheap and the bucket never empties; under a full outage or overload
    the bucket drains and the client stops amplifying — the classic
    defense against retry storms.

:class:`HedgePolicy`
    After ``delay`` seconds without an answer, fire the same query at
    the next available replica and take whichever answer lands first.
    At most one hedge per request, and hedges spend retry tokens, so
    hedging can never amplify past the budget either.

:class:`ResilienceConfig` bundles the tunables so launchers and the CLI
can pass one object down through :func:`~repro.net.connect_router`;
what no deployment tunes (one trial, one hedge, :data:`PROBE_TIMEOUT`)
is fixed.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..analysis import make_lock

#: Seconds a recovery probe waits for a HEALTH answer.  HEALTH never
#: queues behind searches, so a live server answers in well under this.
PROBE_TIMEOUT = 1.0

__all__ = [
    "BreakerOpenError",
    "BreakerState",
    "CircuitBreaker",
    "HedgePolicy",
    "ResilienceConfig",
    "RetryBudget",
]


class BreakerState(enum.Enum):
    """The three classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class BreakerOpenError(RuntimeError):
    """An attempt was refused because the breaker is open."""


class CircuitBreaker:
    """Closed/open/half-open breaker with an injected monotonic clock.

    Thread-safe.  ``try_acquire`` is the gate callers must pass before
    an attempt; ``record_success``/``record_failure`` report the
    attempt's outcome.  While OPEN every acquire is refused until
    ``reset_timeout`` elapses, at which point exactly one trial attempt
    is admitted — its success re-closes the breaker, its failure
    re-opens it (and restarts the timer).
    """

    def __init__(self, failure_threshold: int = 3,
                 reset_timeout: float = 5.0,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Optional[
                     Callable[[BreakerState, BreakerState], None]] = None,
                 ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1: {failure_threshold}")
        if reset_timeout < 0:
            raise ValueError(f"reset_timeout must be >= 0: {reset_timeout}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._on_transition = on_transition
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._trial_admitted = False
        self._lock = make_lock("net.circuit_breaker")

    # -- state inspection ----------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """Current state; an OPEN breaker past its timeout reads HALF_OPEN."""
        with self._lock:
            self._tick()
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def _tick(self) -> None:
        """OPEN → HALF_OPEN once the reset timeout has elapsed."""
        if (self._state is BreakerState.OPEN
                and self._clock() - self._opened_at >= self.reset_timeout):
            self._transition(BreakerState.HALF_OPEN)
            self._trial_admitted = False

    def _transition(self, to: BreakerState) -> None:
        came_from, self._state = self._state, to
        if came_from is not to and self._on_transition is not None:
            self._on_transition(came_from, to)

    # -- the attempt gate ----------------------------------------------------

    def try_acquire(self) -> bool:
        """May an attempt proceed right now?

        CLOSED always admits; OPEN refuses (transitioning to HALF_OPEN
        first when due); HALF_OPEN admits its one trial.
        """
        with self._lock:
            self._tick()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                return False
            if self._trial_admitted:
                return False
            self._trial_admitted = True
            return True

    # -- outcome reporting ---------------------------------------------------

    def record_success(self) -> None:
        """A (trial) attempt succeeded: close from any state."""
        with self._lock:
            self._consecutive_failures = 0
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """An attempt failed: count towards opening, or re-open a trial."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state is BreakerState.CLOSED:
                if self._consecutive_failures >= self.failure_threshold:
                    self._transition(BreakerState.OPEN)
                    self._opened_at = self._clock()
            else:
                # A failure while OPEN (last-resort attempt) or HALF_OPEN
                # (failed trial) re-opens and restarts the timer.
                self._transition(BreakerState.OPEN)
                self._opened_at = self._clock()


class RetryBudget:
    """A token bucket bounding retries across a whole client process.

    The bucket starts full at ``max_tokens``.  Every retry (failover
    attempt after the first, or hedge) must :meth:`try_spend` one token;
    every success :meth:`record_success`-earns ``earn_per_success``
    tokens back, capped at ``max_tokens``.  First attempts are never
    charged — the budget bounds *amplification*, not traffic.
    """

    def __init__(self, max_tokens: float = 10.0,
                 earn_per_success: float = 0.1,
                 initial: Optional[float] = None) -> None:
        if max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1: {max_tokens}")
        if earn_per_success < 0:
            raise ValueError(
                f"earn_per_success must be >= 0: {earn_per_success}")
        self.max_tokens = float(max_tokens)
        self.earn_per_success = float(earn_per_success)
        self._tokens = self.max_tokens if initial is None else float(initial)
        self.spent = 0
        self.denied = 0
        self._lock = make_lock("net.retry_budget")

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def try_spend(self) -> bool:
        """Charge one token for a retry; ``False`` means *don't retry*."""
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.spent += 1
                return True
            self.denied += 1
            return False

    def record_success(self) -> None:
        """Earn tokens back on success, up to the cap."""
        with self._lock:
            self._tokens = min(self.max_tokens,
                               self._tokens + self.earn_per_success)


@dataclass(frozen=True)
class HedgePolicy:
    """Speculative re-execution of stragglers.

    After ``delay`` seconds without a first answer, fire the query at
    the next available replica; first answer wins, the loser is
    abandoned (its health bookkeeping still lands when it resolves).
    At most one extra attempt per request.
    """

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"hedge delay must be >= 0: {self.delay}")


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables for one :class:`~repro.net.RemoteReplicaSet`.

    ``breaker_failure_threshold`` of ``None`` reuses the replica set's
    ``health_threshold`` so breaker-open and unhealthy coincide by
    default.  ``hedge`` of ``None`` disables hedging (the sequential
    failover path).  ``probe_interval`` of ``None`` disables the
    opportunistic background recovery probe; recovery then rides on the
    breaker's half-open trials alone.
    """

    breaker_enabled: bool = True
    breaker_failure_threshold: Optional[int] = None
    breaker_reset_timeout: float = 5.0
    hedge: Optional[HedgePolicy] = None
    retry_max_tokens: float = 10.0
    retry_earn_per_success: float = 0.1
    probe_interval: Optional[float] = None

"""Unit tests for the client resilience layer: breakers, budgets, hedging.

Everything here runs without sockets — the breaker takes an injected
clock, and :class:`RemoteReplicaSet` takes a ``client_factory`` whose
fakes script each replica's behavior.  The same machinery is exercised
against real servers and injected faults in ``test_chaos.py`` and the
``benchmarks/test_netchaos.py`` acceptance suite.
"""

import threading
import time

import pytest

from repro.cluster import HEALTH_THRESHOLD, ShardUnavailableError
from repro.core import DirectionalQuery, QueryResult, ResultEntry
from repro.net import (
    BreakerState,
    CircuitBreaker,
    HedgePolicy,
    RemoteReplicaSet,
    ResilienceConfig,
    RetryBudget,
    TransportError,
)
from repro.net import protocol
from repro.net.protocol import RemoteSearchResult
from repro.service import MetricsRegistry

QUERY = DirectionalQuery.make(5.0, 5.0, 0.0, 3.0, ["cafe"], 3)


class FakeClock:
    """A hand-cranked monotonic clock."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# CircuitBreaker


class TestCircuitBreaker:

    def make(self, **kw):
        clock = FakeClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_timeout", 5.0)
        return CircuitBreaker(clock=clock, **kw), clock

    def test_starts_closed_and_admits(self):
        breaker, _ = self.make()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.try_acquire()

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.try_acquire()

    def test_success_resets_the_failure_run(self):
        breaker, _ = self.make(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_reset_timeout_admits_one_trial(self):
        breaker, clock = self.make(failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure()
        assert not breaker.try_acquire()
        clock.advance(4.9)
        assert not breaker.try_acquire()
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.try_acquire()       # the single trial slot
        assert not breaker.try_acquire()   # a concurrent second is refused

    def test_half_open_trial_success_closes(self):
        breaker, clock = self.make(failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.try_acquire()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.try_acquire()

    def test_half_open_trial_failure_reopens_and_restarts_timer(self):
        breaker, clock = self.make(failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.try_acquire()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        clock.advance(4.9)                  # old timer would have expired
        assert not breaker.try_acquire()
        clock.advance(0.2)
        assert breaker.try_acquire()

    def test_transitions_are_reported(self):
        seen = []
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=clock,
                                 on_transition=lambda a, b: seen.append(
                                     (a.value, b.value)))
        breaker.record_failure()
        clock.advance(1.0)
        breaker.try_acquire()
        breaker.record_success()
        assert seen == [("closed", "open"), ("open", "half_open"),
                        ("half_open", "closed")]

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=-1.0)
        with pytest.raises(TypeError):
            CircuitBreaker(half_open_max_trials=0)


# ---------------------------------------------------------------------------
# RetryBudget / HedgePolicy


class TestRetryBudget:

    def test_spend_until_empty_then_denied(self):
        budget = RetryBudget(max_tokens=2.0, earn_per_success=0.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()
        assert budget.spent == 2
        assert budget.denied == 1
        assert budget.tokens == 0.0

    def test_successes_earn_tokens_back(self):
        budget = RetryBudget(max_tokens=10.0, earn_per_success=0.5)
        while budget.try_spend():
            pass
        budget.record_success()
        assert not budget.try_spend()
        budget.record_success()
        assert budget.tokens == pytest.approx(1.0)
        assert budget.try_spend()

    def test_earning_caps_at_max(self):
        budget = RetryBudget(max_tokens=2.0, earn_per_success=5.0)
        budget.record_success()
        assert budget.tokens == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(max_tokens=0.5)
        with pytest.raises(ValueError):
            RetryBudget(earn_per_success=-0.1)


class TestHedgePolicy:

    def test_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(delay=-0.01)
        with pytest.raises(TypeError):
            HedgePolicy(delay=0.05, max_hedges=0)


# ---------------------------------------------------------------------------
# RemoteReplicaSet against scripted fake clients


def ok_result(poi_id):
    return RemoteSearchResult(
        result=QueryResult([ResultEntry(poi_id, 1.0)]))


class FakeShardClient:
    """Scripted stand-in for RemoteShardClient.

    ``behavior(call_index)`` returns a RemoteSearchResult or raises; it
    can be swapped at any time to model a server dying or recovering.
    """

    def __init__(self, address, behavior, health_ok=True, delay=0.0):
        self.address = address
        self.behavior = behavior
        self.health_ok = health_ok
        self.delay = delay
        self.calls = 0
        self.health_calls = 0
        self.budgets = []
        self._lock = threading.Lock()

    def search(self, query, budget=None):
        with self._lock:
            index = self.calls
            self.calls += 1
            self.budgets.append(budget)
        if self.delay:
            time.sleep(self.delay)
        outcome = self.behavior(index)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def health(self, timeout=5.0):
        self.health_calls += 1
        if not self.health_ok:
            raise TransportError(self.address, "probe refused")
        return protocol.HealthReport(ok=True, shard_id=0, generation=0,
                                     num_pois=1, requests_total=1,
                                     uptime_seconds=1.0)

    def close(self):
        pass


def make_set(behaviors, **kw):
    """A RemoteReplicaSet over FakeShardClients, one per behavior."""
    clients = {}
    addresses = [("10.0.0.%d" % i, 9000 + i) for i in range(len(behaviors))]
    by_address = dict(zip(addresses, behaviors))

    def factory(address):
        spec = by_address[address]
        client = (FakeShardClient(address, **spec) if isinstance(spec, dict)
                  else FakeShardClient(address, spec))
        clients[address[1] - 9000] = client
        return client

    kw.setdefault("resilience", ResilienceConfig())
    replica_set = RemoteReplicaSet(0, addresses, client_factory=factory,
                                   **kw)
    return replica_set, clients


def always(exc_or_result):
    return lambda index: exc_or_result


class TestBadRequestIsFatal:
    """Satellite: BAD_REQUEST re-raises immediately, untouched health."""

    def test_bad_request_reraises_without_failover(self):
        bad = protocol.RpcError(protocol.ErrorCode.BAD_REQUEST,
                                "unparseable query")
        replica_set, clients = make_set([always(bad), always(ok_result(7))])
        with pytest.raises(protocol.RpcError) as info:
            replica_set.execute(QUERY)
        assert info.value.code is protocol.ErrorCode.BAD_REQUEST
        # The error is the request's fault: replica 0 keeps its health
        # and breaker, and replica 1 was never bothered.
        assert replica_set.replicas[0].healthy
        assert replica_set.replicas[0].consecutive_failures == 0
        assert replica_set.replicas[0].breaker.state is BreakerState.CLOSED
        assert clients[1].calls == 0
        replica_set.close()

    def test_overload_still_fails_over(self):
        shed = protocol.OverloadError("queue full")
        replica_set, clients = make_set([always(shed), always(ok_result(7))])
        response, retried = replica_set.execute(QUERY)
        assert response.result.poi_ids() == [7]
        assert retried == 1
        assert replica_set.replicas[0].consecutive_failures == 1
        replica_set.close()


class TestRetryBudgetBoundsFailover:

    def test_exhausted_budget_stops_retrying(self):
        down = TransportError(("10.0.0.0", 9000), "down")
        budget = RetryBudget(max_tokens=1.0, earn_per_success=0.0)
        metrics = MetricsRegistry()
        replica_set, clients = make_set(
            [always(down), always(down)],
            retry_budget=budget, metrics=metrics,
            resilience=ResilienceConfig(breaker_failure_threshold=100))
        # Query 1: first attempt free, the failover spends the only token.
        with pytest.raises(ShardUnavailableError) as info:
            replica_set.execute(QUERY)
        assert info.value.attempts == 2
        # Query 2: first attempt still free, but no token for a second.
        with pytest.raises(ShardUnavailableError) as info:
            replica_set.execute(QUERY)
        assert info.value.attempts == 1
        assert budget.spent == 1
        assert budget.denied >= 1
        counters = metrics.to_dict()["counters"]
        assert counters["net_retry_tokens_spent_total"] == 1
        assert counters["net_retries_denied_total"] >= 1
        assert metrics.to_dict()["gauges"]["net_retry_tokens"] == 0.0
        replica_set.close()

    def test_successes_replenish_the_budget(self):
        budget = RetryBudget(max_tokens=2.0, earn_per_success=1.0)
        assert budget.try_spend() and budget.try_spend()
        replica_set, clients = make_set([always(ok_result(1))],
                                        retry_budget=budget)
        for _ in range(3):
            replica_set.execute(QUERY)
        assert budget.tokens == 2.0
        replica_set.close()


class TestBreakerInTheLoop:

    def test_open_breaker_leaves_the_attempt_order(self):
        down = TransportError(("10.0.0.0", 9000), "down")
        clock = FakeClock()
        replica_set, clients = make_set(
            [always(down), always(ok_result(3))], clock=clock,
            resilience=ResilienceConfig(breaker_reset_timeout=60.0))
        # Rotation alternates the starting replica, so replica 0 is
        # attempted (and fails) on queries 1, 3 and 5 — opening its
        # breaker at the threshold of 3.
        for _ in range(2 * HEALTH_THRESHOLD - 1):
            replica_set.execute(QUERY)
        assert replica_set.replicas[0].breaker.state is BreakerState.OPEN
        calls_before = clients[0].calls
        for _ in range(4):
            response, retried = replica_set.execute(QUERY)
            assert retried == 0
        # The open circuit was never attempted again.
        assert clients[0].calls == calls_before
        summary = replica_set.health_summary()
        assert summary[0]["breaker"] == "open"
        assert summary[1]["breaker"] == "closed"
        replica_set.close()

    def test_all_breakers_open_still_attempts_as_last_resort(self):
        down = TransportError(("10.0.0.0", 9000), "down")
        clock = FakeClock()
        replica_set, clients = make_set(
            [always(down)], clock=clock,
            resilience=ResilienceConfig(breaker_reset_timeout=60.0))
        for _ in range(HEALTH_THRESHOLD):
            with pytest.raises(ShardUnavailableError):
                replica_set.execute(QUERY)
        assert replica_set.replicas[0].breaker.state is BreakerState.OPEN
        # The sole replica's circuit is open, but the shard must degrade
        # through a real attempt, not wedge behind its own breaker.
        with pytest.raises(ShardUnavailableError) as info:
            replica_set.execute(QUERY)
        assert info.value.attempts == 1
        assert clients[0].calls == HEALTH_THRESHOLD + 1
        replica_set.close()

    def test_half_open_trial_recovers_the_replica(self):
        def flaky(index):
            return (TransportError(("10.0.0.0", 9000), "down")
                    if index < HEALTH_THRESHOLD else ok_result(9))

        clock = FakeClock()
        replica_set, clients = make_set(
            [flaky], clock=clock,
            resilience=ResilienceConfig(breaker_reset_timeout=5.0))
        for _ in range(HEALTH_THRESHOLD):
            with pytest.raises(ShardUnavailableError):
                replica_set.execute(QUERY)
        assert replica_set.replicas[0].breaker.state is BreakerState.OPEN
        clock.advance(5.0)
        response, retried = replica_set.execute(QUERY)
        assert response.result.poi_ids() == [9]
        assert replica_set.replicas[0].breaker.state is BreakerState.CLOSED
        assert replica_set.replicas[0].healthy
        replica_set.close()


class TestProbeRecovery:
    """Satellite: probe-based recovery of excluded replicas."""

    def test_probe_closes_breaker_and_restores_rotation(self):
        down = TransportError(("10.0.0.0", 9000), "down")
        client0 = {}

        def recovering(index):
            if client0.get("recovered"):
                return ok_result(1)
            raise down

        clock = FakeClock()
        metrics = MetricsRegistry()
        replica_set, clients = make_set(
            [recovering, always(ok_result(2))],
            clock=clock, metrics=metrics,
            resilience=ResilienceConfig(breaker_reset_timeout=3600.0))
        # Rotation attempts replica 0 on queries 1, 3 and 5: three
        # failures in a row trip both the health threshold and the breaker.
        for _ in range(2 * HEALTH_THRESHOLD - 1):
            replica_set.execute(QUERY)
        assert not replica_set.replicas[0].healthy
        assert replica_set.replicas[0].breaker_open
        # Server 0 comes back; a probe (not an in-band gamble) finds it.
        client0["recovered"] = True
        recovered = replica_set.probe_unavailable()
        assert recovered == [0]
        assert replica_set.replicas[0].healthy
        assert replica_set.replicas[0].breaker.state is BreakerState.CLOSED
        assert clients[0].health_calls == 1
        counters = metrics.to_dict()["counters"]
        assert counters["net_probe_recoveries_total"] == 1
        # Back in healthy-first rotation: both replicas serve, no retries.
        calls_before = clients[0].calls
        for _ in range(4):
            response, retried = replica_set.execute(QUERY)
            assert retried == 0
        assert clients[0].calls > calls_before
        replica_set.close()

    def test_failed_probe_keeps_the_replica_excluded(self):
        down = TransportError(("10.0.0.0", 9000), "down")
        clock = FakeClock()
        replica_set, clients = make_set(
            [{"behavior": always(down), "health_ok": False},
             always(ok_result(2))],
            clock=clock,
            resilience=ResilienceConfig(breaker_reset_timeout=3600.0))
        # Replica 0 fails on queries 1, 3 and 5.
        for _ in range(2 * HEALTH_THRESHOLD - 1):
            replica_set.execute(QUERY)
        assert replica_set.probe_unavailable() == []
        assert not replica_set.replicas[0].healthy
        assert clients[0].health_calls == 1
        replica_set.close()


class TestQuarantineRelease:
    """A parked remote replica is excluded everywhere until released."""

    def test_release_returns_a_quarantined_replica_to_service(self):
        damaged = RemoteSearchResult(
            result=QueryResult([], partial=True), degraded=True,
            failure_cause="page 7: checksum mismatch")
        state = {"outcome": damaged}
        replica_set, clients = make_set(
            [lambda index: state["outcome"], always(ok_result(2))])
        parked = replica_set.replicas[0]
        replica_set._rotation = 0      # attempt the damaged replica first
        response, retried = replica_set.execute(QUERY)
        assert response.result.poi_ids() == [2] and retried == 1
        assert replica_set.quarantined_replicas() == [0]
        assert "checksum" in parked.quarantine_cause
        # Parked means out of the plan and out of the probe's reach.
        for _ in range(4):
            replica_set.execute(QUERY)
        assert clients[0].calls == 1
        assert replica_set.probe_unavailable() == []
        assert clients[0].health_calls == 0
        # The operator repairs the pages and releases the replica.
        state["outcome"] = ok_result(1)
        parked.release()
        assert replica_set.quarantined_replicas() == []
        assert parked.healthy and parked.quarantine_cause is None
        assert parked.breaker.state is BreakerState.CLOSED
        for _ in range(4):
            response, retried = replica_set.execute(QUERY)
            assert retried == 0
        assert clients[0].calls == 3   # back in rotation: every other query
        replica_set.close()


class TestHedging:

    def test_hedge_fires_and_wins_against_a_straggler(self):
        metrics = MetricsRegistry()
        replica_set, clients = make_set(
            [{"behavior": always(ok_result(1)), "delay": 0.4},
             always(ok_result(2))],
            metrics=metrics,
            resilience=ResilienceConfig(hedge=HedgePolicy(delay=0.05)))
        started = time.monotonic()
        response, retried = replica_set.execute(QUERY)
        elapsed = time.monotonic() - started
        # The hedge's answer (replica 1) came back first, well before the
        # straggler's 0.4s sleep finished.
        assert response.result.poi_ids() == [2]
        assert retried == 1
        assert elapsed < 0.35
        counters = metrics.to_dict()["counters"]
        assert counters["net_hedges_fired_total"] == 1
        assert counters["net_hedges_won_total"] == 1
        assert counters["net_retry_tokens_spent_total"] == 1
        replica_set.close()

    def test_fast_primary_never_hedges(self):
        metrics = MetricsRegistry()
        replica_set, clients = make_set(
            [always(ok_result(1)), always(ok_result(2))],
            metrics=metrics,
            resilience=ResilienceConfig(hedge=HedgePolicy(delay=0.2)))
        for _ in range(4):
            response, retried = replica_set.execute(QUERY)
            assert retried == 0
        assert "net_hedges_fired_total" not in metrics.to_dict()["counters"]
        replica_set.close()

    def test_hedged_failover_still_succeeds_when_primary_errors(self):
        down = TransportError(("10.0.0.0", 9000), "down")
        replica_set, clients = make_set(
            [always(down), always(ok_result(5))],
            resilience=ResilienceConfig(hedge=HedgePolicy(delay=0.2)))
        response, retried = replica_set.execute(QUERY)
        assert response.result.poi_ids() == [5]
        assert retried == 1
        replica_set.close()

    def test_hedged_bad_request_is_still_fatal(self):
        bad = protocol.RpcError(protocol.ErrorCode.BAD_REQUEST, "nope")
        replica_set, clients = make_set(
            [always(bad), always(ok_result(5))],
            resilience=ResilienceConfig(hedge=HedgePolicy(delay=0.2)))
        with pytest.raises(protocol.RpcError):
            replica_set.execute(QUERY)
        assert clients[1].calls == 0
        replica_set.close()


class TestDeadlineBoundsFailover:

    def test_expired_deadline_stops_the_failover_loop(self):
        slow_down = {"behavior": always(
            TransportError(("10.0.0.0", 9000), "down")), "delay": 0.15}
        replica_set, clients = make_set(
            [slow_down, slow_down],
            resilience=ResilienceConfig(breaker_failure_threshold=100))
        started = time.monotonic()
        with pytest.raises(ShardUnavailableError) as info:
            replica_set.execute(QUERY, timeout=0.1)
        elapsed = time.monotonic() - started
        # The first attempt consumed the whole budget; the deadline check
        # refused a second, so the failure is bounded by ~one attempt.
        assert info.value.attempts == 1
        assert clients[0].calls + clients[1].calls == 1
        assert elapsed < 1.0
        replica_set.close()

    def test_attempts_carry_the_remaining_budget(self):
        replica_set, clients = make_set([always(ok_result(1))])
        replica_set.execute(QUERY, timeout=5.0)
        budget = clients[0].budgets[0]
        assert budget is not None and 0.0 < budget <= 5.0
        replica_set.close()

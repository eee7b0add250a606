"""The failover contract, run once per endpoint kind.

``ReplicaSet`` (in-process engines) and ``RemoteReplicaSet`` (sockets) are
the same :class:`~repro.cluster.FailoverSet` loop over different
endpoints, so everything the loop promises is asserted here against both:
an :class:`~repro.cluster.EngineEndpoint` over a real engine whose
``execute`` is scripted, and a :class:`~repro.net.SocketEndpoint` over the
scripted ``FakeShardClient``.  The socket harness is a plain
:class:`~repro.cluster.FailoverSet` over socket endpoints, with no circuit
breaker — with none, its attempt plan is the in-process one exactly;
what breakers, budgets and hedging add to a ``RemoteReplicaSet`` is
``test_resilience.py``'s job.
"""

import dataclasses

import pytest

from benchmarks.chaos_net import InjectedFault
from repro.cluster import (
    HEALTH_THRESHOLD,
    EngineEndpoint,
    FailoverSet,
    ReplicaEndpoint,
    ReplicaSet,
    ShardUnavailableError,
)
from repro.core import DesksIndex, QueryResult
from repro.net import RemoteReplicaSet, SocketEndpoint, TransportError
from repro.net.protocol import RemoteSearchResult
from repro.service import MetricsRegistry
from repro.storage import PageCorruptionError

from .conftest import make_collection
from .test_resilience import QUERY, FakeShardClient, ok_result

INDEX = DesksIndex(make_collection(n=120, seed=61))
CAUSE = "page 7: checksum mismatch"


class EngineHarness:
    """An in-process set whose engines answer as ``self.mode`` says."""

    endpoint_type = EngineEndpoint
    failure_type = InjectedFault
    extra_keys = set()

    def __init__(self, replicas, **kw):
        self.set = ReplicaSet(7, INDEX, replicas, **kw)
        self.mode = ["ok"] * replicas
        self.calls = [0] * replicas
        for replica in self.set.replicas:
            engine = replica.endpoint.engine
            engine.execute = self._scripted(replica.replica_id,
                                            engine.execute)

    def _scripted(self, i, real_execute):
        def execute(query, timeout=None):
            self.calls[i] += 1
            if self.mode[i] == "down":
                raise InjectedFault(f"replica {i} is down")
            if self.mode[i] == "corrupt":
                raise PageCorruptionError(7, "checksum mismatch")
            response = real_execute(query, timeout)
            if self.mode[i] == "degraded":
                return dataclasses.replace(response, degraded=True,
                                           failure_cause=CAUSE)
            return response
        return execute


class SocketHarness:
    """A remote set over fake clients that answer as ``self.mode`` says."""

    endpoint_type = SocketEndpoint
    failure_type = TransportError
    extra_keys = {"address"}

    def __init__(self, replicas, metrics=None):
        self.mode = ["ok"] * replicas
        self._clients = [
            FakeShardClient(("10.0.0.%d" % i, 9000 + i), self._scripted(i))
            for i in range(replicas)]
        self.set = FailoverSet(
            7, [(SocketEndpoint(client), None) for client in self._clients],
            metrics)

    def _scripted(self, i):
        def behavior(call_index):
            if self.mode[i] == "down":
                return TransportError(("10.0.0.%d" % i, 9000 + i), "down")
            if self.mode[i] == "corrupt":
                return PageCorruptionError(7, "checksum mismatch")
            if self.mode[i] == "degraded":
                return RemoteSearchResult(
                    result=QueryResult([], partial=True), degraded=True,
                    failure_cause=CAUSE)
            return ok_result(i)
        return behavior

    @property
    def calls(self):
        return [client.calls for client in self._clients]


@pytest.fixture(params=[EngineHarness, SocketHarness],
                ids=["engine", "socket"])
def harness(request):
    made = []

    def make(replicas, **kw):
        made.append(request.param(replicas, **kw))
        return made[-1]

    yield make
    for h in made:
        h.set.close()


def run(h, first=None):
    """One query, optionally pinning which replica the rotation starts at."""
    if first is not None:
        h.set._rotation = first
    return h.set.execute(QUERY)


def test_both_sets_are_the_one_loop_over_conforming_endpoints(harness):
    h = harness(2)
    assert isinstance(h.set, FailoverSet)
    assert type(h.set)._attempts is FailoverSet._attempts
    assert type(h.set)._attempt is FailoverSet._attempt
    assert RemoteReplicaSet._attempts is FailoverSet._attempts
    assert RemoteReplicaSet._attempt is FailoverSet._attempt
    for replica in h.set.replicas:
        assert type(replica.endpoint) is h.endpoint_type
        assert isinstance(replica.endpoint, ReplicaEndpoint)


def test_rotation_start_advances(harness):
    h = harness(3)
    for _ in range(6):
        _, retries = run(h)
        assert retries == 0
    assert h.calls == [2, 2, 2]


def test_unhealthy_replicas_go_last_and_recover_as_probes(harness):
    h = harness(3)
    h.mode[0] = "down"
    for _ in range(HEALTH_THRESHOLD):
        _, retries = run(h, first=0)
        assert retries == 1
    assert not h.set.replicas[0].healthy
    # Demoted: wherever the rotation starts, a healthy replica answers
    # first and the unhealthy one is left alone.
    before = h.calls[0]
    for _ in range(3):
        _, retries = run(h)
        assert retries == 0
    assert h.calls[0] == before
    # It is still the last resort: with the others down it is attempted,
    # and its first success makes it healthy again.
    h.mode = ["ok", "down", "down"]
    _, retries = run(h)
    assert retries == 2
    assert h.set.replicas[0].healthy


def test_health_threshold_in_a_row_then_recovery_on_success(harness):
    h = harness(2)
    bad = h.set.replicas[0]
    h.mode[0] = "down"
    assert HEALTH_THRESHOLD == 3
    for failures in (1, 2):
        run(h, first=0)
        assert bad.healthy and bad.consecutive_failures == failures
    run(h, first=0)
    assert not bad.healthy and bad.consecutive_failures == 3
    h.mode = ["ok", "down"]
    _, retries = run(h, first=1)
    assert retries == 1
    assert bad.healthy and bad.consecutive_failures == 0
    assert bad.total_failures == 3


@pytest.mark.parametrize("form", ["corrupt", "degraded"])
def test_corruption_quarantines_and_fails_over(harness, form):
    metrics = MetricsRegistry()
    h = harness(2, metrics=metrics)
    parked = h.set.replicas[0]
    h.mode[0] = form
    response, retries = run(h, first=0)
    assert retries == 1 and not response.degraded
    assert h.set.quarantined_replicas() == [0]
    assert not parked.healthy and "checksum" in parked.quarantine_cause
    assert metrics.counter("cluster_replicas_quarantined_total").value == 1
    # Sticky: unlike an unhealthy replica it gets no recovery probes...
    for _ in range(4):
        run(h)
    assert h.calls[0] == 1
    # ...until the operator releases it.
    h.mode[0] = "ok"
    parked.release()
    assert h.set.quarantined_replicas() == [] and parked.healthy
    _, retries = run(h, first=0)
    assert retries == 0 and h.calls[0] == 2


def test_all_down_raises_with_attempts_and_last_cause(harness):
    metrics = MetricsRegistry()
    h = harness(3, metrics=metrics)
    h.mode = ["down"] * 3
    with pytest.raises(ShardUnavailableError) as err:
        run(h)
    assert err.value.shard_id == h.set.shard_id
    assert err.value.attempts == 3
    assert isinstance(err.value.last_error, h.failure_type)
    assert metrics.counter("cluster_replica_failures_total").value == 3


def test_all_quarantined_reports_the_corruption(harness):
    h = harness(2)
    h.mode = ["corrupt", "degraded"]
    with pytest.raises(ShardUnavailableError) as err:
        run(h)
    assert err.value.attempts == 2
    assert isinstance(err.value.last_error, PageCorruptionError)
    assert h.set.quarantined_replicas() == [0, 1]


def test_spent_deadline_makes_no_attempt(harness):
    h = harness(2)
    with pytest.raises(ShardUnavailableError) as err:
        h.set.execute(QUERY, timeout=0.0)
    assert err.value.attempts == 0 and err.value.last_error is None
    assert h.calls == [0, 0]


def test_health_summary_rows_share_their_keys(harness):
    h = harness(2)
    h.mode[0] = "down"
    run(h, first=0)
    rows = h.set.health_summary()
    shared = {"replica_id", "healthy", "consecutive_failures",
              "total_failures", "breaker"}
    for row in rows:
        assert set(row) == shared | h.extra_keys
        assert row["breaker"] == "disabled"
    assert [row["replica_id"] for row in rows] == [0, 1]
    assert rows[0]["total_failures"] == 1 and rows[1]["total_failures"] == 0

"""ChaosProxy faults against a real ShardServer, one kind at a time,
and the same plans applied in process by FaultyEndpoint.

Each test proxies a live in-process server through
:class:`repro.net.chaos.ChaosProxy` with exactly one fault armed, and
asserts both sides of the reconciliation contract: the client surfaces
the *typed* failure (never a hang, never a wrong answer) and the
client-side failure counter matches the proxy's activation counter
exactly.  The full plan-matrix acceptance run over real OS processes
lives in ``benchmarks/test_netchaos.py``.
"""

import random
import time

import pytest

from repro.net import (
    ChecksumMismatch,
    RemoteReplicaSet,
    RemoteShardClient,
    ResilienceConfig,
    ShardServer,
    TransportError,
)
from repro.net.chaos import (
    ChaosProxy,
    FaultLog,
    FaultPlan,
    FaultyEndpoint,
    InjectedFault,
)
from repro.service import MetricsRegistry

from .conftest import entries_of, random_queries


@pytest.fixture()
def query():
    return random_queries(random.Random(41), 1)[0]


def counters(metrics):
    return metrics.to_dict()["counters"]


def make_client(proxy, **kw):
    kw.setdefault("metrics", MetricsRegistry())
    return RemoteShardClient(proxy.address, **kw)


# -- transparency and latency -------------------------------------------------


def test_transparent_proxy_is_invisible(server, reference, query):
    with ChaosProxy(server.address) as proxy:
        with make_client(proxy) as client:
            got = client.search(query)
            assert entries_of(got.result) == \
                entries_of(reference.search(query))
    log = proxy.log.to_dict()
    assert log["frames_forwarded"] >= 1
    assert log["corruptions_injected"] == 0
    assert log["resets_injected"] == 0
    assert log["blackholes_activated"] == 0


def test_latency_plan_delays_every_response(server, reference, query):
    plan = FaultPlan("latency", latency_seconds=0.08)
    with ChaosProxy(server.address, plan) as proxy:
        with make_client(proxy) as client:
            started = time.monotonic()
            got = client.search(query)
            elapsed = time.monotonic() - started
            assert entries_of(got.result) == \
                entries_of(reference.search(query))
            assert elapsed >= 0.08
    assert proxy.log.to_dict()["latencies_injected"] == 1


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan("bad", corrupt_probability=1.5)
    with pytest.raises(ValueError):
        FaultPlan("bad", blackhole_probability=-0.1)
    with pytest.raises(ValueError):
        FaultPlan("bad", reset_after_bytes=-1)
    with pytest.raises(ValueError):
        FaultPlan("bad", reset_probability=1.5)
    # A negative delay would make the pump thread's sleep raise and drop
    # the connection with nothing in the log.
    with pytest.raises(ValueError):
        FaultPlan("bad", latency_seconds=-0.1)
    with pytest.raises(ValueError):
        FaultPlan("bad", latency_seconds=-0.2, latency_jitter_seconds=0.1)
    with pytest.raises(ValueError):
        FaultPlan("bad", latency_jitter_seconds=-0.1)


# -- corruption: the CRC layer must catch every flipped byte ------------------


def test_corruption_is_caught_by_the_crc(server, query):
    plan = FaultPlan("corrupt", corrupt_probability=1.0, seed=3)
    with ChaosProxy(server.address, plan) as proxy:
        with make_client(proxy) as client:
            with pytest.raises(ChecksumMismatch):
                client.search(query)
            observed = counters(client.metrics)
    assert observed["net_client_crc_errors_total"] == 1
    assert proxy.log.to_dict()["corruptions_injected"] == 1


# -- resets: mid-header and mid-payload cuts ----------------------------------


@pytest.mark.parametrize("cut_at", [5, 14],
                         ids=["mid-header", "mid-payload"])
def test_reset_mid_frame_truncates_a_fresh_connection(server, query, cut_at):
    """recv_exactly's short-read path, cut inside header and payload."""
    plan = FaultPlan("reset", reset_probability=1.0,
                     reset_after_bytes=cut_at)
    with ChaosProxy(server.address, plan) as proxy:
        with make_client(proxy) as client:
            with pytest.raises(TransportError):
                client.search(query)
            observed = counters(client.metrics)
    # A fresh connection died mid-frame: that is the server's failure,
    # surfaced (not silently retried) and counted as a truncation.
    assert observed["net_client_truncated_total"] == 1
    assert observed.get("net_client_stale_retries_total", 0) == 0
    assert proxy.log.to_dict()["resets_injected"] == 1


def test_rst_reset_surfaces_as_transport_error(server, query):
    plan = FaultPlan("rst", reset_probability=1.0, reset_after_bytes=6,
                     reset_rst=True)
    with ChaosProxy(server.address, plan) as proxy:
        with make_client(proxy) as client:
            with pytest.raises(TransportError):
                client.search(query)
            observed = counters(client.metrics)
    # Depending on timing the kernel surfaces ECONNRESET or a short read;
    # either way exactly one injected reset became one observed failure.
    assert (observed.get("net_client_reset_total", 0)
            + observed.get("net_client_truncated_total", 0)) == 1
    assert proxy.log.to_dict()["resets_injected"] == 1


# -- stale pooled connections: retried once, silently -------------------------


def test_severed_pooled_connection_is_retried_once(server, reference, query):
    with ChaosProxy(server.address) as proxy:
        with make_client(proxy) as client:
            client.search(query)            # pools one live connection
            assert proxy.drop_connections() >= 1
            # The pooled socket is now dead.  The client must detect the
            # stale connection, count it, and silently retry once on a
            # fresh one — the caller never sees the failure.
            got = client.search(query)
            assert entries_of(got.result) == \
                entries_of(reference.search(query))
            observed = counters(client.metrics)
    assert observed["net_client_stale_retries_total"] == 1
    assert observed.get("net_client_truncated_total", 0) == 0
    assert proxy.log.to_dict()["connections_dropped"] >= 1


# -- blackhole: only the deadline ends the request ----------------------------


def test_blackhole_times_out_within_budget_plus_grace(server, query):
    plan = FaultPlan("blackhole", blackhole_probability=1.0)
    with ChaosProxy(server.address, plan) as proxy:
        with make_client(proxy, deadline_grace=0.2) as client:
            started = time.monotonic()
            with pytest.raises(TransportError):
                client.search(query, budget=0.3)
            elapsed = time.monotonic() - started
            observed = counters(client.metrics)
    # The proxy accepted and went silent; nothing but the deadline can
    # end the request, and it must do so promptly: budget + grace, plus
    # scheduling slack.
    assert 0.3 <= elapsed < 2.0
    assert observed["net_client_timeouts_total"] == 1
    assert proxy.log.to_dict()["blackholes_activated"] == 1


def test_same_seed_same_connection_order_injects_identically(server, query):
    plan = FaultPlan("flaky", reset_probability=0.5, seed=7)
    outcomes = []
    for _ in range(2):
        with ChaosProxy(server.address, plan) as proxy:
            run = []
            for _ in range(6):
                # One fresh connection per request: connection index —
                # not wall clock — drives every draw.
                with make_client(proxy) as client:
                    try:
                        client.search(query)
                        run.append("ok")
                    except TransportError:
                        run.append("reset")
            outcomes.append((run, proxy.log.to_dict()["resets_injected"]))
    assert outcomes[0] == outcomes[1]
    assert "reset" in outcomes[0][0] and "ok" in outcomes[0][0]


# -- the same plans in process: FaultyEndpoint --------------------------------


class Answering:
    """An endpoint that answers every call and records what reached it."""

    def __init__(self):
        self.calls = 0
        self.closed = False

    def call(self, query, budget):
        self.calls += 1
        return "answer"

    def probe(self, timeout):
        return True

    def describe(self):
        return {"inner": True}

    def close(self):
        self.closed = True


def outcomes(endpoint, calls):
    run = []
    for _ in range(calls):
        try:
            run.append(endpoint.call(None, None))
        except InjectedFault:
            run.append("reset")
    return run


def test_faulty_endpoint_refuses_wire_only_faults():
    for plan in (FaultPlan("c", corrupt_probability=0.1),
                 FaultPlan("b", blackhole_probability=0.1)):
        with pytest.raises(ValueError, match="wire-only"):
            FaultyEndpoint(Answering(), plan, FaultLog())


def test_faulty_endpoint_counts_what_it_injects():
    inner, log = Answering(), FaultLog()
    endpoint = FaultyEndpoint(inner, FaultPlan(
        "slow-flaky", seed=3, reset_probability=0.5,
        latency_seconds=0.001), log)
    run = outcomes(endpoint, 40)
    counts = log.to_dict()
    assert counts["latencies_injected"] == 40
    assert counts["resets_injected"] == run.count("reset")
    assert 0 < inner.calls == run.count("answer") < 40
    # Everything but the call passes through to the wrapped endpoint.
    assert endpoint.probe(1.0) and endpoint.describe() == {"inner": True}
    endpoint.close()
    assert inner.closed


def test_faulty_endpoint_is_deterministic_under_its_seed():
    plan = FaultPlan("flaky", seed=7, reset_probability=0.5)
    runs = [outcomes(FaultyEndpoint(Answering(), plan, FaultLog()), 30)
            for _ in range(2)]
    assert runs[0] == runs[1]
    other = FaultPlan("flaky", seed=8, reset_probability=0.5)
    assert outcomes(FaultyEndpoint(Answering(), other, FaultLog()),
                    30) != runs[0]


# -- replica set over a faulty proxy: correctness survives --------------------


def test_replica_set_answers_exactly_despite_a_corrupting_replica(
        index, server, reference):
    plan = FaultPlan("corrupt", corrupt_probability=1.0, seed=11)
    queries = random_queries(random.Random(43), 8)
    with ChaosProxy(server.address, plan) as proxy:
        direct = ShardServer(index, shard_id=0, num_workers=1).start()
        replica_set = RemoteReplicaSet(
            0, [proxy.address, direct.address], health_threshold=2,
            metrics=MetricsRegistry())
        try:
            for query in queries:
                response, _ = replica_set.execute(query, timeout=10.0)
                assert entries_of(response.result) == \
                    entries_of(reference.search(query))
        finally:
            replica_set.close()
            direct.stop()
    assert proxy.log.to_dict()["corruptions_injected"] >= 1


def test_restarted_server_returns_to_healthy_first_rotation(
        index, reference):
    """Probe recovery against a real restarted server process.

    The breaker's reset timeout is set far beyond the test so recovery
    can only come from the explicit health probe — the regression this
    guards is a permanently-excluded replica after its server restarts.
    """
    server_a = ShardServer(index, shard_id=0, num_workers=1).start()
    server_b = ShardServer(index, shard_id=0, num_workers=1).start()
    port_a = server_a.address[1]
    query = random_queries(random.Random(47), 1)[0]
    replica_set = RemoteReplicaSet(
        0, [server_a.address, server_b.address], health_threshold=2,
        metrics=MetricsRegistry(),
        client_factory=RemoteShardClient,
        resilience=ResilienceConfig(breaker_reset_timeout=3600.0))
    restarted = None
    try:
        server_a.stop()
        # Rotation attempts the dead replica on queries 1 and 3; two
        # failures open its breaker and mark it unhealthy.
        for _ in range(4):
            response, _ = replica_set.execute(query, timeout=10.0)
            assert entries_of(response.result) == \
                entries_of(reference.search(query))
        summary = replica_set.health_summary()
        assert not summary[0]["healthy"]
        assert summary[0]["breaker"] == "open"
        # A failed probe keeps it excluded...
        assert replica_set.probe_unavailable() == []
        # ...then the server comes back on the same port and one probe
        # restores it to healthy-first rotation.
        restarted = ShardServer(index, host="127.0.0.1", port=port_a,
                                shard_id=0, num_workers=1).start()
        assert replica_set.probe_unavailable() == [0]
        summary = replica_set.health_summary()
        assert summary[0]["healthy"]
        assert summary[0]["breaker"] == "closed"
        before = replica_set.replicas[0].client.health().requests_total
        for _ in range(4):
            response, retried = replica_set.execute(query, timeout=10.0)
            assert retried == 0
            assert entries_of(response.result) == \
                entries_of(reference.search(query))
        after = replica_set.replicas[0].client.health().requests_total
        # The restarted server is serving search traffic again, not just
        # answering probes: rotation sent it half the queries.
        assert after - before >= 2
        observed = counters(replica_set.metrics)
        assert observed["net_probe_recoveries_total"] == 1
    finally:
        replica_set.close()
        server_b.stop()
        if restarted is not None:
            restarted.stop()

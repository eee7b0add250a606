"""ClusterFrontend: the front door over an in-process router."""

import random
import threading

import pytest

from repro.cluster import FaultInjector, ShardRouter
from repro.net import (
    ClusterFrontend,
    OverloadError,
    RemoteShardClient,
)

from .conftest import entries_of, random_queries


@pytest.fixture(scope="module")
def router(collection):
    with ShardRouter(collection, num_shards=4, partitioner="grid") as r:
        yield r


@pytest.fixture(scope="module")
def frontend(router):
    front = ClusterFrontend(router).start()
    yield front
    front.stop()


@pytest.fixture()
def front_client(frontend):
    with RemoteShardClient(frontend.address) as cli:
        yield cli


def test_frontend_search_equals_local(front_client, reference):
    for query in random_queries(random.Random(31), 20):
        remote = front_client.search(query)
        assert not remote.partial and not remote.degraded
        assert entries_of(remote.result) == \
            entries_of(reference.search(query))


def test_frontend_health_describes_the_cluster(front_client, collection):
    report = front_client.health()
    assert report.ok
    assert report.shard_id == 4  # by convention: the shard count
    assert report.num_pois == len(collection)


def test_frontend_stats_include_cluster_counters(front_client):
    query = random_queries(random.Random(32), 1)[0]
    front_client.search(query)
    stats = front_client.stats()
    assert stats["num_shards"] == 4
    assert stats["net_frontend_requests_total"] >= 1
    assert "max_inflight" in stats


def test_frontend_expired_budget_is_partial_and_immediate(front_client,
                                                          frontend):
    before = frontend.metrics.counter("net_deadline_expired_total").value
    query = random_queries(random.Random(33), 1)[0]
    remote = front_client.search(query, budget=0.0)
    assert remote.partial
    assert remote.result.entries == []
    assert frontend.metrics.counter("net_deadline_expired_total").value \
        == before + 1


def test_frontend_forwards_typed_brownout(collection):
    """A lost shard answers as a typed partial naming the shard.

    With every replica of every shard hard-failed, the router browns out
    instead of erroring; the frontend must forward the loss *typed* —
    ``degraded`` with ``unavailable_shards`` on the wire — so a remote
    client knows exactly which shards its partial answer is missing.
    """
    injector = FaultInjector()
    injector.set_fault(replica_id=0, error_rate=1.0)
    with ShardRouter(collection, num_shards=2, partitioner="grid",
                     fault_injector=injector) as router:
        frontend = ClusterFrontend(router).start()
        try:
            query = random_queries(random.Random(35), 1)[0]
            with RemoteShardClient(frontend.address) as cli:
                remote = cli.search(query)
            assert remote.degraded
            assert remote.unavailable_shards
            assert remote.unavailable_shards == \
                tuple(sorted(remote.unavailable_shards))
            assert remote.failure_cause is not None
            assert "unavailable" in remote.failure_cause
            assert frontend.metrics.counter(
                "net_frontend_brownouts_total").value >= 1
        finally:
            frontend.stop()


def test_frontend_sheds_typed_overload(collection):
    """At max_inflight the front door sheds *before* the executor hop."""
    with ShardRouter(collection, num_shards=2, partitioner="grid") as router:
        entered = threading.Event()
        release = threading.Event()
        real_execute = router.execute

        def stalled_execute(query, timeout=None):
            entered.set()
            release.wait(timeout=10.0)
            return real_execute(query, timeout)

        router.execute = stalled_execute
        frontend = ClusterFrontend(router, max_inflight=1).start()
        try:
            query = random_queries(random.Random(34), 1)[0]
            first_result = []

            def first():
                with RemoteShardClient(frontend.address) as cli:
                    first_result.append(cli.search(query))

            holder = threading.Thread(target=first)
            holder.start()
            assert entered.wait(timeout=5.0)
            with RemoteShardClient(frontend.address) as cli:
                for _ in range(3):
                    with pytest.raises(OverloadError):
                        cli.search(query)
            release.set()
            holder.join(timeout=10.0)
            assert first_result and not first_result[0].partial
            assert frontend.metrics.counter("net_overload_total").value >= 3
        finally:
            release.set()
            frontend.stop()


def test_frontend_survives_garbage_frames(front_client, frontend,
                                          reference):
    import socket

    with socket.create_connection(frontend.address, timeout=5.0) as conn:
        conn.sendall(b"\xff" * 12)
        conn.shutdown(socket.SHUT_WR)
        answer = conn.recv(4096)  # best-effort typed error (or drop)
        assert answer == b"" or answer[:2] != b"\xff\xff"
    query = random_queries(random.Random(35), 1)[0]
    assert entries_of(front_client.search(query).result) == \
        entries_of(reference.search(query))


def test_frontend_statement_equals_local(front_client, reference):
    from repro.lang import plan_from_query

    for query in random_queries(random.Random(43), 10):
        remote = front_client.execute_statement(
            plan_from_query(query).render())
        assert remote.kind == "search"
        assert entries_of(remote.search.result) == \
            entries_of(reference.search(query))


def test_frontend_statement_show_shards(front_client, router):
    remote = front_client.execute_statement("SHOW SHARDS")
    assert remote.kind == "table"
    assert remote.table["shards.total"] == float(router.num_shards)


def test_frontend_statement_explain_is_plan_only(front_client):
    remote = front_client.execute_statement(
        "EXPLAIN SELECT 3 NEAR (50.0, 50.0) MATCHING 'cafe'")
    assert remote.kind == "text"
    assert "cluster plan" in remote.text
    assert "dispatch shard=" in remote.text


def test_frontend_statement_parse_error_has_caret(front_client):
    from repro.net import RpcError

    with pytest.raises(RpcError) as info:
        front_client.execute_statement("EXPLAIN SHOW METRICS")
    assert "^" in str(info.value)

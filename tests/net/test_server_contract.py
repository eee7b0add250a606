"""The wire contract of the one frame server, on both of its targets.

Everything here is behaviour ``repro.net.server.FrameServer`` owns —
framing damage, dispatch, admission, deadline short-circuit, the typed
error mapping, HEALTH/STATS shape, shutdown — so every case runs against
a :class:`ShardServer` on an index *and* a :class:`ClusterFrontend` on an
in-process router.  What each target adds on top (cache/generation
fields, brownouts) stays in ``test_server_client.py`` /
``test_frontend.py``.
"""

import os
import random
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.cluster import ShardRouter
from repro.net import (
    ClusterFrontend,
    ErrorCode,
    OverloadError,
    RemoteShardClient,
    RpcError,
    ShardServer,
    TransportError,
)
from repro.net.protocol import (
    MAGIC,
    MessageType,
    WIRE_VERSION,
    encode_frame,
    encode_search_request,
)

from .conftest import entries_of, random_queries
from .test_server_client import raw_exchange

SELECT = "SELECT 2 NEAR (50.0, 50.0) MATCHING 'cafe'"

#: Per-server counter prefix, STATS extras and latency key stem, by target.
PREFIX = {"shard": "net_", "frontdoor": "net_frontend_"}
STATS_EXTRAS = {"shard": {"shard_id", "pid"},
                "frontdoor": {"num_shards", "max_inflight"}}
LATENCY_STEM = {"shard": "query_latency_", "frontdoor": "cluster_latency_"}


@pytest.fixture()
def router(collection):
    """Per test: a front door counts into its router's registry."""
    with ShardRouter(collection, num_shards=2, partitioner="grid") as r:
        yield r


@pytest.fixture(params=["shard", "frontdoor"])
def make_server(request, index, router):
    """``make(**kwargs)`` starts a server of this run's kind; every
    server it made is stopped at teardown."""
    made = []

    def make(**kwargs):
        if request.param == "shard":
            server = ShardServer(index, num_workers=2, **kwargs)
        else:
            server = ClusterFrontend(router, **kwargs)
        made.append(server)
        return server.start()

    make.kind = request.param
    yield make
    for server in made:
        server.stop()


def target_call(server):
    """``(owner, method name)`` of the call that answers an admitted
    SEARCH frame — the one thing the shared code does not own."""
    if isinstance(server, ShardServer):
        return server.engine, "submit"
    return server.router, "execute"


def header_of(answer):
    return struct.unpack_from("!HBB", answer)


# -- framing damage: the connection is the unit of damage ---------------------


def test_garbage_bytes_get_typed_error_and_server_survives(make_server,
                                                           reference):
    server = make_server()
    answer = raw_exchange(server.address, b"\x00" * 12)
    assert header_of(answer) == (MAGIC, WIRE_VERSION,
                                 int(MessageType.ERROR))
    assert server.metrics.counter("net_protocol_errors_total").value == 1
    query = random_queries(random.Random(51), 1)[0]
    with RemoteShardClient(server.address) as cli:
        assert entries_of(cli.search(query).result) == \
            entries_of(reference.search(query))


def test_version_mismatch_gets_typed_error(make_server):
    server = make_server()
    query = random_queries(random.Random(52), 1)[0]
    frame = bytearray(encode_frame(MessageType.SEARCH_REQUEST,
                                   encode_search_request(query)))
    frame[2] = WIRE_VERSION + 1
    answer = raw_exchange(server.address, bytes(frame[:12]))
    assert header_of(answer)[2] == int(MessageType.ERROR)
    with RemoteShardClient(server.address) as cli:
        assert cli.health().ok


def test_half_frame_then_eof_is_survived(make_server):
    server = make_server()
    query = random_queries(random.Random(53), 1)[0]
    frame = encode_frame(MessageType.SEARCH_REQUEST,
                         encode_search_request(query))
    assert raw_exchange(server.address, frame[:len(frame) // 2]) == b""
    with RemoteShardClient(server.address) as cli:
        assert cli.health().ok


def test_response_type_frame_is_bad_request(make_server):
    server = make_server()
    with RemoteShardClient(server.address) as cli:
        frame = encode_frame(MessageType.SEARCH_RESPONSE, b"")
        with pytest.raises(RpcError) as info:
            cli._expect(frame, MessageType.SEARCH_RESPONSE, timeout=5.0)
        assert info.value.code is ErrorCode.BAD_REQUEST
        assert "not a request type" in str(info.value)
        # A typed refusal does not cost the connection.
        assert cli.health().ok and cli.reconnects == 1


def test_undecodable_payload_is_bad_request(make_server):
    server = make_server()
    with RemoteShardClient(server.address) as cli:
        frame = encode_frame(MessageType.SEARCH_REQUEST, b"\x01\x02\x03")
        with pytest.raises(RpcError) as info:
            cli._expect(frame, MessageType.SEARCH_RESPONSE, timeout=5.0)
        assert info.value.code is ErrorCode.BAD_REQUEST
    assert server.metrics.counter("net_protocol_errors_total").value == 1


# -- deadline, admission, typed errors ----------------------------------------


def test_spent_budget_is_empty_partial_without_touching_target(
        make_server, monkeypatch):
    server = make_server()
    touched = []
    owner, name = target_call(server)
    monkeypatch.setattr(owner, name,
                        lambda *args, **kwargs: touched.append(args))
    query = random_queries(random.Random(54), 1)[0]
    with RemoteShardClient(server.address) as cli:
        remote = cli.search(query, budget=0.0)
    assert remote.partial and remote.result.entries == []
    assert not touched
    assert server.metrics.counter("net_deadline_expired_total").value == 1


def test_saturated_server_sheds_searches_but_answers_operators(
        make_server, monkeypatch):
    """One slot, held by a search stalled inside the target.

    SEARCH frames and ``SELECT`` statements are shed typed (and
    counted); ``SHOW``, HEALTH and STATS — what an operator reaches for
    exactly now — are answered, and unparseable text is still a parse
    error, not an ``OVERLOAD``.
    """
    server = make_server(max_inflight=1)
    entered, release = threading.Event(), threading.Event()
    owner, name = target_call(server)
    real = getattr(owner, name)

    def stalled(query, timeout=None):
        entered.set()
        release.wait(timeout=10.0)
        return real(query, timeout)

    monkeypatch.setattr(owner, name, stalled)
    query = random_queries(random.Random(55), 1)[0]
    held = []

    def hold():
        with RemoteShardClient(server.address) as cli:
            held.append(cli.search(query))

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert entered.wait(timeout=5.0)
        overload = server.metrics.counter("net_overload_total")
        with RemoteShardClient(server.address) as cli:
            assert cli.execute_statement("SHOW METRICS").kind == "table"
            shards = cli.execute_statement("SHOW SHARDS")
            assert shards.table["shards.total"] >= 1.0
            assert cli.health().ok
            assert cli.stats()["net_overload_total"] == 0
            with pytest.raises(RpcError) as info:
                cli.execute_statement("EXPLAIN SHOW METRICS")
            assert info.value.code is ErrorCode.BAD_REQUEST
            assert "^" in str(info.value)
            with pytest.raises(OverloadError):
                cli.search(query)
            assert overload.value == 1
            with pytest.raises(OverloadError):
                cli.execute_statement(SELECT)
            assert overload.value == 2
    finally:
        release.set()
        holder.join(timeout=10.0)
    assert not holder.is_alive()
    assert held and not held[0].partial
    # The slot came back with the held search.
    with RemoteShardClient(server.address) as cli:
        assert not cli.search(query).partial


def test_failing_target_is_internal_carrying_the_type_name(make_server,
                                                           monkeypatch):
    server = make_server()

    def broken(query, timeout=None):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(*target_call(server), broken)
    query = random_queries(random.Random(56), 1)[0]
    with RemoteShardClient(server.address) as cli:
        with pytest.raises(RpcError) as info:
            cli.search(query)
        assert info.value.code is ErrorCode.INTERNAL
        assert "ZeroDivisionError: boom" in str(info.value)
        # The slot was released and the connection kept.
        monkeypatch.undo()
        assert not cli.search(query).partial
        assert cli.reconnects == 1


def test_parse_error_is_bad_request_with_caret(make_server):
    server = make_server()
    with RemoteShardClient(server.address) as cli:
        with pytest.raises(RpcError) as info:
            cli.execute_statement("SELEKT 1 FROM nowhere")
    assert info.value.code is ErrorCode.BAD_REQUEST
    assert "^" in str(info.value)
    prefix = PREFIX[make_server.kind]
    assert server.metrics.counter(
        prefix + "statement_errors_total").value == 1
    assert server.metrics.counter(prefix + "statements_total").value == 1


def test_repeated_statement_is_parsed_once(make_server, monkeypatch,
                                           reference):
    import repro.lang.executor as executor_mod

    server = make_server()
    real_parse = executor_mod.parse
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(executor_mod, "parse", counting_parse)
    with RemoteShardClient(server.address) as cli:
        first = cli.execute_statement(SELECT)
        second = cli.execute_statement(SELECT)
    assert parsed == [SELECT]
    assert entries_of(first.search.result) == \
        entries_of(second.search.result) == \
        entries_of(reference.search(real_parse(SELECT).query()))


# -- HEALTH / STATS shape -----------------------------------------------------


def test_health_and_stats_key_sets(make_server, collection):
    server = make_server()
    prefix = PREFIX[make_server.kind]
    query = random_queries(random.Random(57), 1)[0]
    with RemoteShardClient(server.address) as cli:
        cli.search(query)
        report = cli.health()
        stats = cli.stats()
    assert report.ok and report.num_pois == len(collection)
    assert report.requests_total == 2  # the search and this probe
    assert report.uptime_seconds >= 0.0
    assert {"uptime_seconds", prefix + "requests_total",
            prefix + "connections_total"} | STATS_EXTRAS[make_server.kind] \
        <= set(stats)
    assert stats[prefix + "requests_total"] == 3
    stem = LATENCY_STEM[make_server.kind]
    assert {stem + key for key in ("count", "mean", "p50", "p95", "p99")} \
        <= set(stats)


# -- shutdown -----------------------------------------------------------------


def test_stop_drops_pooled_connections_and_port_is_reusable(make_server,
                                                            reference):
    server = make_server()
    host, port = server.address
    query = random_queries(random.Random(58), 1)[0]
    want = entries_of(reference.search(query))
    with RemoteShardClient(server.address) as early, \
            RemoteShardClient(server.address) as late:
        for cli in (early, late):
            assert entries_of(cli.search(query).result) == want
        server.stop()
        server.stop()  # idempotent
        # Each client holds a pooled connection the server just dropped:
        # against a dead server that is a typed transport failure ...
        with pytest.raises(TransportError):
            early.health(timeout=1.0)
        make_server(host=host, port=port)
        # ... and against a restarted one the client must notice the
        # stale socket and reconnect rather than hang or fail for good.
        assert entries_of(late.search(query).result) == want
        assert late.reconnects == 2


# -- what the one loop costs --------------------------------------------------


def test_idle_connections_cost_parked_threads_and_stop_reaps_them(
        router, reference):
    """200 idle connections, then real traffic on the 201st.

    The thread-per-connection loop is the only one: this is the traffic
    shape the deleted event loop was kept for, checked instead of
    guessed.  ``stop()`` must come back promptly and leave no server
    thread behind.
    """
    front = ClusterFrontend(router).start()
    idle = []
    try:
        for _ in range(200):
            idle.append(socket.create_connection(front.address,
                                                 timeout=5.0))
        with RemoteShardClient(front.address) as cli:
            for query in random_queries(random.Random(59), 20):
                remote = cli.search(query)
                assert not remote.partial and not remote.degraded
                assert entries_of(remote.result) == \
                    entries_of(reference.search(query))
            assert cli.stats()["net_frontend_connections_total"] == 201
        began = time.monotonic()
        front.stop()
        assert time.monotonic() - began < 5.0
        assert [t.name for t in threading.enumerate()
                if t.name.startswith("desks-frontdoor-")] == []
    finally:
        front.stop()
        for conn in idle:
            conn.close()


def test_importing_the_package_does_not_import_asyncio():
    """Every shard-server process and the driver import ``repro.net``;
    none of them runs an event loop, so none should pay for one."""
    code = ("import sys; import repro.net; "
            "from repro.net import ClusterFrontend, ShardServer; "
            "sys.exit('asyncio' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    assert subprocess.run([sys.executable, "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": src},
                          ).returncode == 0


def test_serve_has_no_worker_pool_option(capsys):
    """The front door runs admitted requests on connection threads;
    ``max_inflight`` is its only concurrency bound."""
    from repro.cli import main

    with pytest.raises(SystemExit) as info:
        main(["serve", "deploy", "--workers", "4"])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err
    with pytest.raises(TypeError):
        ClusterFrontend(None, num_workers=4)

"""ShardServer + RemoteShardClient: equivalence, shedding, robustness.

The server fixtures run in-process on background threads; every test
still crosses a real TCP socket through the real wire format.
"""

import random
import socket
import struct
import threading

import pytest

from benchmarks.closed_loop import run_closed_loop
from repro.cluster import ShardUnavailableError
from repro.core import DesksIndex, DesksSearcher, DirectionalQuery
from repro.net import (
    OverloadError,
    RemoteReplicaSet,
    RemoteShardClient,
    RpcError,
    ShardServer,
    TransportError,
)
from repro.net.protocol import (
    HEADER_FORMAT,
    MAGIC,
    MessageType,
    WIRE_VERSION,
    encode_frame,
    encode_search_request,
)
from repro.service import MetricsRegistry

from ..cluster.conftest import rare_keyword_queries, with_rare_keyword
from .conftest import entries_of, make_collection, random_queries


# -- correctness --------------------------------------------------------------


def test_remote_search_equals_local(client, reference):
    queries = random_queries(random.Random(11), 25)
    for query in queries:
        remote = client.search(query)
        assert not remote.partial
        assert entries_of(remote.result) == \
            entries_of(reference.search(query))


def test_closed_loop_over_the_socket(client, server):
    """The load generator drives a socket as it drives an engine: every
    request answered, none shed, each one counted by the server."""
    queries = random_queries(random.Random(12), 6)
    before = server.metrics.counter("net_requests_total").value
    report = run_closed_loop(client.search, queries, num_clients=2,
                             requests_per_client=5,
                             shed_on=(OverloadError, TransportError))
    assert report.total_queries == report.latency["count"] == 10
    assert report.errors == 0
    assert report.shed == {"OverloadError": 0, "TransportError": 0}
    assert server.metrics.counter("net_requests_total").value - before == 10


def test_remote_search_carries_stats_and_generation(client, server):
    query = random_queries(random.Random(5), 1)[0]
    remote = client.search(query)
    assert remote.generation == server.engine.generation
    assert remote.stats is not None
    assert remote.stats.pois_examined >= len(remote.result.entries)
    assert remote.server_latency >= 0.0


def test_health_rpc(client, server, collection):
    report = client.health()
    assert report.ok
    assert report.shard_id == server.shard_id
    assert report.num_pois == len(collection)
    assert report.uptime_seconds >= 0.0


def test_stats_rpc(client):
    query = random_queries(random.Random(6), 1)[0]
    client.search(query)
    stats = client.stats()
    assert stats["net_requests_total"] >= 1
    assert "net_connections_total" in stats
    assert "uptime_seconds" in stats


def test_shared_client_is_thread_safe(client, reference):
    queries = random_queries(random.Random(21), 12)
    failures = []

    def worker(offset):
        for query in queries[offset::3]:
            got = client.search(query)
            if entries_of(got.result) != \
                    entries_of(reference.search(query)):
                failures.append(query)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures


# -- deadline propagation -----------------------------------------------------


def test_expired_budget_returns_partial_without_searching(client, server):
    """Budget 0 at arrival → empty partial now, no index work queued."""
    before = server.metrics.counter("net_deadline_expired_total").value
    query = random_queries(random.Random(8), 1)[0]
    remote = client.search(query, budget=0.0)
    assert remote.partial
    assert remote.result.entries == []
    after = server.metrics.counter("net_deadline_expired_total").value
    assert after == before + 1


def test_generous_budget_still_answers_fully(client, reference):
    query = random_queries(random.Random(9), 1)[0]
    remote = client.search(query, budget=30.0)
    assert not remote.partial
    assert entries_of(remote.result) == entries_of(reference.search(query))


# -- rare keywords: the shard answers from posting lists ------------------------


@pytest.fixture(scope="module")
def rare_server():
    """The module corpus plus a keyword rare enough that the shard's
    searcher walks its posting list instead of the regions."""
    index = DesksIndex(with_rare_keyword(make_collection()), num_bands=4,
                       num_wedges=5)
    srv = ShardServer(index, shard_id=0, num_workers=2).start()
    yield srv, DesksSearcher(index)
    srv.stop()


def test_remote_rare_keyword_search_equals_the_region_search(rare_server):
    srv, reference = rare_server
    with RemoteShardClient(srv.address) as cli:
        for query in rare_keyword_queries():
            remote = cli.search(query)
            assert not remote.partial
            assert remote.stats.regions_examined == 0     # posting path
            assert remote.stats.pois_examined > 0
            assert entries_of(remote.result) == \
                entries_of(reference.search_regions(query))


def test_budget_spent_on_the_posting_path_is_a_typed_partial(rare_server):
    """A budget that reaches the shard alive and dies before the walk:
    the searcher's own deadline check answers, typed and empty."""
    srv, _ = rare_server
    before = srv.metrics.counter("net_deadline_expired_total").value
    with RemoteShardClient(srv.address) as cli:
        # k = 7: in no earlier query, so the result cache cannot answer.
        query = DirectionalQuery.undirected(50.0, 50.0, ["kiosk"], k=7)
        remote = cli.search(query, budget=1e-9)
    assert remote.partial
    assert remote.result.entries == []
    assert remote.stats.pois_examined == 0
    # Not the server's spent-on-arrival shortcut: the search ran.
    assert srv.metrics.counter("net_deadline_expired_total").value == before


# -- admission control --------------------------------------------------------


def test_overload_sheds_with_typed_error(index):
    """One slot + a stalled engine: concurrent searches shed typed."""
    server = ShardServer(index, shard_id=0, num_workers=2,
                         max_inflight=1).start()
    try:
        entered = threading.Event()
        release = threading.Event()
        real_submit = server.engine.submit

        def stalled_submit(query, timeout=None):
            entered.set()
            release.wait(timeout=10.0)
            return real_submit(query, timeout)

        server.engine.submit = stalled_submit
        query = random_queries(random.Random(3), 1)[0]
        first_result = []

        def first():
            with RemoteShardClient(server.address) as cli:
                first_result.append(cli.search(query))

        holder = threading.Thread(target=first)
        holder.start()
        assert entered.wait(timeout=5.0)
        with RemoteShardClient(server.address) as cli:
            for _ in range(3):
                with pytest.raises(OverloadError):
                    cli.search(query)
        release.set()
        holder.join(timeout=10.0)
        assert first_result and not first_result[0].partial
        assert server.metrics.counter("net_overload_total").value == 3
    finally:
        release.set()
        server.stop()


# -- robustness: the connection is the unit of damage -------------------------


def raw_exchange(address, blob, recv_bytes=4096):
    """Send raw bytes, return whatever the server answers (or b'').

    The server closes a poisoned connection right after its best-effort
    error frame; depending on timing our half-close or read can race the
    server's close (ENOTCONN/ECONNRESET).  Those races are fine — the
    assertion that matters is typed-error-or-drop, never a hang.
    """
    with socket.create_connection(address, timeout=5.0) as conn:
        conn.sendall(blob)
        try:
            conn.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # server already closed on us
        chunks = []
        while True:
            try:
                chunk = conn.recv(recv_bytes)
            except (ConnectionResetError, socket.timeout):
                break
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


def test_garbage_bytes_get_typed_error_and_server_survives(server, client,
                                                           reference):
    # Exactly one header's worth of garbage: the server consumes it all,
    # so its error frame and close arrive cleanly (no RST from unread
    # bytes making the answer racy).
    answer = raw_exchange(server.address, b"\x00" * 12)
    # Best-effort typed ERROR frame before the drop.
    magic, version, msg_type = struct.unpack_from(HEADER_FORMAT[:4],
                                                  answer)[:3]
    assert (magic, version, msg_type) == (MAGIC, WIRE_VERSION,
                                          int(MessageType.ERROR))
    # The damage stopped at that connection: fresh requests still work.
    query = random_queries(random.Random(14), 1)[0]
    assert entries_of(client.search(query).result) == \
        entries_of(reference.search(query))


def test_version_mismatch_gets_typed_error(server, client):
    query = random_queries(random.Random(15), 1)[0]
    frame = bytearray(encode_frame(MessageType.SEARCH_REQUEST,
                                   encode_search_request(query)))
    frame[2] = WIRE_VERSION + 1
    # Send only the header: version is rejected before the payload is
    # read, and an empty receive buffer keeps the server's answer clean.
    answer = raw_exchange(server.address, bytes(frame[:12]))
    assert struct.unpack_from("!HBB", answer)[2] == int(MessageType.ERROR)
    assert client.health().ok  # server is still serving


def test_half_frame_then_eof_is_survived(server, client):
    query = random_queries(random.Random(16), 1)[0]
    frame = encode_frame(MessageType.SEARCH_REQUEST,
                         encode_search_request(query))
    assert raw_exchange(server.address, frame[:len(frame) // 2]) == b""
    assert client.health().ok


def test_non_request_frame_type_is_rejected_typed(server):
    with RemoteShardClient(server.address) as cli:
        frame = encode_frame(MessageType.SEARCH_RESPONSE, b"")
        with pytest.raises(RpcError) as excinfo:
            cli._expect(frame, MessageType.SEARCH_RESPONSE, timeout=5.0)
        assert "not a request type" in str(excinfo.value)


def test_dead_server_raises_transport_error(index):
    server = ShardServer(index, shard_id=0, num_workers=1).start()
    address = server.address
    server.stop()
    with RemoteShardClient(address) as cli:
        with pytest.raises(TransportError):
            cli.health(timeout=1.0)


def test_client_reconnects_across_server_restart(index, reference):
    server = ShardServer(index, shard_id=0, num_workers=1).start()
    port = server.address[1]
    query = random_queries(random.Random(17), 1)[0]
    with RemoteShardClient(server.address) as cli:
        assert entries_of(cli.search(query).result) == \
            entries_of(reference.search(query))
        server.stop()
        restarted = ShardServer(index, host="127.0.0.1", port=port,
                                shard_id=0, num_workers=1).start()
        try:
            # The pooled connection is stale; the client must notice and
            # reconnect rather than hang or fail permanently.
            got = cli.search(query)
            assert entries_of(got.result) == \
                entries_of(reference.search(query))
        finally:
            restarted.stop()


def test_restart_with_several_pooled_connections_reconnects(index,
                                                            reference):
    """Every idle connection goes stale with the server that made it.

    The first stale one drops the whole pool and the retry dials fresh,
    so the caller sees one transparent stale retry — never a failure
    after two stale sockets in a row.
    """
    server = ShardServer(index, shard_id=0, num_workers=1).start()
    port = server.address[1]
    query = random_queries(random.Random(18), 1)[0]
    metrics = MetricsRegistry()
    with RemoteShardClient(server.address, metrics=metrics) as cli:
        held = [cli._acquire()[0] for _ in range(2)]
        for conn in held:
            cli._release(conn)
        assert cli.reconnects == 2
        server.stop()
        restarted = ShardServer(index, host="127.0.0.1", port=port,
                                shard_id=0, num_workers=1).start()
        try:
            got = cli.search(query)
            assert entries_of(got.result) == \
                entries_of(reference.search(query))
            assert cli.reconnects == 3
            assert len(cli._idle) == 1
        finally:
            restarted.stop()
    counters = metrics.to_dict()["counters"]
    assert counters["net_client_stale_retries_total"] == 1


# -- replica failover ---------------------------------------------------------


def test_replica_set_fails_over_and_marks_unhealthy(index, reference):
    alive = ShardServer(index, shard_id=0, num_workers=1).start()
    doomed = ShardServer(index, shard_id=0, num_workers=1).start()
    doomed_address = doomed.address
    try:
        replicas = RemoteReplicaSet(
            0, [doomed_address, alive.address])
        try:
            doomed.stop()
            queries = random_queries(random.Random(19), 6)
            retried = 0
            for query in queries:
                response, retries = replicas.execute(query, timeout=5.0)
                retried += retries
                assert entries_of(response.result) == \
                    entries_of(reference.search(query))
            assert retried > 0, "the dead replica was never even tried"
            # The dead replica goes *unhealthy*: tried last, recovers on
            # success.
            summary = {row["address"]: row
                       for row in replicas.health_summary()}
            doomed_row = summary[
                f"{doomed_address[0]}:{doomed_address[1]}"]
            assert not doomed_row["healthy"]
            assert doomed_row["consecutive_failures"] >= 3
        finally:
            replicas.close()
    finally:
        alive.stop()
        doomed.stop()


def test_all_replicas_down_raises_shard_unavailable(index):
    server = ShardServer(index, shard_id=0, num_workers=1).start()
    address = server.address
    server.stop()
    replicas = RemoteReplicaSet(0, [address])
    try:
        query = random_queries(random.Random(20), 1)[0]
        with pytest.raises(ShardUnavailableError):
            replicas.execute(query, timeout=1.0)
    finally:
        replicas.close()


# -- DQL statement frames -----------------------------------------------------


def test_statement_select_equals_binary_search(client, reference):
    from repro.lang import plan_from_query

    for query in random_queries(random.Random(41), 10):
        remote = client.execute_statement(plan_from_query(query).render())
        assert remote.kind == "search"
        local = reference.search(query)
        assert entries_of(remote.search.result) == entries_of(local)


def test_statement_show_metrics(client):
    remote = client.execute_statement("SHOW METRICS")
    assert remote.kind == "table"
    assert remote.table["queries_total"] >= 0.0


def test_statement_explain_reconciles_remotely(client):
    remote = client.execute_statement(
        "EXPLAIN SELECT 3 NEAR (50.0, 50.0) HEADING [0.5, 2.0] "
        "MATCHING 'cafe'")
    assert remote.kind == "text"
    assert "reconciliation (OK)" in remote.text


def test_statement_parse_error_is_bad_request_with_caret(client):
    with pytest.raises(RpcError) as info:
        client.execute_statement("SELEKT 1 FROM nowhere")
    assert not isinstance(info.value, OverloadError)
    assert "^" in str(info.value)


def test_statement_counts_in_server_metrics(server, client):
    before = server.metrics.counter("net_statements_total").value
    client.execute_statement("SHOW METRICS")
    assert server.metrics.counter("net_statements_total").value > before


def test_repeated_statement_is_parsed_once(server, client, monkeypatch):
    """STATEMENT frames resolve plans through the executor's prepared-plan
    cache, like the front door — not a fresh parse per frame."""
    import repro.lang.executor as executor_mod
    import repro.net.server as server_mod

    real_parse = executor_mod.parse
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(executor_mod, "parse", counting_parse)
    monkeypatch.setattr(server_mod, "parse", counting_parse, raising=False)
    statement = "SELECT 2 NEAR (50.0, 50.0) MATCHING 'cafe'"
    first = client.execute_statement(statement)
    second = client.execute_statement(statement)
    assert parsed == [statement]
    assert entries_of(second.search.result) == \
        entries_of(first.search.result)

"""The out-of-process shard server: one durable shard behind a socket.

:class:`ShardServer` owns one shard's index (an in-memory
:class:`~repro.core.DesksIndex`, a saved index directory, or a durable
directory recovered via :class:`~repro.durability.DurableMutableIndex`)
wrapped in a PR-1 :class:`~repro.service.QueryEngine`, and serves the
:mod:`repro.net.protocol` RPCs over TCP:

* a blocking accept loop hands each connection to its own handler thread
  (connections are long-lived and mostly idle, so they must not occupy
  pool workers while waiting for the next frame);
* search work runs on the engine's worker pool, bounded by an admission
  semaphore: when ``max_inflight`` searches are already running the
  server answers with a typed ``OVERLOAD`` error *immediately* instead
  of queueing the request — the caller (front door or client) decides
  whether to fail over, retry, or surface the shed;
* the request's remaining deadline budget crosses the wire: an already
  expired budget returns an empty ``partial=True`` answer without
  touching the index, and a live one becomes the engine's cooperative
  :class:`~repro.service.Deadline`;
* malformed frames (bad magic, corrupt CRC, truncated payloads) get a
  best-effort typed error and cost only that connection — the accept
  loop and every other connection keep serving.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Optional, Union

from ..analysis import make_lock
from ..core import (
    DesksIndex,
    MutableDesksIndex,
    PruningMode,
    QueryResult,
    load_index,
)
from ..lang import (
    DqlError,
    DqlExecutor,
    DqlSyntaxError,
    EngineBackend,
    ShowPlan,
)
from ..service import MetricsRegistry, QueryEngine
from . import protocol
from .protocol import ErrorCode, MessageType

#: Seconds the accept loop sleeps between shutdown-flag polls when the
#: listening socket has a timeout (keeps stop() latency bounded).
_ACCEPT_POLL = 0.2


def load_shard(path: str) -> Union[DesksIndex, MutableDesksIndex]:
    """Load the index stored at ``path`` — saved or durable directory.

    A durable directory (WAL + checkpoints, PR 3) is recovered through
    :class:`~repro.durability.DurableMutableIndex` so the server replays
    any tail the last checkpoint missed; a plain saved index loads
    through :func:`~repro.core.load_index`.
    """
    from ..durability import DurableMutableIndex, is_durable_dir

    if is_durable_dir(path):
        return DurableMutableIndex.recover(path)
    return load_index(path)


class ShardServer:
    """Serve one shard's search/health/stats RPCs on a TCP socket."""

    def __init__(self, index: Union[DesksIndex, MutableDesksIndex, str],
                 host: str = "127.0.0.1", port: int = 0,
                 shard_id: int = 0,
                 num_workers: int = 4,
                 max_inflight: Optional[int] = None,
                 mode: PruningMode = PruningMode.RD,
                 cache_capacity: int = 128,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if isinstance(index, str):
            index = load_shard(index)
        self.shard_id = shard_id
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.engine = QueryEngine(index, num_workers=num_workers,
                                  mode=mode, cache_capacity=cache_capacity,
                                  metrics=self.metrics)
        if max_inflight is None:
            max_inflight = 2 * num_workers
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1: {max_inflight}")
        self.max_inflight = max_inflight
        self._inflight = threading.BoundedSemaphore(max_inflight)
        # Statement frames run through the same executor surface the CLI
        # uses; binding it to the engine keeps the text path and the
        # binary query path answer-identical (same cache, same deadline).
        self._statements = DqlExecutor(EngineBackend(self.engine))
        self._started = time.monotonic()
        self._lock = make_lock("net.server")
        self._closed = False
        self._connections: set = set()
        self._accept_thread: Optional[threading.Thread] = None
        self._listener = socket.create_server((host, port), reuse_port=False)
        self._listener.settimeout(_ACCEPT_POLL)
        self.address = self._listener.getsockname()[:2]

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`stop` is called."""
        while True:
            with self._lock:
                if self._closed:
                    return
            try:
                conn, _peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us by stop()
            self.metrics.counter("net_connections_total").increment()
            with self._lock:
                if self._closed:
                    # stop() won the race between accept and dispatch.
                    try:
                        conn.close()
                    except OSError:
                        pass
                    return
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"desks-net-conn-{self.shard_id}", daemon=True)
            thread.start()

    def start(self) -> "ShardServer":
        """Run :meth:`serve_forever` on a background thread (tests)."""
        thread = threading.Thread(target=self.serve_forever,
                                  name=f"desks-net-accept-{self.shard_id}",
                                  daemon=True)
        thread.start()
        self._accept_thread = thread
        return self

    def stop(self) -> None:
        """Close the listener and every live connection; stop the engine.

        Open connections are dropped rather than drained: a pooled
        client notices the EOF as a stale connection and reconnects,
        which is exactly the failover path it already has to handle —
        answering late requests from a half-dead server would be worse.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            live = list(self._connections)
            self._connections.clear()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self.engine.close()

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling -------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve frames on one connection until EOF or a protocol error."""
        conn.settimeout(None)

        def recv_exactly(count: int) -> bytes:
            chunks = []
            remaining = count
            while remaining:
                chunk = conn.recv(remaining)
                if not chunk:
                    break
                chunks.append(chunk)
                remaining -= len(chunk)
            return b"".join(chunks)

        try:
            while True:
                try:
                    msg_type, payload = protocol.read_frame(recv_exactly)
                except protocol.TruncatedFrame:
                    return  # clean EOF or a peer that died mid-frame
                except OSError:
                    return  # connection reset, or closed under us by stop()
                except protocol.ProtocolError as exc:
                    # The stream is unparseable past this point: tell the
                    # peer what was wrong (best effort) and drop it.  The
                    # server itself stays up.
                    self.metrics.counter(
                        "net_protocol_errors_total").increment()
                    self._try_send(conn, protocol.encode_frame(
                        MessageType.ERROR, protocol.encode_error(
                            ErrorCode.BAD_REQUEST, str(exc))))
                    return
                frame = self._dispatch(msg_type, payload)
                if not self._try_send(conn, frame):
                    return
        finally:
            with self._lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    @staticmethod
    def _try_send(conn: socket.socket, frame: bytes) -> bool:
        try:
            conn.sendall(frame)
            return True
        except OSError:
            return False

    # -- request dispatch ----------------------------------------------------

    def _dispatch(self, msg_type: MessageType, payload: bytes) -> bytes:
        """One request frame in, one response frame out."""
        self.metrics.counter("net_requests_total").increment()
        try:
            if msg_type is MessageType.SEARCH_REQUEST:
                return self._handle_search(payload)
            if msg_type is MessageType.HEALTH_REQUEST:
                return self._handle_health()
            if msg_type is MessageType.STATS_REQUEST:
                return self._handle_stats()
            if msg_type is MessageType.STATEMENT_REQUEST:
                return self._handle_statement(payload)
        except protocol.ProtocolError as exc:
            self.metrics.counter("net_protocol_errors_total").increment()
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(ErrorCode.BAD_REQUEST, str(exc)))
        except Exception as exc:  # noqa: BLE001 - typed to the peer
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(
                    ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"))
        return protocol.encode_frame(
            MessageType.ERROR,
            protocol.encode_error(
                ErrorCode.BAD_REQUEST,
                f"{msg_type.name} is not a request type"))

    def _handle_search(self, payload: bytes) -> bytes:
        query, budget = protocol.decode_search_request(payload)
        if budget is not None and budget <= 0.0:
            # The caller's deadline was spent before the request arrived:
            # answer partial-and-empty *now* rather than queue work whose
            # answer nobody is waiting for.
            self.metrics.counter("net_deadline_expired_total").increment()
            return protocol.encode_frame(
                MessageType.SEARCH_RESPONSE,
                protocol.encode_search_response(
                    QueryResult([], partial=True),
                    generation=self.engine.generation))
        if not self._inflight.acquire(blocking=False):
            self.metrics.counter("net_overload_total").increment()
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(
                    ErrorCode.OVERLOAD,
                    f"shard {self.shard_id} at its {self.max_inflight} "
                    "in-flight search limit"))
        try:
            response = self.engine.submit(query, budget).result()
        finally:
            self._inflight.release()
        return protocol.encode_frame(
            MessageType.SEARCH_RESPONSE,
            protocol.encode_search_response(
                response.result,
                cached=response.cached,
                generation=response.generation,
                server_latency=response.latency_seconds,
                stats=response.stats,
                degraded=response.degraded,
                failure_cause=response.failure_cause))

    def _handle_statement(self, payload: bytes) -> bytes:
        """Parse and execute one DQL statement frame.

        Parse failures answer ``BAD_REQUEST`` carrying the caret
        rendering (statement + ``^`` + reason) — the same text the local
        CLI shows.  ``SELECT`` and ``EXPLAIN`` statements run a search,
        so they sit under the same admission semaphore as binary search
        frames; ``SHOW`` is cheap operator traffic and bypasses it.
        """
        statement, budget = protocol.decode_statement_request(payload)
        self.metrics.counter("net_statements_total").increment()
        try:
            plan = self._statements.prepare(statement)
        except DqlSyntaxError as exc:
            self.metrics.counter("net_statement_errors_total").increment()
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(ErrorCode.BAD_REQUEST, exc.render()))
        gated = not isinstance(plan, ShowPlan)
        if gated and not self._inflight.acquire(blocking=False):
            self.metrics.counter("net_overload_total").increment()
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(
                    ErrorCode.OVERLOAD,
                    f"shard {self.shard_id} at its {self.max_inflight} "
                    "in-flight search limit"))
        try:
            outcome = self._statements.execute(plan, budget)
        except DqlError as exc:
            self.metrics.counter("net_statement_errors_total").increment()
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(ErrorCode.INTERNAL, str(exc)))
        finally:
            if gated:
                self._inflight.release()
        return protocol.encode_frame(
            MessageType.STATEMENT_RESPONSE,
            protocol.encode_statement_outcome(outcome))

    def _handle_health(self) -> bytes:
        report = protocol.HealthReport(
            ok=True,
            shard_id=self.shard_id,
            generation=self.engine.generation,
            num_pois=len(self.engine.index.collection),
            requests_total=self.metrics.counter("net_requests_total").value,
            uptime_seconds=time.monotonic() - self._started)
        return protocol.encode_frame(MessageType.HEALTH_RESPONSE,
                                     protocol.encode_health_response(report))

    def _handle_stats(self) -> bytes:
        snapshot = self.metrics.to_dict()
        values = {"uptime_seconds": snapshot["uptime_seconds"],
                  "shard_id": self.shard_id,
                  "pid": os.getpid()}
        for name, value in snapshot["counters"].items():
            values[name] = value
        latency = snapshot["histograms"].get("query_latency_seconds")
        if latency:
            for key in ("count", "mean", "p50", "p95", "p99"):
                values[f"query_latency_{key}"] = latency[key]
        return protocol.encode_frame(MessageType.STATS_RESPONSE,
                                     protocol.encode_stats_response(values))


def run_shard_server(directory: str, host: str = "127.0.0.1",
                     port: int = 0, shard_id: int = 0,
                     num_workers: int = 4,
                     max_inflight: Optional[int] = None,
                     cache_capacity: int = 128,
                     mode: PruningMode = PruningMode.RD) -> int:
    """CLI entry: load ``directory``, announce readiness, serve forever.

    Prints ``SHARD-SERVER READY <host> <port>`` on stdout once the
    socket is bound and the index is loaded — the line
    :class:`~repro.net.launcher.ClusterLauncher` waits for — then blocks
    in the accept loop until interrupted.
    """
    server = ShardServer(directory, host=host, port=port,
                         shard_id=shard_id, num_workers=num_workers,
                         max_inflight=max_inflight,
                         cache_capacity=cache_capacity, mode=mode)
    bound_host, bound_port = server.address
    print(f"SHARD-SERVER READY {bound_host} {bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.stop()
    return 0

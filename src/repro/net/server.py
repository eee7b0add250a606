"""The frame server: one accept loop, one connection loop, one dispatcher.

:class:`FrameServer` is the only socket server in the tree.  It serves
the :mod:`repro.net.protocol` RPCs over TCP and owns everything a peer
can observe about *how* it is answered:

* a blocking accept loop hands each connection to its own handler thread
  (connections are long-lived and mostly idle, so they must not occupy
  pool workers while waiting for the next frame; an idle connection
  costs one parked thread — measured in ``docs/NETWORK.md``);
* searches sit under one non-blocking admission semaphore: when
  ``max_inflight`` searches are already running the server answers with
  a typed ``OVERLOAD`` error *immediately* instead of queueing the
  request — the caller decides whether to fail over, retry, or surface
  the shed.  ``SHOW`` statements, HEALTH and STATS are cheap operator
  traffic and are never shed: they are what an operator needs exactly
  when the server is saturated;
* the request's remaining deadline budget crosses the wire: an already
  expired budget returns an empty ``partial=True`` answer without
  touching the target, and a live one becomes the target's cooperative
  deadline;
* statement text is parsed *before* admission, through the executor's
  prepared-plan cache, so unparseable text is a caret-carrying
  ``BAD_REQUEST`` (never an ``OVERLOAD``) and a repeated statement is
  parsed once;
* malformed frames (bad magic, corrupt CRC, truncated payloads) get a
  best-effort typed error and cost only that connection — the accept
  loop and every other connection keep serving.

What differs between the two servers is only what answers an admitted
request:

* :class:`ShardServer` owns one shard's index (an in-memory
  :class:`~repro.core.DesksIndex`, a saved index directory, or a durable
  directory recovered via :class:`~repro.durability.DurableMutableIndex`)
  wrapped in a PR-1 :class:`~repro.service.QueryEngine`; search frames
  run on the engine's worker pool;
* :class:`ClusterFrontend` is the front door at the edge of a
  deployment: it funnels requests into a
  :class:`~repro.cluster.ShardRouter` — local shards or
  :class:`~repro.net.RemoteReplicaSet` transports, it cannot tell — on
  the connection's own thread, and forwards a brownout as a typed
  partial naming the lost shards.  Replica failover is the router's
  transport's job; the front door only has to not fall over.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

from ..cluster import SHARD_CACHE_CAPACITY, ShardRouter
from ..core import (
    DesksIndex,
    DirectionalQuery,
    MutableDesksIndex,
    QueryResult,
    load_index,
)
from ..lang import (
    DqlError,
    DqlExecutor,
    DqlSyntaxError,
    EngineBackend,
    RouterBackend,
    ShowPlan,
)
from ..service import Counter, MetricsRegistry, QueryEngine
from . import protocol
from .protocol import ErrorCode, MessageType

#: Seconds the accept loop sleeps between shutdown-flag polls when the
#: listening socket has a timeout (keeps stop() latency bounded).
_ACCEPT_POLL = 0.2

#: Seconds stop() waits for the accept thread, and then for the
#: connection threads together, before giving up on them.
_STOP_JOIN = 5.0

_Server = TypeVar("_Server", bound="FrameServer")


def load_shard(path: str) -> Union[DesksIndex, MutableDesksIndex]:
    """Load the index stored at ``path`` — saved or durable directory.

    A durable directory (WAL + checkpoints, PR 3) is recovered through
    :class:`~repro.durability.DurableMutableIndex` so the server replays
    any tail the last checkpoint missed; a plain saved index loads
    through :func:`~repro.core.load_index`.  Either way the directory is
    verified against its checksum manifest before a byte of it is
    parsed, so a damaged shard never starts serving.
    """
    from ..durability import DurableMutableIndex, is_durable_dir

    if is_durable_dir(path):
        return DurableMutableIndex.recover(path)
    return load_index(path)


def _error_frame(code: ErrorCode, message: str) -> bytes:
    return protocol.encode_frame(MessageType.ERROR,
                                 protocol.encode_error(code, message))


class FrameServer:
    """Serve search/statement/health/stats RPCs on a TCP socket.

    Subclasses supply the target: how one admitted search is answered
    (:meth:`_search`), the HEALTH identity (:meth:`_identity`), the
    STATS extras (:meth:`_stats_extras`), what :meth:`stop` closes
    (:meth:`_close_target`), and the three naming constants below.
    """

    #: Prefix of the per-server counters (connections, requests,
    #: statements, statement errors).  The shed, deadline and protocol
    #: error counters are ``net_*`` on every server.
    _counter_prefix = "net_"
    #: Latency histogram STATS flattens, and the key prefix it gets.
    _latency_histogram = "query_latency_seconds"
    _latency_keys = "query_latency_"

    def __init__(self, host: str, port: int, label: str, thread_name: str,
                 max_inflight: int, statements: DqlExecutor,
                 metrics: MetricsRegistry,
                 default_timeout: Optional[float] = None) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1: {max_inflight}")
        self.metrics = metrics
        self.max_inflight = max_inflight
        self.default_timeout = default_timeout
        self._label = label
        self._thread_name = thread_name
        # Admission must not block: a queued acquire *is* the unbounded
        # queue this gate exists to prevent.
        self._inflight = threading.BoundedSemaphore(max_inflight)
        self._statements = statements
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._closed = False
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._accept_thread: Optional[threading.Thread] = None
        self._listener = socket.create_server((host, port), reuse_port=False)
        self._listener.settimeout(_ACCEPT_POLL)
        #: ``(host, port)`` the listener is bound to.
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

    # -- the target (what a subclass supplies) -------------------------------

    def _search(self, query: DirectionalQuery,
                budget: Optional[float]) -> bytes:
        """Answer one admitted search: the SEARCH_RESPONSE payload."""
        raise NotImplementedError

    def _identity(self) -> Tuple[int, int, int]:
        """``(shard_id, generation, num_pois)`` as HEALTH reports them."""
        raise NotImplementedError

    def _stats_extras(self) -> dict:
        """STATS keys beyond uptime, counters and the latency summary."""
        raise NotImplementedError

    def _close_target(self) -> None:
        """Release what the server built for itself (default: nothing)."""

    # -- lifecycle ----------------------------------------------------------

    def _counter(self, name: str) -> Counter:
        return self.metrics.counter(self._counter_prefix + name)

    def _thread(self, role: str, target: Callable[..., None],
                *args: object) -> threading.Thread:
        return threading.Thread(target=target, args=args, daemon=True,
                                name=self._thread_name.format(role))

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
            self._counter("connections_total").increment()
            thread = self._thread("conn", self._serve_connection, conn)
            with self._lock:
                if self._closed:
                    # stop() won the race between accept and dispatch.
                    try:
                        conn.close()
                    except OSError:
                        pass
                    return
                # Started under the lock so stop() only ever sees (and
                # joins) running threads.
                self._connections[conn] = thread
                thread.start()

    def start(self: _Server) -> _Server:
        """Run :meth:`serve_forever` on a background thread."""
        self._accept_thread = self._thread("accept", self.serve_forever)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Close the listener and every live connection, then the target.

        Open connections are dropped rather than drained: a pooled
        client notices the EOF as a stale connection and reconnects,
        which is exactly the failover path it already has to handle —
        answering late requests from a half-dead server would be worse.
        A handler woken by the drop exits at once; one inside a request
        finishes it first, so the threads are joined on a shared budget.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            live = dict(self._connections)
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
            self._accept_thread.join(timeout=_STOP_JOIN)
        give_up = time.monotonic() + _STOP_JOIN
        for thread in live.values():
            thread.join(timeout=max(0.0, give_up - time.monotonic()))
        self._close_target()

    def __enter__(self: _Server) -> _Server:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling -------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        """Serve frames on one connection until EOF or a protocol error."""
        conn.settimeout(None)
        try:
            while True:
                try:
                    msg_type, payload = protocol.read_frame(conn.recv)
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
                    self._try_send(conn, _error_frame(
                        ErrorCode.BAD_REQUEST, str(exc)))
                    return
                frame = self._dispatch(msg_type, payload)
                if not self._try_send(conn, frame):
                    return
        finally:
            with self._lock:
                self._connections.pop(conn, None)
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
        self._counter("requests_total").increment()
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
            return _error_frame(ErrorCode.BAD_REQUEST, str(exc))
        except Exception as exc:  # desks: noqa-DAL011 - cause sent as a typed INTERNAL frame (tests/net/test_server_contract.py)
            return _error_frame(ErrorCode.INTERNAL,
                                f"{type(exc).__name__}: {exc}")
        return _error_frame(ErrorCode.BAD_REQUEST,
                            f"{msg_type.name} is not a request type")

    def _shed(self) -> bytes:
        self.metrics.counter("net_overload_total").increment()
        return _error_frame(
            ErrorCode.OVERLOAD,
            f"{self._label} at its {self.max_inflight} in-flight search "
            "limit")

    def _handle_search(self, payload: bytes) -> bytes:
        query, budget = protocol.decode_search_request(payload)
        if budget is None:
            budget = self.default_timeout
        if budget is not None and budget <= 0.0:
            # The caller's deadline was spent before the request arrived:
            # answer partial-and-empty *now* rather than queue work whose
            # answer nobody is waiting for.
            self.metrics.counter("net_deadline_expired_total").increment()
            _shard_id, generation, _num_pois = self._identity()
            answer = protocol.encode_search_response(
                QueryResult([], partial=True), generation=generation)
        elif not self._inflight.acquire(blocking=False):
            return self._shed()
        else:
            try:
                answer = self._search(query, budget)
            finally:
                self._inflight.release()
        return protocol.encode_frame(MessageType.SEARCH_RESPONSE, answer)

    def _handle_statement(self, payload: bytes) -> bytes:
        """Parse and execute one DQL statement frame.

        Parse failures answer ``BAD_REQUEST`` carrying the caret
        rendering (statement + ``^`` + reason) — the same text the local
        CLI shows.  ``SELECT`` and ``EXPLAIN`` statements run a search,
        so they sit under the same admission semaphore as binary search
        frames; ``SHOW`` is cheap operator traffic and bypasses it.
        """
        statement, budget = protocol.decode_statement_request(payload)
        self._counter("statements_total").increment()
        if budget is None:
            budget = self.default_timeout
        try:
            plan = self._statements.prepare(statement)
        except DqlSyntaxError as exc:
            self._counter("statement_errors_total").increment()
            return _error_frame(ErrorCode.BAD_REQUEST, exc.render())
        gated = not isinstance(plan, ShowPlan)
        if gated and not self._inflight.acquire(blocking=False):
            return self._shed()
        try:
            outcome = self._statements.execute(plan, budget)
        except DqlError as exc:
            self._counter("statement_errors_total").increment()
            return _error_frame(ErrorCode.INTERNAL, str(exc))
        finally:
            if gated:
                self._inflight.release()
        return protocol.encode_frame(
            MessageType.STATEMENT_RESPONSE,
            protocol.encode_statement_outcome(outcome))

    def _handle_health(self) -> bytes:
        shard_id, generation, num_pois = self._identity()
        report = protocol.HealthReport(
            ok=True, shard_id=shard_id, generation=generation,
            num_pois=num_pois,
            requests_total=self._counter("requests_total").value,
            uptime_seconds=time.monotonic() - self._started)
        return protocol.encode_frame(MessageType.HEALTH_RESPONSE,
                                     protocol.encode_health_response(report))

    def _handle_stats(self) -> bytes:
        snapshot = self.metrics.to_dict()
        values = {"uptime_seconds": snapshot["uptime_seconds"],
                  **self._stats_extras(), **snapshot["counters"]}
        latency = snapshot["histograms"].get(self._latency_histogram)
        if latency:
            for key in ("count", "mean", "p50", "p95", "p99"):
                values[self._latency_keys + key] = latency[key]
        return protocol.encode_frame(MessageType.STATS_RESPONSE,
                                     protocol.encode_stats_response(values))


class ShardServer(FrameServer):
    """Serve one shard's index through an ``RD`` :class:`QueryEngine`
    (an in-process replica's pruning)."""

    def __init__(self, index: Union[DesksIndex, MutableDesksIndex, str],
                 host: str = "127.0.0.1", port: int = 0,
                 shard_id: int = 0,
                 num_workers: int = 4,
                 max_inflight: Optional[int] = None) -> None:
        if isinstance(index, str):
            index = load_shard(index)
        self.shard_id = shard_id
        self.engine = QueryEngine(index, num_workers=num_workers,
                                  cache_capacity=SHARD_CACHE_CAPACITY)
        # Statement frames run through the same executor surface the CLI
        # uses; binding it to the engine keeps the text path and the
        # binary query path answer-identical (same cache, same deadline).
        super().__init__(
            host, port, f"shard {shard_id}", f"desks-net-{{}}-{shard_id}",
            2 * num_workers if max_inflight is None else max_inflight,
            DqlExecutor(EngineBackend(self.engine)), self.engine.metrics)

    def _search(self, query: DirectionalQuery,
                budget: Optional[float]) -> bytes:
        response = self.engine.submit(query, budget).result()
        return protocol.encode_search_response(
            response.result,
            cached=response.cached,
            generation=response.generation,
            server_latency=response.latency_seconds,
            stats=response.stats,
            degraded=response.degraded,
            failure_cause=response.failure_cause)

    def _identity(self) -> Tuple[int, int, int]:
        return (self.shard_id, self.engine.generation,
                len(self.engine.index.collection))

    def _stats_extras(self) -> dict:
        return {"shard_id": self.shard_id, "pid": os.getpid()}

    def _close_target(self) -> None:
        self.engine.close()


class ClusterFrontend(FrameServer):
    """Serve a router's scatter-gather: the front door of a deployment.

    The router is the caller's (``router`` is duck-typed: ``execute``,
    ``plan``, ``shards``, ``num_shards``, ``metrics``) and outlives
    :meth:`stop`.  ``EXPLAIN`` here is plan-only — the router cannot
    reconcile spans across shard processes.
    """

    _counter_prefix = "net_frontend_"
    _latency_histogram = "cluster_query_latency_seconds"
    _latency_keys = "cluster_latency_"

    def __init__(self, router: ShardRouter,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 64,
                 default_timeout: Optional[float] = None) -> None:
        self.router = router
        # Text statements run the same scatter-gather as binary frames;
        # the executor seam (repro.lang) is what makes that one line.
        super().__init__(
            host, port, "front door", "desks-frontdoor-{}", max_inflight,
            DqlExecutor(RouterBackend(router)), router.metrics,
            default_timeout)

    def _search(self, query: DirectionalQuery,
                budget: Optional[float]) -> bytes:
        response = self.router.execute(query, budget)
        failure_cause = None
        if response.degraded:
            # Brownout: answer with what the surviving shards produced,
            # typed as a partial naming exactly which shards were lost,
            # instead of failing the whole query.
            failure_cause = ("shards unavailable: "
                             + ",".join(map(str, response.failed_shards)))
            self._counter("brownouts_total").increment()
        return protocol.encode_search_response(
            response.result,
            server_latency=response.latency_seconds,
            degraded=response.degraded,
            failure_cause=failure_cause,
            unavailable_shards=response.unavailable_shards)

    def _identity(self) -> Tuple[int, int, int]:
        # By convention the front door's "shard id" is the shard count.
        return (self.router.num_shards, 0,
                sum(len(shard.spec) for shard in self.router.shards))

    def _stats_extras(self) -> dict:
        return {"num_shards": self.router.num_shards,
                "max_inflight": self.max_inflight}


def run_shard_server(directory: str, host: str = "127.0.0.1",
                     port: int = 0, shard_id: int = 0,
                     num_workers: int = 4,
                     max_inflight: Optional[int] = None) -> int:
    """CLI entry: load ``directory``, announce readiness, serve forever.

    Prints ``SHARD-SERVER READY <host> <port>`` on stdout once the
    socket is bound and the index is loaded — the line
    :class:`~repro.net.launcher.ClusterLauncher` waits for — then blocks
    in the accept loop until interrupted.
    """
    server = ShardServer(directory, host=host, port=port,
                         shard_id=shard_id, num_workers=num_workers,
                         max_inflight=max_inflight)
    bound_host, bound_port = server.address
    print(f"SHARD-SERVER READY {bound_host} {bound_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.stop()
    return 0

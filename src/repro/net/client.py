"""Client side of the shard protocol: connection pool and failover set.

:class:`RemoteShardClient` speaks :mod:`repro.net.protocol` to one server
address over a small pool of persistent TCP connections — reconnect with
exponential backoff, retry-once when a pooled (possibly stale) connection
dies mid-request, socket timeouts derived from the request's deadline
budget so a dead server can never hang a caller.  The dial policy and
the timeout of a request without a budget are module constants; only
``deadline_grace`` is tuned.  Every failure is counted by kind (stale
retry, truncation, reset, timeout, CRC) so the chaos suite can reconcile
client-observed faults exactly against the fault proxy's injected-fault
log (``benchmarks/chaos_net.py``).

:class:`SocketEndpoint` presents one such client as a
:class:`~repro.cluster.ReplicaEndpoint` — it turns the wire's answer into
a :class:`~repro.service.ServiceResponse` and classifies its errors
(``BAD_REQUEST`` is fatal, everything else retryable).
:class:`RemoteReplicaSet` is the :class:`~repro.cluster.FailoverSet` over
R of them: failover itself is inherited; this module only builds the
clients, breakers and retry budget from a
:class:`~repro.net.resilience.ResilienceConfig` and adds what a network
needs — hedged requests and out-of-band recovery probes.
"""

from __future__ import annotations

import concurrent.futures
import socket
import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

from ..cluster import (
    HEALTH_THRESHOLD,
    FailoverSet,
    RequestRejected,
    ShardUnavailableError,
)
from ..core import DirectionalQuery
from ..service import Deadline, MetricsRegistry, ServiceResponse
from . import protocol
from .protocol import HealthReport, MessageType, RemoteSearchResult
from .resilience import (
    PROBE_TIMEOUT,
    CircuitBreaker,
    HedgePolicy,
    ResilienceConfig,
    RetryBudget,
)

Address = Tuple[str, int]

#: Dial attempts, the first retry's backoff (doubling per retry) and the
#: per-attempt connect timeout, in seconds: a refused dial fails at once,
#: so a dead server costs its caller 0.15 s and a restarting one is waited
#: out.
CONNECT_ATTEMPTS = 3
CONNECT_BACKOFF = 0.05
CONNECT_TIMEOUT = 5.0

#: Socket timeout, in seconds, of a request sent with no deadline budget:
#: only a dead or wedged server is caught by it.
UNBOUNDED_REQUEST_TIMEOUT = 30.0


class TransportError(RuntimeError):
    """The connection to a server failed (connect, send, or receive)."""

    def __init__(self, address: Address, detail: str) -> None:
        self.address = address
        super().__init__(f"{address[0]}:{address[1]}: {detail}")


class RemoteShardClient:
    """A pooled, reconnecting client for one shard server address."""

    def __init__(self, address: Address,
                 deadline_grace: float = 2.0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.address = (address[0], int(address[1]))
        #: Extra seconds past the deadline budget before the socket times
        #: out: the server answers an expired budget immediately, so only
        #: a dead/wedged server is ever caught by the socket timeout.
        self.deadline_grace = deadline_grace
        self.metrics = metrics
        self._idle: List[socket.socket] = []
        self._lock = threading.Lock()
        self._closed = False
        self.reconnects = 0

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment()

    # -- connection pool ----------------------------------------------------

    def _connect(self) -> socket.socket:
        """Dial the server, with exponential backoff between attempts."""
        last: Optional[OSError] = None
        for attempt in range(CONNECT_ATTEMPTS):
            if attempt:
                time.sleep(CONNECT_BACKOFF * (2 ** (attempt - 1)))
            try:
                conn = socket.create_connection(
                    self.address, timeout=CONNECT_TIMEOUT)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with self._lock:
                    self.reconnects += 1
                return conn
            except OSError as exc:
                last = exc
        self._count("net_client_connect_failures_total")
        raise TransportError(
            self.address,
            f"connect failed after {CONNECT_ATTEMPTS} attempts: {last}")

    def _acquire(self) -> Tuple[socket.socket, bool]:
        """A pooled connection (``reused=True``) or a fresh one."""
        with self._lock:
            if self._closed:
                raise TransportError(self.address, "client is closed")
            if self._idle:
                return self._idle.pop(), True
        return self._connect(), False

    def _release(self, conn: socket.socket) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(conn)
                return
        _close_quietly(conn)

    def _drop_idle(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            _close_quietly(conn)

    def _redial(self) -> socket.socket:
        """A fresh connection in place of a stale pooled one; a server
        restart leaves every idle socket stale, so all are dropped."""
        self._count("net_client_stale_retries_total")
        self._drop_idle()
        return self._connect()

    def close(self) -> None:
        """Drop every pooled connection; subsequent requests fail fast."""
        with self._lock:
            self._closed = True
        self._drop_idle()

    def __enter__(self) -> "RemoteShardClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request/response ---------------------------------------------------

    def _roundtrip(self, frame: bytes, timeout: float,
                   ) -> Tuple[MessageType, bytes]:
        """Send one frame, read one frame; retry once on a stale socket.

        A pooled connection may have been closed by the server (restart,
        idle reap) since its last use — that failure mode is retried once
        on a fresh connection (:meth:`_redial`).  A fresh connection's
        failure is the server's, and surfaces as :class:`TransportError`.
        Each failure kind increments its own ``net_client_*`` counter so
        injected faults reconcile exactly with observed ones.
        """
        conn, reused = self._acquire()
        while True:
            conn.settimeout(timeout)
            try:
                conn.sendall(frame)
                msg_type, payload = protocol.read_frame(conn.recv)
            except protocol.TruncatedFrame as exc:
                _close_quietly(conn)
                if reused:
                    conn, reused = self._redial(), False
                    continue
                self._count("net_client_truncated_total")
                raise TransportError(self.address, str(exc)) from None
            except socket.timeout:
                _close_quietly(conn)
                self._count("net_client_timeouts_total")
                raise TransportError(
                    self.address,
                    f"no response within {timeout:.3f}s") from None
            except OSError as exc:
                _close_quietly(conn)
                if reused:
                    conn, reused = self._redial(), False
                    continue
                self._count("net_client_reset_total")
                raise TransportError(self.address, str(exc)) from None
            except protocol.ChecksumMismatch:
                # Corruption on the wire, caught by the CRC before any
                # field was parsed; the connection is poisoned.
                _close_quietly(conn)
                self._count("net_client_crc_errors_total")
                raise
            except protocol.ProtocolError:
                # The stream is desynchronized or the peer is not a DESKS
                # server; the connection is poisoned either way.
                _close_quietly(conn)
                self._count("net_client_protocol_errors_total")
                raise
            self._release(conn)
            return msg_type, payload

    def _expect(self, frame: bytes, want: MessageType,
                timeout: float) -> bytes:
        msg_type, payload = self._roundtrip(frame, timeout)
        if msg_type is MessageType.ERROR:
            raise protocol.decode_error(payload)
        if msg_type is not want:
            raise protocol.ProtocolError(
                f"expected {want.name}, server sent {msg_type.name}")
        return payload

    def search(self, query: DirectionalQuery,
               budget: Optional[float] = None) -> RemoteSearchResult:
        """Execute ``query`` remotely under ``budget`` remaining seconds.

        Raises :class:`~repro.net.protocol.OverloadError` when the server
        sheds the request, :class:`~repro.net.protocol.RpcError` for other
        typed server errors, :class:`TransportError` when the server is
        unreachable or silent past the budget plus grace.
        """
        timeout = (UNBOUNDED_REQUEST_TIMEOUT if budget is None
                   else budget + self.deadline_grace)
        frame = protocol.encode_frame(
            MessageType.SEARCH_REQUEST,
            protocol.encode_search_request(query, budget))
        payload = self._expect(frame, MessageType.SEARCH_RESPONSE, timeout)
        return protocol.decode_search_response(payload)

    def execute_statement(self, statement: str,
                          budget: Optional[float] = None,
                          ) -> "protocol.RemoteStatementResult":
        """Execute one DQL statement remotely; decode its typed outcome.

        The server parses, plans, and executes; a statement the server
        cannot parse comes back as :class:`~repro.net.protocol.RpcError`
        (``BAD_REQUEST``) whose message carries the caret rendering.
        """
        timeout = (UNBOUNDED_REQUEST_TIMEOUT if budget is None
                   else budget + self.deadline_grace)
        frame = protocol.encode_frame(
            MessageType.STATEMENT_REQUEST,
            protocol.encode_statement_request(statement, budget))
        payload = self._expect(frame, MessageType.STATEMENT_RESPONSE,
                               timeout)
        return protocol.decode_statement_response(payload)

    def health(self, timeout: float = 5.0) -> HealthReport:
        """Probe the server's health endpoint."""
        frame = protocol.encode_frame(MessageType.HEALTH_REQUEST)
        payload = self._expect(frame, MessageType.HEALTH_RESPONSE, timeout)
        return protocol.decode_health_response(payload)

    def stats(self, timeout: float = 5.0) -> dict:
        """Scrape the server's counter snapshot."""
        frame = protocol.encode_frame(MessageType.STATS_REQUEST)
        payload = self._expect(frame, MessageType.STATS_RESPONSE, timeout)
        return protocol.decode_stats_response(payload)


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:  # pragma: no cover - close is best-effort
        pass


class SocketEndpoint:
    """A replica in a shard server process, behind one client.

    ``BAD_REQUEST`` is the request's fault (fatal); transport failures,
    protocol violations, ``OVERLOAD`` and other typed server errors
    propagate and are retried on another replica.
    """

    def __init__(self, client: RemoteShardClient) -> None:
        self.client = client

    def call(self, query: DirectionalQuery,
             budget: Optional[float]) -> ServiceResponse:
        started = time.monotonic()
        try:
            remote = self.client.search(query, budget=budget)
        except protocol.RpcError as exc:
            if (exc.code is protocol.ErrorCode.BAD_REQUEST
                    and not isinstance(exc, protocol.OverloadError)):
                raise RequestRejected(exc) from None
            raise
        return ServiceResponse(
            query=query,
            result=remote.result,
            cached=remote.cached,
            generation=remote.generation,
            latency_seconds=time.monotonic() - started,
            stats=remote.stats)

    def probe(self, timeout: float) -> bool:
        try:
            return self.client.health(timeout=timeout).ok
        except (TransportError, protocol.ProtocolError, protocol.RpcError):
            return False

    def describe(self) -> dict:
        host, port = self.client.address
        return {"address": f"{host}:{port}"}

    def close(self) -> None:
        self.client.close()


class RemoteReplicaSet(FailoverSet):
    """R shard server processes behind the one failover loop.

    Rotation, health and the deadline- and budget-bounded
    attempt plan are inherited.  This class builds the socket deployment
    from a :class:`~repro.net.resilience.ResilienceConfig` (a client and
    a circuit breaker per address, the shared retry budget) and adds what
    only a network needs: hedged requests and recovery probes.
    """

    def __init__(self, shard_id: int, addresses: Sequence[Address],
                 metrics: Optional[MetricsRegistry] = None,
                 client_factory: Optional[
                     Callable[[Address], RemoteShardClient]] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 retry_budget: Optional[RetryBudget] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if client_factory is None:
            def client_factory(address: Address) -> RemoteShardClient:
                return RemoteShardClient(address, metrics=metrics)
        self.config = resilience or ResilienceConfig()
        self._clock = clock
        threshold = (self.config.breaker_failure_threshold
                     if self.config.breaker_failure_threshold is not None
                     else HEALTH_THRESHOLD)

        def breaker() -> CircuitBreaker:
            return CircuitBreaker(
                failure_threshold=threshold,
                reset_timeout=self.config.breaker_reset_timeout,
                clock=clock,
                on_transition=lambda _, to: self._count(
                    f"net_breaker_{to.value}_total"))

        if retry_budget is None:
            retry_budget = RetryBudget(
                max_tokens=self.config.retry_max_tokens,
                earn_per_success=self.config.retry_earn_per_success)
        # The hedge pool is sized for straggler pile-up, not steady state:
        # every abandoned hedge loser against a silent (blackholed) replica
        # holds a worker until its socket timeout lands, and a saturated
        # pool would starve *new* primary attempts.  Workers are created
        # lazily, so the high cap costs nothing under healthy traffic.
        self._pool = (concurrent.futures.ThreadPoolExecutor(
            max_workers=max(32, 4 * len(addresses)),
            thread_name_prefix=f"hedge-shard{shard_id}")
            if self.config.hedge is not None and len(addresses) > 1
            else None)
        self._probe_inflight = False
        self._last_probe = clock()
        super().__init__(
            shard_id,
            [(SocketEndpoint(client_factory(address)), breaker())
             for address in addresses],
            metrics, retry_budget)

    # -- the execute contract ------------------------------------------------

    def execute(self, query: DirectionalQuery,
                timeout: Optional[float] = None,
                ) -> Tuple[ServiceResponse, int]:
        """The inherited contract, across replica servers.

        With a hedge policy configured, a straggling attempt is raced
        against the next available replica and the first answer wins.
        """
        self._maybe_kick_probe()
        if self._pool is None:
            return super().execute(query, timeout)
        return self._execute_hedged(query, Deadline.from_timeout(timeout),
                                    self.config.hedge)

    def _execute_hedged(self, query: DirectionalQuery, deadline: Deadline,
                        hedge: HedgePolicy,
                        ) -> Tuple[ServiceResponse, int]:
        """Race the inherited plan: same admission, same ``_attempt``
        bookkeeping, but a straggler does not block the next replica."""
        admitted = self._attempts(deadline)
        more = True
        pending: dict = {}
        attempts = 0
        hedged = False
        last_launch = 0.0
        last_error: Optional[BaseException] = None

        def launch() -> None:
            """Start the next admitted replica — a hedge when it joins an
            attempt still in flight, the next primary otherwise."""
            nonlocal attempts, hedged, more, last_launch
            is_hedge = bool(pending)
            for replica in admitted:
                try:
                    future = self._pool.submit(self._attempt, replica, query,
                                               deadline.budget())
                except RuntimeError:  # close() shut the pool down under us
                    break
                attempts += 1
                pending[future] = is_hedge
                last_launch = time.monotonic()
                if is_hedge:
                    hedged = True
                    self._count("net_hedges_fired_total")
                return
            more = False

        launch()
        try:
            while pending and not deadline.expired():
                can_hedge = not hedged and more
                waits = []
                if can_hedge:
                    waits.append(max(
                        0.0, last_launch + hedge.delay - time.monotonic()))
                if not deadline.is_unbounded:
                    waits.append(deadline.remaining() + 0.05)
                done, _ = concurrent.futures.wait(
                    pending, timeout=min(waits, default=None),
                    return_when=concurrent.futures.FIRST_COMPLETED)
                for future in done:
                    was_hedge = pending.pop(future)
                    response, last_error = future.result()
                    if response is not None:
                        if was_hedge:
                            self._count("net_hedges_won_total")
                        return response, attempts - 1
                if not pending or (can_hedge and time.monotonic()
                                   >= last_launch + hedge.delay):
                    launch()
        finally:
            # First answer won (or the request failed): abandon the
            # stragglers.  Queued attempts are cancelled outright; ones
            # already on the wire run to completion in the pool and
            # still record their health/breaker outcomes.
            for future in pending:
                future.cancel()
        raise ShardUnavailableError(self.shard_id, attempts, last_error)

    # -- probe-based recovery ------------------------------------------------

    def probe_unavailable(self) -> List[int]:
        """Health-probe every excluded replica; returns recovered ids.

        A replica whose endpoint answers the probe (the ``HEALTH`` RPC
        within :data:`~repro.net.resilience.PROBE_TIMEOUT`) is marked
        successful — closing its breaker and restoring it to healthy-first
        rotation — without waiting for an in-band request to be risked
        against it.
        """
        recovered: List[int] = []
        for replica in self.replicas:
            if (replica.healthy
                    and replica.breaker_state in ("closed", "disabled")):
                continue
            if replica.endpoint.probe(PROBE_TIMEOUT):
                replica.mark_success()
                self._count("net_probe_recoveries_total")
                recovered.append(replica.replica_id)
            else:
                replica.mark_failure()
        return recovered

    def _maybe_kick_probe(self) -> None:
        """Opportunistically probe unavailable replicas off-path."""
        interval = self.config.probe_interval
        if interval is None:
            return
        now = self._clock()
        if not any(not r.healthy or r.breaker_open for r in self.replicas):
            return
        with self._lock:
            if self._probe_inflight or now - self._last_probe < interval:
                return
            self._probe_inflight = True
            self._last_probe = now
        threading.Thread(target=self._probe_worker,
                         name=f"probe-shard{self.shard_id}",
                         daemon=True).start()

    def _probe_worker(self) -> None:
        try:
            self.probe_unavailable()
        finally:
            with self._lock:
                self._probe_inflight = False

    def close(self) -> None:
        """Close every replica's connection pool and the hedge pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        super().close()

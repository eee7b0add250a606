"""Deterministic fault injection for the serving stack, driven by one
declarative :class:`FaultPlan` and counted in one :class:`FaultLog`.

:class:`ChaosProxy` sits between any :class:`~repro.net.RemoteShardClient`
and a :class:`~repro.net.ShardServer` and executes the plan on the wire:
added latency with jitter, blackhole/accept-then-silence half-opens,
connection reset mid-frame, and payload byte corruption (which the CRC
layer must catch).  Every stochastic choice comes from a
``random.Random`` seeded from ``(plan.seed, connection_index)``, so a
given plan against a given connection order injects exactly the same
faults on every run.

:class:`FaultyEndpoint` applies the same plan to one in-process replica:
it wraps any :class:`~repro.cluster.ReplicaEndpoint`, sleeps the plan's
latency and raises :class:`InjectedFault` with the plan's reset
probability, each draw seeded from ``(plan.seed, call_index)``.  Tests
install it through the endpoint seam and heal by putting ``.inner``
back::

    replica.endpoint = FaultyEndpoint(replica.endpoint, plan, log)

The proxy is *frame-aware* in the server→client direction: it parses the
12-byte frame headers (:data:`~repro.net.protocol.HEADER_FORMAT`) so that
per-frame faults land deterministically on whole protocol frames rather
than on arbitrary TCP segment boundaries.  The client→server direction is
relayed verbatim (except under blackhole, where bytes are swallowed).

Fault counters in :class:`FaultLog` are incremented at *activation* time —
when a fault actually fires against traffic — never at plan-assignment
time, which is what lets the chaos acceptance suite reconcile the client's
failure counters exactly against the proxy's injected-fault counts.

This module is test/benchmark infrastructure: lint rule DAL010 keeps it
out of production import paths (only ``repro.net.chaos`` itself may be
imported by tests, benchmarks, and tooling — never by ``src/repro``
production modules).
"""

from __future__ import annotations

import collections
import random
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster import ReplicaEndpoint
from ..core import DirectionalQuery
from ..service import ServiceResponse
from .protocol import HEADER_FORMAT, HEADER_SIZE, MAX_PAYLOAD, recv_exactly

Address = Tuple[str, int]

__all__ = ["ChaosProxy", "FaultLog", "FaultPlan", "FaultyEndpoint",
           "InjectedFault"]

#: Relay buffer for the raw client→server direction.
_RELAY_CHUNK = 65536

#: Accept-loop poll interval; bounds shutdown latency.
_ACCEPT_POLL = 0.2


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of what an injector does to traffic.

    All probabilities are per-draw in ``[0, 1]``; a plan with every
    field at its default is a transparent relay.  ``seed`` plus the
    connection index (proxy) or call index (endpoint) fully determine
    every draw.
    """

    name: str
    seed: int = 0
    #: Fixed extra delay applied to every server→client frame (every
    #: endpoint call), plus a uniform jitter in
    #: ``[0, latency_jitter_seconds)``.
    latency_seconds: float = 0.0
    latency_jitter_seconds: float = 0.0
    #: Probability of XOR-flipping one payload byte per frame.  The CRC
    #: layer must turn every one of these into a typed ChecksumMismatch.
    corrupt_probability: float = 0.0
    #: Probability of cutting the connection mid-frame (of failing an
    #: endpoint call with :class:`InjectedFault`): the first
    #: ``reset_after_bytes`` of the frame are forwarded, then both sides
    #: are closed (an RST when ``reset_rst``, a clean FIN otherwise —
    #: the client sees ECONNRESET or a truncated frame respectively).
    reset_probability: float = 0.0
    reset_after_bytes: int = 6
    reset_rst: bool = False
    #: Probability that a *connection* is accepted and then silenced:
    #: bytes from the client are swallowed, nothing is ever answered,
    #: and the upstream is never dialed (a half-open / partitioned peer).
    #: Only the client's deadline can end such a request.
    blackhole_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("corrupt_probability", "reset_probability",
                     "blackhole_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {p}")
        for name in ("latency_seconds", "latency_jitter_seconds",
                     "reset_after_bytes"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0: {value}")

    def rng(self, position: int) -> random.Random:
        """The draws of connection (proxy) or call (endpoint) ``position``."""
        return random.Random((self.seed << 20) ^ position)

    def delay(self, rng: random.Random) -> Optional[float]:
        """This draw's added latency, or ``None`` when the plan adds none."""
        if self.latency_seconds > 0 or self.latency_jitter_seconds > 0:
            return self.latency_seconds + \
                self.latency_jitter_seconds * rng.random()
        return None


class FaultLog:
    """Thread-safe activation counters, one per fault kind."""

    KEYS = ("connections", "frames_forwarded", "latencies_injected",
            "corruptions_injected", "resets_injected",
            "blackholes_activated", "connections_dropped")

    def __init__(self) -> None:
        self._counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()

    def bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counts[counter] += by

    def to_dict(self) -> Dict[str, int]:
        with self._lock:
            return {key: self._counts[key] for key in self.KEYS}


class InjectedFault(RuntimeError):
    """Raised by :class:`FaultyEndpoint` in place of a real replica error."""


class FaultyEndpoint:
    """A :class:`~repro.cluster.ReplicaEndpoint` whose calls suffer a plan.

    Each call sleeps the plan's latency, then fails with
    ``reset_probability`` by raising :class:`InjectedFault` — on the
    calling thread, so injected latency occupies it exactly like slow
    real work.  Call ``i`` draws from ``plan.rng(i)``, as the proxy's
    connection ``i`` does.  Probes,
    ``describe`` and ``close`` pass through untouched.
    """

    def __init__(self, inner: ReplicaEndpoint, plan: FaultPlan,
                 log: FaultLog) -> None:
        if plan.corrupt_probability > 0 or plan.blackhole_probability > 0:
            raise ValueError(
                f"plan {plan.name!r} has wire-only faults (corrupt, "
                "blackhole); only a ChaosProxy can inject them")
        self.inner = inner
        self.plan = plan
        self.log = log
        self._calls = 0
        self._lock = threading.Lock()

    def call(self, query: DirectionalQuery,
             budget: Optional[float]) -> ServiceResponse:
        with self._lock:
            index = self._calls
            self._calls += 1
        rng = self.plan.rng(index)
        delay = self.plan.delay(rng)
        if delay is not None:
            time.sleep(delay)
            self.log.bump("latencies_injected")
        if rng.random() < self.plan.reset_probability:
            self.log.bump("resets_injected")
            raise InjectedFault(f"plan {self.plan.name!r}: injected fault "
                                f"on call {index}")
        return self.inner.call(query, budget)

    def probe(self, timeout: float) -> bool:
        return self.inner.probe(timeout)

    def describe(self) -> Dict[str, object]:
        return self.inner.describe()

    def close(self) -> None:
        self.inner.close()


class ChaosProxy:
    """A seeded fault-injecting TCP proxy in front of one server address.

    ::

        proxy = ChaosProxy(server.address, FaultPlan("latency",
                                                     latency_seconds=0.05))
        proxy.start()
        client = RemoteShardClient(proxy.address)

    ``drop_connections`` severs every in-flight connection at once — the
    partition lever for tests that cut a replica off mid-stream.
    """

    def __init__(self, upstream: Address,
                 plan: Optional[FaultPlan] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.upstream = (upstream[0], int(upstream[1]))
        self.plan = plan if plan is not None else FaultPlan("transparent")
        self.log = FaultLog()
        self._lock = threading.Lock()
        self._closed = False
        self._conn_seq = 0
        self._live: List[socket.socket] = []
        self._listener = socket.create_server((host, port), backlog=32)
        self._listener.settimeout(_ACCEPT_POLL)
        self.address: Address = self._listener.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ChaosProxy":
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"chaos-proxy-{self.address[1]}", daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        _close_quietly(self._listener)
        self.drop_connections(count=False)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def drop_connections(self, count: bool = True) -> int:
        """Sever every in-flight connection (a hard partition)."""
        with self._lock:
            live, self._live = self._live, []
        for conn in live:
            _shutdown_quietly(conn)
            _close_quietly(conn)
        if count and live:
            self.log.bump("connections_dropped", len(live))
        return len(live)

    # -- accept loop ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
            try:
                downstream, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us
            with self._lock:
                if self._closed:
                    _close_quietly(downstream)
                    return
                index = self._conn_seq
                self._conn_seq += 1
                self._live.append(downstream)
            self.log.bump("connections")
            threading.Thread(
                target=self._serve_connection,
                args=(downstream, index),
                name=f"chaos-conn-{self.address[1]}-{index}",
                daemon=True).start()

    def _forget(self, conn: socket.socket) -> None:
        with self._lock:
            if conn in self._live:
                self._live.remove(conn)

    # -- one proxied connection ----------------------------------------------

    def _serve_connection(self, downstream: socket.socket,
                          index: int) -> None:
        plan = self.plan
        rng = plan.rng(index)
        downstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if rng.random() < plan.blackhole_probability:
            self._blackhole(downstream)
            return
        try:
            upstream = socket.create_connection(self.upstream, timeout=5.0)
        except OSError:
            self._forget(downstream)
            _close_quietly(downstream)
            return
        upstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            if self._closed:
                _close_quietly(upstream)
                _close_quietly(downstream)
                return
            self._live.append(upstream)
        relay = threading.Thread(
            target=self._relay_downstream, args=(downstream, upstream),
            name=f"chaos-relay-{self.address[1]}-{index}", daemon=True)
        relay.start()
        try:
            self._pump_frames(upstream, downstream, rng)
        finally:
            self._forget(upstream)
            self._forget(downstream)
            # shutdown() before close(): the relay thread blocked in
            # recv() on these sockets holds a kernel file reference, so a
            # bare close() would not send the FIN until that thread woke
            # up — which it never would, since the FIN is what wakes it.
            _shutdown_quietly(upstream)
            _shutdown_quietly(downstream)
            _close_quietly(upstream)
            _close_quietly(downstream)

    def _blackhole(self, downstream: socket.socket) -> None:
        """Accept-then-silence: swallow everything, answer nothing."""
        activated = False
        try:
            while True:
                chunk = downstream.recv(_RELAY_CHUNK)
                if not chunk:
                    return
                if not activated:
                    activated = True
                    self.log.bump("blackholes_activated")
        except OSError:
            return
        finally:
            self._forget(downstream)
            _close_quietly(downstream)

    def _relay_downstream(self, downstream: socket.socket,
                          upstream: socket.socket) -> None:
        """client → server: verbatim relay until either side dies."""
        try:
            while True:
                chunk = downstream.recv(_RELAY_CHUNK)
                if not chunk:
                    break
                upstream.sendall(chunk)
        except OSError:
            pass
        try:
            upstream.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def _pump_frames(self, upstream: socket.socket,
                     downstream: socket.socket,
                     rng: random.Random) -> None:
        """server → client: whole frames, with per-frame fault draws."""
        plan = self.plan

        def recv(limit: int) -> bytes:
            # An error reads as EOF: what arrived before the connection
            # broke is forwarded, as it is for a clean close.
            try:
                return upstream.recv(limit)
            except OSError:
                return b""

        while True:
            header = recv_exactly(recv, HEADER_SIZE)
            if len(header) < HEADER_SIZE:
                # Upstream EOF (possibly mid-header): forward the
                # remnant verbatim so the client sees the same
                # truncation the server produced, then hang up.
                if header:
                    _send_quietly(downstream, header)
                return
            try:
                length = struct.unpack(HEADER_FORMAT, header)[3]
            except struct.error:  # pragma: no cover - header is 12 bytes
                return
            if length > MAX_PAYLOAD:
                # Not a DESKS frame; relay the rest of the stream raw.
                _send_quietly(downstream, header)
                self._relay_downstream(upstream, downstream)
                return
            payload = recv_exactly(recv, length)
            frame = bytearray(header + payload)
            truncated = len(payload) < length
            delay = plan.delay(rng)
            if delay is not None:
                time.sleep(delay)
                self.log.bump("latencies_injected")
            corrupted = (plan.corrupt_probability > 0 and length > 0
                         and not truncated
                         and rng.random() < plan.corrupt_probability)
            if corrupted:
                frame[HEADER_SIZE + rng.randrange(length)] ^= 0xFF
            if (plan.reset_probability > 0
                    and rng.random() < plan.reset_probability):
                # Never forward the whole frame before cutting — a reset
                # must leave the client's request visibly damaged so
                # injected resets reconcile 1:1 with observed failures.
                cut = min(plan.reset_after_bytes, len(frame) - 1)
                _send_quietly(downstream, bytes(frame[:cut]))
                if plan.reset_rst:
                    _arm_rst(downstream)
                self.log.bump("resets_injected")
                return
            try:
                downstream.sendall(bytes(frame))
            except OSError:
                return
            self.log.bump("frames_forwarded")
            if corrupted:
                # Counted only once the damaged frame went out whole: a
                # reset cuts a frame before its payload, so the client
                # sees a truncation, never this corruption.
                self.log.bump("corruptions_injected")
            if truncated:
                return


def _shutdown_quietly(conn: socket.socket) -> None:
    """Send the FIN now, even if another thread is blocked in recv()."""
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def _send_quietly(conn: socket.socket, blob: bytes) -> None:
    try:
        conn.sendall(blob)
    except OSError:
        pass


def _arm_rst(conn: socket.socket) -> None:
    """Make ``close`` send an RST instead of a clean FIN."""
    try:
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
    except OSError:  # pragma: no cover - best-effort
        pass


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:  # pragma: no cover - close is best-effort
        pass

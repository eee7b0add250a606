"""A deterministic fault-injecting TCP proxy for the shard protocol.

:class:`ChaosProxy` sits between any :class:`~repro.net.RemoteShardClient`
and a :class:`~repro.net.ShardServer` and executes a declarative
:class:`FaultPlan`: added latency with jitter, bandwidth throttling,
blackhole/accept-then-silence half-opens, connection reset mid-frame,
payload byte corruption (which the CRC layer must catch), and slow-loris
partial writes.  Every stochastic choice comes from a ``random.Random``
seeded from ``(plan.seed, connection_index)``, so a given plan against a
given connection order injects exactly the same faults on every run.

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

import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .protocol import HEADER_FORMAT, HEADER_SIZE, MAX_PAYLOAD, recv_exactly

Address = Tuple[str, int]

__all__ = ["ChaosProxy", "FaultLog", "FaultPlan"]

#: Relay buffer for the raw client→server direction.
_RELAY_CHUNK = 65536

#: Accept-loop poll interval; bounds shutdown latency.
_ACCEPT_POLL = 0.2


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of what the proxy does to traffic.

    All probabilities are per-draw in ``[0, 1]``; a plan with every
    field at its default is a transparent relay.  ``seed`` plus the
    connection index fully determine every draw.
    """

    name: str
    seed: int = 0
    #: Fixed extra delay applied to every server→client frame, plus a
    #: uniform jitter in ``[0, latency_jitter_seconds)``.
    latency_seconds: float = 0.0
    latency_jitter_seconds: float = 0.0
    #: Probability of XOR-flipping one payload byte per frame.  The CRC
    #: layer must turn every one of these into a typed ChecksumMismatch.
    corrupt_probability: float = 0.0
    #: Probability of cutting the connection mid-frame: the first
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
    #: Pace server→client frames to this many bytes per second.
    bandwidth_bytes_per_second: Optional[float] = None
    #: Slow-loris: write each server→client frame in chunks of this many
    #: bytes with ``slowloris_delay_seconds`` between chunks.
    slowloris_chunk_bytes: Optional[int] = None
    slowloris_delay_seconds: float = 0.01

    def __post_init__(self) -> None:
        for name in ("corrupt_probability", "reset_probability",
                     "blackhole_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {p}")
        if self.reset_after_bytes < 0:
            raise ValueError(
                f"reset_after_bytes must be >= 0: {self.reset_after_bytes}")


@dataclass
class FaultLog:
    """Thread-safe activation counters, one per fault kind."""

    connections: int = 0
    frames_forwarded: int = 0
    latencies_injected: int = 0
    corruptions_injected: int = 0
    resets_injected: int = 0
    blackholes_activated: int = 0
    frames_throttled: int = 0
    frames_slowlorised: int = 0
    connections_dropped: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def to_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "connections": self.connections,
                "frames_forwarded": self.frames_forwarded,
                "latencies_injected": self.latencies_injected,
                "corruptions_injected": self.corruptions_injected,
                "resets_injected": self.resets_injected,
                "blackholes_activated": self.blackholes_activated,
                "frames_throttled": self.frames_throttled,
                "frames_slowlorised": self.frames_slowlorised,
                "connections_dropped": self.connections_dropped,
            }


class ChaosProxy:
    """A seeded fault-injecting TCP proxy in front of one server address.

    ::

        proxy = ChaosProxy(server.address, FaultPlan("latency",
                                                     latency_seconds=0.05))
        proxy.start()
        client = RemoteShardClient(proxy.address)

    ``set_plan`` swaps the plan live (new draws use the new plan);
    ``drop_connections`` severs every in-flight connection at once — the
    partition lever for tests that cut a replica off mid-stream.
    """

    def __init__(self, upstream: Address,
                 plan: Optional[FaultPlan] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.upstream = (upstream[0], int(upstream[1]))
        self._plan = plan if plan is not None else FaultPlan("transparent")
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

    @property
    def plan(self) -> FaultPlan:
        with self._lock:
            return self._plan

    def set_plan(self, plan: FaultPlan) -> None:
        """Swap the live plan; subsequent draws use the new plan."""
        with self._lock:
            self._plan = plan

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
                plan = self._plan
                self._live.append(downstream)
            self.log.bump("connections")
            threading.Thread(
                target=self._serve_connection,
                args=(downstream, index, plan),
                name=f"chaos-conn-{self.address[1]}-{index}",
                daemon=True).start()

    def _forget(self, conn: socket.socket) -> None:
        with self._lock:
            if conn in self._live:
                self._live.remove(conn)

    # -- one proxied connection ----------------------------------------------

    def _serve_connection(self, downstream: socket.socket, index: int,
                          plan: FaultPlan) -> None:
        rng = random.Random((plan.seed << 20) ^ index)
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
            plan = self.plan
            if plan.latency_seconds > 0 or plan.latency_jitter_seconds > 0:
                delay = (plan.latency_seconds
                         + plan.latency_jitter_seconds * rng.random())
                time.sleep(delay)
                self.log.bump("latencies_injected")
            if (plan.corrupt_probability > 0 and length > 0
                    and not truncated
                    and rng.random() < plan.corrupt_probability):
                pos = HEADER_SIZE + rng.randrange(length)
                frame[pos] ^= 0xFF
                self.log.bump("corruptions_injected")
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
            if not self._write_frame(downstream, bytes(frame), plan):
                return
            self.log.bump("frames_forwarded")
            if truncated:
                return

    def _write_frame(self, downstream: socket.socket, frame: bytes,
                     plan: FaultPlan) -> bool:
        """Write one frame honoring slow-loris/bandwidth pacing."""
        try:
            if plan.slowloris_chunk_bytes:
                for offset in range(0, len(frame),
                                    plan.slowloris_chunk_bytes):
                    if offset:
                        time.sleep(plan.slowloris_delay_seconds)
                    downstream.sendall(
                        frame[offset:offset + plan.slowloris_chunk_bytes])
                self.log.bump("frames_slowlorised")
            elif plan.bandwidth_bytes_per_second:
                chunk = max(1, int(plan.bandwidth_bytes_per_second * 0.01))
                for offset in range(0, len(frame), chunk):
                    if offset:
                        time.sleep(0.01)
                    downstream.sendall(frame[offset:offset + chunk])
                self.log.bump("frames_throttled")
            else:
                downstream.sendall(frame)
        except OSError:
            return False
        return True


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

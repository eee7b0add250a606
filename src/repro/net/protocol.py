"""The versioned wire format: length-prefixed, CRC-checked binary frames.

Every message on a DESKS network connection — client to front door, front
door to shard server — is one *frame*::

    [magic u16][version u8][type u8][payload length u32][crc32 u32] payload

The 12-byte header is ``struct`` format :data:`HEADER_FORMAT`; the CRC
is seeded with the frame's type byte and then covers the payload, so a
flipped bit anywhere in the body — or a type byte flipped to another
*valid* type, which magic/version/length checks cannot see — surfaces as
a typed :class:`ChecksumMismatch` before any field is parsed.  The
header is validated *before* the payload is read: a bad magic, an unknown
version, or a length beyond :data:`MAX_PAYLOAD` (a corrupted or hostile
length prefix must not make a peer allocate gigabytes) each raise their
own :class:`ProtocolError` subclass, and the connection is the unit of
damage — both ends drop it and reconnect; neither ever hangs or crashes.

Payloads are hand-rolled ``struct`` encodings (no pickle — unpickling
network bytes is code execution; no JSON — floats must round-trip
bit-exactly for the cluster's answers to equal the unsharded index's):

* :func:`encode_search_request` — a :class:`~repro.core.DirectionalQuery`
  plus the request's *remaining deadline budget* in seconds, so the
  cooperative deadline from :mod:`repro.service` propagates across the
  wire and a shard server stops searching when the caller's budget is
  gone;
* :func:`encode_search_response` — result entries (id + f64 distance),
  partial/cached/degraded flags, the data generation, server-side
  latency, and the :class:`~repro.storage.SearchStats` counters;
* health and stats payloads for probes and scraping;
* :func:`encode_statement_request` — a DQL statement (:mod:`repro.lang`)
  as opaque text plus the same deadline budget, answered by a
  :func:`encode_statement_response` frame that nests the existing search
  or stats payloads so the text path can never drift from the binary
  one;
* :func:`encode_error` — a typed :class:`ErrorCode` (``OVERLOAD``,
  ``BAD_REQUEST``, ...) plus a human message; ``OVERLOAD`` is how a
  loaded server sheds work instead of queueing it unboundedly.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, List, Optional, Sequence, Tuple

from ..core import DirectionalQuery, MatchMode, QueryResult, ResultEntry
from ..storage import SearchStats

#: First two bytes of every frame; chosen to be invalid UTF-8 so an HTTP
#: or text client poking the port fails fast with :class:`BadMagic`.
MAGIC = 0xD35C

#: Wire format version.  Bump on any incompatible payload change; peers
#: refuse mismatched versions with a typed error instead of misparsing.
#: Version 2 seeds the CRC with the type byte (v1 left the type the only
#: header byte a single bit-flip could silently change to a valid frame).
WIRE_VERSION = 2

#: Frame header layout: magic, version, message type, payload length,
#: payload CRC32.  Network byte order throughout.
HEADER_FORMAT = "!HBBII"

#: Bytes in an encoded frame header.
HEADER_SIZE = struct.calcsize(HEADER_FORMAT)

#: Hard ceiling on payload size.  A length prefix beyond this is treated
#: as corruption (or hostility), never as an allocation request.
MAX_PAYLOAD = 8 * 1024 * 1024

#: Budget sentinel for "no deadline" (budgets are non-negative seconds).
_UNBOUNDED_BUDGET = -1.0

_ENTRY = struct.Struct("!qd")
_STATS = struct.Struct("!6Q")
_F64 = struct.Struct("!d")
_U32 = struct.Struct("!I")
_U16 = struct.Struct("!H")


class MessageType(IntEnum):
    """Frame types; requests are odd, their responses even."""

    SEARCH_REQUEST = 1
    SEARCH_RESPONSE = 2
    HEALTH_REQUEST = 3
    HEALTH_RESPONSE = 4
    STATS_REQUEST = 5
    STATS_RESPONSE = 6
    ERROR = 7
    STATEMENT_REQUEST = 9
    STATEMENT_RESPONSE = 10


class ErrorCode(IntEnum):
    """Typed failure causes carried by :attr:`MessageType.ERROR` frames."""

    #: Admission control refused the request; retry elsewhere or later.
    OVERLOAD = 1
    #: The request frame parsed but its payload was malformed.
    BAD_REQUEST = 2
    #: The server hit an unexpected error executing the request.
    INTERNAL = 3
    #: The server is draining connections for shutdown.
    SHUTTING_DOWN = 4


class ProtocolError(RuntimeError):
    """Base for wire-format violations; the connection must be dropped."""


class BadMagic(ProtocolError):
    """The stream does not start with a DESKS frame."""


class VersionMismatch(ProtocolError):
    """The peer speaks a different wire version."""


class FrameTooLarge(ProtocolError):
    """Length prefix beyond :data:`MAX_PAYLOAD` (corrupt or hostile)."""


class ChecksumMismatch(ProtocolError):
    """Payload bytes do not match the header's CRC32."""


class TruncatedFrame(ProtocolError):
    """The connection ended mid-frame."""


class RpcError(RuntimeError):
    """A well-formed :attr:`MessageType.ERROR` response from the peer."""

    def __init__(self, code: ErrorCode, message: str) -> None:
        self.code = code
        super().__init__(f"{code.name}: {message}")


class OverloadError(RpcError):
    """The peer shed this request under admission control."""

    def __init__(self, message: str = "server over capacity") -> None:
        super().__init__(ErrorCode.OVERLOAD, message)


# -- framing -----------------------------------------------------------------


def _frame_crc(msg_type: MessageType, payload: bytes) -> int:
    """The frame CRC: seeded with the type byte, then over the payload.

    Folding the type into the CRC closes the one header gap the field
    checks leave open: a bit-flip turning one valid :class:`MessageType`
    into another passes magic/version/length validation, and misparsing
    a payload under the wrong type is exactly the silent damage the CRC
    exists to prevent.
    """
    return zlib.crc32(payload, zlib.crc32(bytes([int(msg_type)]))) \
        & 0xFFFFFFFF


def encode_frame(msg_type: MessageType, payload: bytes = b"") -> bytes:
    """One complete frame: header (with type-seeded CRC) plus payload."""
    if len(payload) > MAX_PAYLOAD:
        raise FrameTooLarge(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit")
    header = struct.pack(HEADER_FORMAT, MAGIC, WIRE_VERSION, int(msg_type),
                         len(payload), _frame_crc(msg_type, payload))
    return header + payload


def parse_header(header: bytes) -> Tuple[MessageType, int, int]:
    """Validate a 12-byte header; returns ``(type, length, crc32)``.

    Raises :class:`BadMagic` / :class:`VersionMismatch` /
    :class:`FrameTooLarge` / :class:`ProtocolError` (unknown type) so a
    peer can refuse a stream *before* reading its payload.
    """
    if len(header) != HEADER_SIZE:
        raise TruncatedFrame(
            f"frame header is {len(header)} bytes, need {HEADER_SIZE}")
    magic, version, raw_type, length, crc = struct.unpack(HEADER_FORMAT,
                                                          header)
    if magic != MAGIC:
        raise BadMagic(f"bad frame magic 0x{magic:04X} "
                       f"(expected 0x{MAGIC:04X})")
    if version != WIRE_VERSION:
        raise VersionMismatch(
            f"peer speaks wire version {version}, this library speaks "
            f"{WIRE_VERSION}")
    if length > MAX_PAYLOAD:
        raise FrameTooLarge(
            f"length prefix of {length} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit")
    try:
        msg_type = MessageType(raw_type)
    except ValueError:
        raise ProtocolError(f"unknown message type {raw_type}") from None
    return msg_type, length, crc


def check_payload(payload: bytes, crc: int,
                  msg_type: MessageType) -> bytes:
    """Verify ``payload`` (and the type byte) against the header CRC.

    Returns the payload unchanged.  ``msg_type`` must be the frame's own
    type field — the CRC is seeded with it, so a frame whose type byte
    was corrupted to another valid type fails here rather than being
    dispatched as the wrong message.
    """
    actual = _frame_crc(msg_type, payload)
    if actual != crc:
        raise ChecksumMismatch(
            f"frame CRC 0x{actual:08X} != header CRC 0x{crc:08X}")
    return payload


def recv_exactly(recv: Callable[[int], bytes], count: int) -> bytes:
    """``count`` bytes from ``recv(n) -> at most n bytes`` (a socket's
    ``recv``); a short return means ``recv`` reported EOF first."""
    chunks = []
    remaining = count
    while remaining:
        chunk = recv(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(recv: Callable[[int], bytes]) -> Tuple[MessageType, bytes]:
    """Read and validate one frame via ``recv(n) -> at most n bytes``.

    ``recv`` is a socket's ``recv``: it returns short only when more is
    still to come and empty at EOF.  A stream that ends inside a frame
    surfaces as the typed :class:`TruncatedFrame` here, never as a hang
    or a misparse.
    """
    header = recv_exactly(recv, HEADER_SIZE)
    if len(header) != HEADER_SIZE:
        raise TruncatedFrame(
            f"connection closed after {len(header)} header byte(s)")
    msg_type, length, crc = parse_header(header)
    payload = recv_exactly(recv, length) if length else b""
    if len(payload) != length:
        raise TruncatedFrame(
            f"connection closed {length - len(payload)} byte(s) short of "
            "the frame payload")
    return msg_type, check_payload(payload, crc, msg_type)


# -- primitive encoders ------------------------------------------------------


def _pack_str(value: str) -> bytes:
    blob = value.encode("utf-8")
    if len(blob) > 0xFFFF:
        raise ProtocolError(f"string of {len(blob)} bytes too long to "
                            "encode (65535-byte limit)")
    return _U16.pack(len(blob)) + blob


class _Reader:
    """Cursor over a payload; every read is bounds-checked."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise ProtocolError(
                f"payload truncated: wanted {count} byte(s) at offset "
                f"{self.pos}, have {len(self.data) - self.pos}")
        out = self.data[self.pos:end]
        self.pos = end
        return out

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack(self.take(fmt.size))

    def take_str(self) -> str:
        (length,) = self.unpack(_U16)
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 in string field: {exc}") \
                from None

    def done(self) -> None:
        """Assert the payload was consumed exactly."""
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} trailing byte(s) after "
                "payload")


# -- search request ----------------------------------------------------------

_QUERY_FIXED = struct.Struct("!ddddIBB")


def encode_search_request(query: DirectionalQuery,
                          budget: Optional[float] = None) -> bytes:
    """Encode a query plus its remaining deadline budget in seconds.

    ``budget=None`` (or ``inf``) means unbounded.  The budget is the
    *remaining* time at send — the sender's :class:`~repro.service.Deadline`
    keeps draining while the request is in flight, and the receiver
    restarts its own deadline from this number, so clock skew between the
    hosts never matters (only one-way latency eats budget untracked).
    """
    if budget is None or math.isinf(budget):
        wire_budget = _UNBOUNDED_BUDGET
    elif budget < 0.0:
        wire_budget = 0.0
    else:
        wire_budget = budget
    parts = [_QUERY_FIXED.pack(
        query.location.x, query.location.y,
        query.interval.lower, query.interval.upper,
        query.k,
        1 if query.match_mode is MatchMode.ANY else 0,
        len(query.keywords) if len(query.keywords) <= 0xFF else 0xFF)]
    keywords = sorted(query.keywords)
    if len(keywords) > 0xFF:
        raise ProtocolError(f"{len(keywords)} keywords exceed the "
                            "255-keyword frame limit")
    parts.extend(_pack_str(keyword) for keyword in keywords)
    parts.append(_F64.pack(wire_budget))
    return b"".join(parts)


def decode_search_request(payload: bytes,
                          ) -> Tuple[DirectionalQuery, Optional[float]]:
    """Decode :func:`encode_search_request`; returns (query, budget)."""
    reader = _Reader(payload)
    x, y, lower, upper, k, match_any, num_keywords = \
        reader.unpack(_QUERY_FIXED)
    keywords = [reader.take_str() for _ in range(num_keywords)]
    (wire_budget,) = reader.unpack(_F64)
    reader.done()
    try:
        query = DirectionalQuery.make(
            x, y, lower, upper, keywords, k,
            match_mode=MatchMode.ANY if match_any else MatchMode.ALL)
    except ValueError as exc:
        raise ProtocolError(f"invalid query field: {exc}") from None
    budget = None if wire_budget < 0.0 else wire_budget
    return query, budget


# -- search response ---------------------------------------------------------

_RESPONSE_FIXED = struct.Struct("!IBQd")
_FLAG_PARTIAL = 0x01
_FLAG_CACHED = 0x02
_FLAG_DEGRADED = 0x04
_FLAG_HAS_STATS = 0x08
_FLAG_HAS_UNAVAILABLE = 0x10


@dataclass
class RemoteSearchResult:
    """A decoded search response: what crossed the wire, typed."""

    result: QueryResult
    cached: bool = False
    generation: int = 0
    #: Seconds the *server* spent on the request (its own clock).
    server_latency: float = 0.0
    stats: Optional[SearchStats] = None
    degraded: bool = False
    failure_cause: Optional[str] = None
    #: Shard ids whose replicas were all unreachable when a frontend
    #: answered with a brownout partial (empty for full answers and for
    #: single-shard servers).  The typed twin of ``failure_cause``.
    unavailable_shards: Tuple[int, ...] = ()

    @property
    def partial(self) -> bool:
        """True when a deadline or failure truncated the answer."""
        return self.result.partial


def encode_search_response(result: QueryResult, *,
                           cached: bool = False,
                           generation: int = 0,
                           server_latency: float = 0.0,
                           stats: Optional[SearchStats] = None,
                           degraded: bool = False,
                           failure_cause: Optional[str] = None,
                           unavailable_shards: Sequence[int] = ()) -> bytes:
    """Encode an answer: entries, flags, generation, latency, stats.

    ``unavailable_shards`` names the shards a scatter-gather frontend
    lost (brownout degradation); it is flag-gated so responses without
    it are byte-identical to the pre-brownout encoding.
    """
    flags = 0
    if result.partial:
        flags |= _FLAG_PARTIAL
    if cached:
        flags |= _FLAG_CACHED
    if degraded:
        flags |= _FLAG_DEGRADED
    if stats is not None:
        flags |= _FLAG_HAS_STATS
    if unavailable_shards:
        flags |= _FLAG_HAS_UNAVAILABLE
    parts = [_RESPONSE_FIXED.pack(len(result.entries), flags,
                                  generation, server_latency)]
    parts.extend(_ENTRY.pack(entry.poi_id, entry.distance)
                 for entry in result.entries)
    if stats is not None:
        parts.append(_STATS.pack(
            stats.regions_examined, stats.subregions_examined,
            stats.nodes_examined, stats.pois_examined,
            stats.distance_computations, stats.candidates_verified))
    parts.append(_pack_str(failure_cause or ""))
    if unavailable_shards:
        if len(unavailable_shards) > 0xFFFF:
            raise ProtocolError(
                f"{len(unavailable_shards)} unavailable shards exceed "
                "the 65535-shard frame limit")
        parts.append(_U16.pack(len(unavailable_shards)))
        parts.extend(_U32.pack(int(shard))
                     for shard in unavailable_shards)
    return b"".join(parts)


def decode_search_response(payload: bytes) -> RemoteSearchResult:
    """Decode :func:`encode_search_response`."""
    reader = _Reader(payload)
    num_entries, flags, generation, server_latency = \
        reader.unpack(_RESPONSE_FIXED)
    entries: List[ResultEntry] = []
    for _ in range(num_entries):
        poi_id, distance = reader.unpack(_ENTRY)
        entries.append(ResultEntry(poi_id, distance))
    stats = None
    if flags & _FLAG_HAS_STATS:
        (regions, subregions, nodes, pois, dists, verified) = \
            reader.unpack(_STATS)
        stats = SearchStats(
            regions_examined=regions, subregions_examined=subregions,
            nodes_examined=nodes, pois_examined=pois,
            distance_computations=dists, candidates_verified=verified)
    failure_cause = reader.take_str() or None
    unavailable: Tuple[int, ...] = ()
    if flags & _FLAG_HAS_UNAVAILABLE:
        (num_unavailable,) = reader.unpack(_U16)
        unavailable = tuple(reader.unpack(_U32)[0]
                            for _ in range(num_unavailable))
    reader.done()
    return RemoteSearchResult(
        result=QueryResult(entries, partial=bool(flags & _FLAG_PARTIAL)),
        cached=bool(flags & _FLAG_CACHED),
        generation=generation,
        server_latency=server_latency,
        stats=stats,
        degraded=bool(flags & _FLAG_DEGRADED),
        failure_cause=failure_cause,
        unavailable_shards=unavailable,
    )


# -- health ------------------------------------------------------------------

_HEALTH_FIXED = struct.Struct("!BIQQQd")


@dataclass
class HealthReport:
    """A shard server's answer to a health probe."""

    ok: bool
    shard_id: int
    generation: int
    num_pois: int
    requests_total: int
    uptime_seconds: float


def encode_health_response(report: HealthReport) -> bytes:
    """Encode a :class:`HealthReport`."""
    return _HEALTH_FIXED.pack(
        1 if report.ok else 0, report.shard_id, report.generation,
        report.num_pois, report.requests_total, report.uptime_seconds)


def decode_health_response(payload: bytes) -> HealthReport:
    """Decode :func:`encode_health_response`."""
    reader = _Reader(payload)
    ok, shard_id, generation, num_pois, requests, uptime = \
        reader.unpack(_HEALTH_FIXED)
    reader.done()
    return HealthReport(bool(ok), shard_id, generation, num_pois,
                        requests, uptime)


# -- stats -------------------------------------------------------------------


def encode_stats_response(values: dict) -> bytes:
    """Encode a flat ``name -> number`` mapping (server counters)."""
    parts = [_U32.pack(len(values))]
    for name in sorted(values):
        parts.append(_pack_str(name))
        parts.append(_F64.pack(float(values[name])))
    return b"".join(parts)


def decode_stats_response(payload: bytes) -> dict:
    """Decode :func:`encode_stats_response`."""
    reader = _Reader(payload)
    (count,) = reader.unpack(_U32)
    out = {}
    for _ in range(count):
        name = reader.take_str()
        (value,) = reader.unpack(_F64)
        out[name] = value
    reader.done()
    return out


# -- statements --------------------------------------------------------------

#: ``kind`` codes inside a :attr:`MessageType.STATEMENT_RESPONSE` frame.
_STMT_SEARCH = 1
_STMT_TABLE = 2
_STMT_TEXT = 3

_STMT_KIND_NAMES = {_STMT_SEARCH: "search", _STMT_TABLE: "table",
                    _STMT_TEXT: "text"}


def _pack_long_str(value: str) -> bytes:
    """A u32-length-prefixed UTF-8 string (EXPLAIN reports beat 64 KiB)."""
    blob = value.encode("utf-8")
    return _U32.pack(len(blob)) + blob


def _take_long_str(reader: _Reader) -> str:
    (length,) = reader.unpack(_U32)
    try:
        return reader.take(length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"invalid UTF-8 in text field: {exc}") \
            from None


@dataclass
class RemoteStatementResult:
    """A decoded statement response: the canonical text plus one payload.

    Exactly one of ``search``/``table``/``text`` is populated, matching
    ``kind`` (``"search"``/``"table"``/``"text"`` — a ``SELECT`` answer,
    a ``SHOW`` table, or an ``EXPLAIN`` report).  ``statement`` is the
    *server's* canonical rendering of what it executed, so a client can
    verify the statement survived the wire intact.
    """

    statement: str
    kind: str
    search: Optional[RemoteSearchResult] = None
    table: Optional[dict] = None
    text: Optional[str] = None


def encode_statement_request(statement: str,
                             budget: Optional[float] = None) -> bytes:
    """Encode one DQL statement plus its remaining deadline budget.

    The budget carries the same semantics as
    :func:`encode_search_request`: remaining seconds at send time, with
    ``None``/``inf`` meaning unbounded.  The statement itself is opaque
    text here — the *server* parses it, so client and server can
    disagree about grammar versions and still fail with a typed,
    caret-annotated ``BAD_REQUEST`` instead of a misparse.
    """
    if budget is None or math.isinf(budget):
        wire_budget = _UNBOUNDED_BUDGET
    elif budget < 0.0:
        wire_budget = 0.0
    else:
        wire_budget = budget
    return _pack_long_str(statement) + _F64.pack(wire_budget)


def decode_statement_request(payload: bytes,
                             ) -> Tuple[str, Optional[float]]:
    """Decode :func:`encode_statement_request` → (statement, budget)."""
    reader = _Reader(payload)
    statement = _take_long_str(reader)
    (wire_budget,) = reader.unpack(_F64)
    reader.done()
    budget = None if wire_budget < 0.0 else wire_budget
    return statement, budget


def encode_statement_response(statement: str, kind: str, *,
                              search: Optional[bytes] = None,
                              table: Optional[dict] = None,
                              text: Optional[str] = None) -> bytes:
    """Encode one statement outcome.

    ``kind`` selects the body: ``"search"`` nests a complete
    :func:`encode_search_response` payload (``search``), ``"table"``
    nests :func:`encode_stats_response` (``table``), ``"text"`` carries
    a u32-prefixed UTF-8 report (``text``).  Nesting the existing
    payloads means a statement answer can never drift from what the
    binary query path would have said.
    """
    parts = [_pack_long_str(statement)]
    if kind == "search":
        if search is None:
            raise ProtocolError("search statement response without a "
                                "nested search payload")
        parts.append(bytes([_STMT_SEARCH]))
        parts.append(search)
    elif kind == "table":
        parts.append(bytes([_STMT_TABLE]))
        parts.append(encode_stats_response(table or {}))
    elif kind == "text":
        parts.append(bytes([_STMT_TEXT]))
        parts.append(_pack_long_str(text or ""))
    else:
        raise ProtocolError(f"unknown statement outcome kind {kind!r}")
    return b"".join(parts)


def encode_statement_outcome(outcome) -> bytes:
    """Encode a ``repro.lang.StatementOutcome``-shaped object (duck-typed).

    Shared by the shard server and the cluster front door so both
    surfaces answer statement frames identically; taking the envelope by
    duck type keeps this module import-free of :mod:`repro.lang`.
    """
    if outcome.kind == "search":
        search = encode_search_response(
            QueryResult(list(outcome.entries), partial=outcome.partial),
            cached=outcome.cached,
            generation=outcome.generation,
            server_latency=outcome.latency_seconds)
        return encode_statement_response(outcome.statement, "search",
                                         search=search)
    if outcome.kind == "table":
        return encode_statement_response(outcome.statement, "table",
                                         table=outcome.table)
    return encode_statement_response(outcome.statement, "text",
                                     text=outcome.text)


def decode_statement_response(payload: bytes) -> RemoteStatementResult:
    """Decode :func:`encode_statement_response`."""
    reader = _Reader(payload)
    statement = _take_long_str(reader)
    raw_kind = reader.take(1)[0]
    kind = _STMT_KIND_NAMES.get(raw_kind)
    if kind is None:
        raise ProtocolError(f"unknown statement outcome kind {raw_kind}")
    tail = reader.data[reader.pos:]
    if kind == "search":
        return RemoteStatementResult(
            statement, kind, search=decode_search_response(tail))
    if kind == "table":
        return RemoteStatementResult(
            statement, kind, table=decode_stats_response(tail))
    inner = _Reader(tail)
    text = _take_long_str(inner)
    inner.done()
    return RemoteStatementResult(statement, kind, text=text)


# -- errors ------------------------------------------------------------------


def encode_error(code: ErrorCode, message: str) -> bytes:
    """Encode a typed error payload."""
    return bytes([int(code)]) + _pack_str(message)


def decode_error(payload: bytes) -> RpcError:
    """Decode an error payload into the matching typed exception."""
    reader = _Reader(payload)
    raw_code = reader.take(1)[0]
    message = reader.take_str()
    reader.done()
    try:
        code = ErrorCode(raw_code)
    except ValueError:
        raise ProtocolError(f"unknown error code {raw_code}") from None
    if code is ErrorCode.OVERLOAD:
        return OverloadError(message)
    return RpcError(code, message)


__all__ = [
    "MAGIC", "WIRE_VERSION", "HEADER_FORMAT", "HEADER_SIZE", "MAX_PAYLOAD",
    "MessageType", "ErrorCode",
    "ProtocolError", "BadMagic", "VersionMismatch", "FrameTooLarge",
    "ChecksumMismatch", "TruncatedFrame", "RpcError", "OverloadError",
    "encode_frame", "parse_header", "check_payload", "read_frame",
    "recv_exactly",
    "encode_search_request", "decode_search_request",
    "encode_search_response", "decode_search_response",
    "RemoteSearchResult", "HealthReport",
    "encode_health_response", "decode_health_response",
    "encode_stats_response", "decode_stats_response",
    "RemoteStatementResult",
    "encode_statement_request", "decode_statement_request",
    "encode_statement_response", "decode_statement_response",
    "encode_statement_outcome",
    "encode_error", "decode_error",
]

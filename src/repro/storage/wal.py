"""A segmented write-ahead log with CRC'd records and failpoints.

The durability contract of :mod:`repro.durability` rests on this module:
every mutation is appended here *before* it touches in-memory state, so a
crash at any instant loses at most the tail of the log — and the tail is
exactly recoverable, because each record carries a CRC32C and replay stops
at the first record that fails it (ARIES's "analysis stops at the torn
tail" in miniature).

Records are opaque byte payloads with a caller-chosen one-byte type::

    [type 1][length 4][crc32 4][payload ...]

Segments rotate at ``segment_bytes``; a checkpoint (caller has made all
logged state durable elsewhere) deletes every segment and starts a fresh
one.  In production, appends go through a normal buffered file and
``sync`` flushes then fsyncs — durability is only ever claimed at sync
points, so buffering loses nothing and keeps the per-append cost to a
memcpy.  When a failpoint is installed the file is opened unbuffered
instead, so Python never holds record bytes a simulated crash would
unrealistically lose.  ``fsync`` points are counted in
:class:`~repro.storage.stats.IOStats` (``sync="always"`` forces
per-append, ``"batch"`` every ``sync_interval`` appends, ``"checkpoint"``
only at rotation/checkpoint/close).

**Failpoints** make crash testing deterministic: a callable invoked at
named stages (``append.header``, ``append.torn``, ``append.complete``,
``sync``, ``rotate``, ``checkpoint.before``, ``checkpoint.after``) may
raise :class:`SimulatedCrash` mid-operation; whatever bytes were already
written stay on disk, exactly as a real crash would leave them.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from typing import BinaryIO, Callable, Iterator, List, Optional, Tuple

from ..trace.spans import current_tracer
from .stats import IOStats

#: Record CRC.  Page frames use CRC32C (:mod:`repro.storage.checksum`);
#: WAL records sit on the per-mutation hot path, so they use the
#: C-accelerated stdlib CRC-32 instead — same 32-bit error detection,
#: ~50x cheaper per record in pure-Python terms.
_record_crc = zlib.crc32

_RECORD_HEADER = struct.Struct("<BII")
#: Caller-visible default record type (repro.durability uses it for ops).
RECORD_OP = 1

#: Sanity bound on record length; anything larger is treated as a torn
#: header rather than an attempt to allocate garbage gigabytes.
_MAX_RECORD = 1 << 26

SYNC_POLICIES = ("always", "batch", "checkpoint")


class SimulatedCrash(RuntimeError):
    """Raised by a failpoint to model a process crash at that instant."""


class WalCorruptionError(RuntimeError):
    """A WAL segment failed verification *before* the final tail."""


FailpointFn = Callable[[str], None]


class WriteAheadLog:
    """Append-only, CRC-verified, segment-rotated redo log."""

    def __init__(self, directory: str, *,
                 segment_bytes: int = 256 * 1024,
                 sync: str = "batch",
                 sync_interval: int = 32,
                 stats: Optional[IOStats] = None,
                 failpoint: Optional[FailpointFn] = None) -> None:
        if sync not in SYNC_POLICIES:
            raise ValueError(
                f"sync must be one of {SYNC_POLICIES}, got {sync!r}")
        if segment_bytes <= _RECORD_HEADER.size:
            raise ValueError(
                f"segment_bytes too small: {segment_bytes}")
        if sync_interval < 1:
            raise ValueError(f"sync_interval must be >= 1: {sync_interval}")
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.sync_policy = sync
        self.sync_interval = sync_interval
        self.stats = stats if stats is not None else IOStats()
        self._failpoint = failpoint
        self._unsynced = 0
        self.appended = 0
        os.makedirs(directory, exist_ok=True)
        existing = self.segments()
        if existing:
            self._segment_no = _segment_number(existing[-1])
            self._repair_tail(existing[-1])
        else:
            self._segment_no = 0
        self._file = self._open_segment(self._segment_no)

    # -- paths ---------------------------------------------------------------

    def segments(self) -> List[str]:
        """Current segment file paths, oldest first."""
        return _segment_paths(self.directory)

    def _segment_path(self, number: int) -> str:
        return os.path.join(self.directory, f"segment-{number:08d}.wal")

    def _open_segment(self, number: int) -> BinaryIO:
        # Unbuffered only under a failpoint: crash simulation must see
        # exactly the bytes each write() emitted, nothing held by Python.
        buffering = 0 if self._failpoint is not None else -1
        path = self._segment_path(number)
        creating = not os.path.exists(path)
        handle = open(path, "ab", buffering=buffering)
        if creating:
            # The file's very existence must survive power loss, or a
            # checkpoint could leave the log with no open-for-append tail.
            fsync_dir(self.directory)
        return handle

    # -- appending -----------------------------------------------------------

    def append(self, payload: bytes, rectype: int = RECORD_OP) -> int:
        """Append one record; returns the record's ordinal in this log's
        lifetime.  Durable once the containing segment is synced."""
        if not 0 < rectype < 256:
            raise ValueError(f"rectype must fit one byte: {rectype}")
        tracer = current_tracer()
        tick = time.perf_counter() if tracer is not None else 0.0
        self._fire("append.header")
        crc = _record_crc(payload, rectype)
        header = _RECORD_HEADER.pack(rectype, len(payload), crc)
        if self._failpoint is not None:
            # Two writes on purpose: a crash between them leaves a torn
            # tail, the case recovery must (and chaos tests do) exercise.
            self._file.write(header + payload[:len(payload) // 2])
            self._fire("append.torn")
            self._file.write(payload[len(payload) // 2:])
        else:
            # Production path: one buffered write; durability is claimed
            # only at sync points, and recovery handles whatever prefix a
            # real crash leaves behind.
            self._file.write(header + payload)
        self.stats.record_wal_append(_RECORD_HEADER.size + len(payload))
        self.appended += 1
        self._unsynced += 1
        self._fire("append.complete")
        if self.sync_policy == "always" or (
                self.sync_policy == "batch"
                and self._unsynced >= self.sync_interval):
            self.sync()
        if self._file.tell() >= self.segment_bytes:
            self._rotate()
        if tracer is not None:
            tracer.record(
                "wal.append", seconds=time.perf_counter() - tick,
                bytes=_RECORD_HEADER.size + len(payload))
        return self.appended - 1

    def sync(self) -> None:
        """Force appended records to stable storage (counted in stats)."""
        if self._unsynced == 0:
            return
        tracer = current_tracer()
        tick = time.perf_counter() if tracer is not None else 0.0
        self._fire("sync")
        self._file.flush()
        os.fsync(self._file.fileno())
        self.stats.record_fsync()
        records = self._unsynced
        self._unsynced = 0
        if tracer is not None:
            tracer.record("wal.fsync",
                          seconds=time.perf_counter() - tick,
                          records=records)

    def _rotate(self) -> None:
        self.sync()
        self._fire("rotate")
        self._file.close()
        self._segment_no += 1
        self._file = self._open_segment(self._segment_no)

    def checkpoint(self) -> None:
        """Drop every segment: the caller has snapshotted all logged state.

        Crash ordering matters — the caller must have made its snapshot
        durable *before* calling this, and recovery must tolerate a crash
        between the two (repro.durability uses op sequence numbers).
        """
        self._fire("checkpoint.before")
        self.sync()
        self._file.close()
        for path in self.segments():
            os.unlink(path)
        # Unlinks must be durable before new appends: a power loss that
        # resurrected a pre-checkpoint segment would replay absorbed ops
        # ahead of newer ones.
        fsync_dir(self.directory)
        self._segment_no += 1
        self._file = self._open_segment(self._segment_no)
        self._fire("checkpoint.after")

    # -- reading -------------------------------------------------------------

    def replay(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(rectype, payload)`` up to the last consistent record.

        A torn or corrupt record ends the iteration cleanly — everything
        before it was written (and CRC-verified) in full, which is the
        strongest statement a redo log can make after a crash.
        """
        for path in self.segments():
            for _, rectype, payload in _scan_segment(path):
                yield rectype, payload

    def scrub(self) -> "WalScrubReport":
        """Verify every segment; reports where (if anywhere) the log tears."""
        return _scrub_segments(self.segments())

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if not self._file.closed:
            self.sync()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _fire(self, stage: str) -> None:
        if self._failpoint is not None:
            self._failpoint(stage)

    def _repair_tail(self, path: str) -> None:
        """Truncate the final segment's torn tail so appends can resume."""
        _, tail = _scan_segment_extent(path)
        if tail is not None:
            with open(path, "r+b") as handle:
                handle.truncate(tail)


class WalScrubReport:
    """Outcome of :meth:`WriteAheadLog.scrub`."""

    def __init__(self) -> None:
        self.records = 0
        self.torn_at: Optional[Tuple[str, int]] = None
        self.unreachable_segments = 0

    @property
    def clean(self) -> bool:
        return self.torn_at is None

    def summary(self) -> str:
        if self.clean:
            return f"wal: {self.records} record(s), clean"
        path, offset = self.torn_at
        return (f"wal: {self.records} record(s), torn at "
                f"{os.path.basename(path)}:{offset} "
                f"({self.unreachable_segments} segment(s) unreachable)")


def wal_scrub(directory: str) -> "WalScrubReport":
    """Verify a WAL directory **without touching it**.

    Unlike ``WriteAheadLog(...).scrub()``, this never repairs a torn
    tail, opens nothing for append, and creates no files — so an offline
    integrity check (the CLI ``scrub`` command) can report a torn final
    record instead of silently truncating the evidence.  A missing
    directory scrubs as an empty, clean log.
    """
    if not os.path.isdir(directory):
        return WalScrubReport()
    return _scrub_segments(_segment_paths(directory))


def _scrub_segments(segments: List[str]) -> "WalScrubReport":
    report = WalScrubReport()
    for index, path in enumerate(segments):
        good, tail = _scan_segment_extent(path)
        report.records += good
        if tail is not None:
            report.torn_at = (path, tail)
            # Bytes in later segments are unreachable by replay.
            report.unreachable_segments = len(segments) - index - 1
            break
    return report


def _segment_paths(directory: str) -> List[str]:
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("segment-") and n.endswith(".wal"))
    return [os.path.join(directory, n) for n in names]


def fsync_dir(path: str) -> None:
    """Make renames/unlinks under ``path`` durable (no-op where
    directories cannot be opened, e.g. Windows)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _scan_segment(path: str) -> Iterator[Tuple[int, int, bytes]]:
    """Yield ``(offset, rectype, payload)`` for each valid record."""
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    while offset + _RECORD_HEADER.size <= len(data):
        rectype, length, crc = _RECORD_HEADER.unpack_from(data, offset)
        if rectype == 0 or length > _MAX_RECORD:
            return
        end = offset + _RECORD_HEADER.size + length
        if end > len(data):
            return
        payload = data[offset + _RECORD_HEADER.size:end]
        if _record_crc(payload, rectype) != crc:
            return
        yield offset, rectype, payload
        offset = end


def _scan_segment_extent(path: str) -> Tuple[int, Optional[int]]:
    """``(valid_records, torn_offset)``; torn_offset None when clean."""
    last_end = 0
    count = 0
    for offset, _, payload in _scan_segment(path):
        count += 1
        last_end = offset + _RECORD_HEADER.size + len(payload)
    return count, None if last_end == os.path.getsize(path) else last_end


def _segment_number(path: str) -> int:
    name = os.path.basename(path)
    return int(name[len("segment-"):-len(".wal")])

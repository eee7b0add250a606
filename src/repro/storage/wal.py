"""A segmented write-ahead log with CRC'd records and failpoints.

The durability contract of :mod:`repro.durability` rests on this module:
every mutation is appended here *before* it touches in-memory state, so a
crash at any instant loses at most the tail of the log — and the tail is
exactly recoverable, because each record carries a CRC-32 and replay stops
at the first record that fails it (ARIES's "analysis stops at the torn
tail" in miniature).  A bad record that is not a torn tail — one in an
earlier segment, or one followed by a record that verifies — is
corruption: :class:`WalCorruptionError`, never a silent truncation.

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
raise mid-operation to model a crash; whatever bytes were already
written stay on disk, exactly as a real crash would leave them.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from typing import BinaryIO, Callable, Iterator, List, Optional, Tuple

from ..trace.spans import current_tracer
from .stats import IOStats, ScrubReport

#: Record CRC: the stdlib CRC-32, as in page frames and wire frames.
_record_crc = zlib.crc32

_RECORD_HEADER = struct.Struct("<BII")
#: Caller-visible default record type (repro.durability uses it for ops).
RECORD_OP = 1

#: Sanity bound on record length; anything larger is treated as a torn
#: header rather than an attempt to allocate garbage gigabytes.
_MAX_RECORD = 1 << 26

SYNC_POLICIES = ("always", "batch", "checkpoint")


class WalCorruptionError(ValueError):
    """A WAL record failed verification *before* the final tail.

    A :class:`ValueError`, like :class:`~repro.core.PersistenceError`:
    damaged input on disk, reported the same way by the CLI."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.reason = reason


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

        A torn final record ends the iteration cleanly — everything
        before it was written (and CRC-verified) in full, which is the
        strongest statement a redo log can make after a crash.  A bad
        record anywhere else raises :class:`WalCorruptionError`.
        """
        segments = self.segments()
        for position, path in enumerate(segments):
            records, _ = _read_segment(path,
                                       final=position == len(segments) - 1)
            yield from records

    def scrub(self) -> ScrubReport:
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
        """Truncate the final segment's torn tail so appends can resume;
        :class:`WalCorruptionError`, file untouched, if it is corrupt."""
        _, tail = _read_segment(path, final=True)
        if tail is not None:
            with open(path, "r+b") as handle:
                handle.truncate(tail)


def wal_scrub(directory: str) -> ScrubReport:
    """Verify a WAL directory **without touching it**.

    Unlike ``WriteAheadLog(...).scrub()``, this never repairs a torn
    tail, opens nothing for append, and creates no files — so an offline
    integrity check (the CLI ``scrub`` command) can report a torn final
    record instead of silently truncating the evidence.  A missing
    directory scrubs as an empty, clean log.
    """
    return _scrub_segments(
        _segment_paths(directory) if os.path.isdir(directory) else [])


def _scrub_segments(segments: List[str]) -> ScrubReport:
    """Count valid records; a torn tail or a corrupt record is one entry
    naming the segment, and replay reaches nothing after it."""
    report = ScrubReport()
    report.count("wal record", 0)
    for position, path in enumerate(segments):
        try:
            records, tail = _read_segment(
                path, final=position == len(segments) - 1)
        except WalCorruptionError as exc:
            report.corrupt.append((path, exc.reason))
            break
        report.count("wal record", len(records))
        if tail is not None:
            report.corrupt.append((path, f"torn at byte {tail}"))
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


def _read_segment(path: str, final: bool
                  ) -> Tuple[List[Tuple[int, bytes]], Optional[int]]:
    """``(records, torn_at)``: the segment's verified ``(rectype,
    payload)`` records, and the offset of its torn tail (None if clean).

    The first record that fails verification ends the segment.  Only the
    final segment may end torn, and only if no verified record starts
    where the bad one's header says it ends: a torn write leaves nothing
    after itself.  Anything else is mid-log corruption, raised as
    :class:`WalCorruptionError` with the file untouched — truncating
    there would discard records that verify.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    records: List[Tuple[int, bytes]] = []
    offset = 0
    while offset < len(data):
        rectype, payload, end = _record_at(data, offset)
        if payload is None:
            if final and _record_at(data, end)[1] is None:
                return records, offset
            raise WalCorruptionError(
                path, f"record at byte {offset} fails verification but "
                + ("the record after it verifies" if final
                   else "a later segment follows"))
        records.append((rectype, payload))
        offset = end
    return records, None


def _record_at(data: bytes, offset: int
               ) -> Tuple[int, Optional[bytes], int]:
    """``(rectype, payload, end)`` of the record at ``offset``;
    ``payload`` is None when it does not verify, and ``end`` is where its
    header says it ends (``len(data)`` when the header is cut short)."""
    if offset + _RECORD_HEADER.size > len(data):
        return 0, None, len(data)
    rectype, length, crc = _RECORD_HEADER.unpack_from(data, offset)
    end = offset + _RECORD_HEADER.size + length
    if rectype == 0 or length > _MAX_RECORD or end > len(data):
        return rectype, None, end
    payload = data[offset + _RECORD_HEADER.size:end]
    if _record_crc(payload, rectype) != crc:
        return rectype, None, end
    return rectype, payload, end


def _segment_number(path: str) -> int:
    name = os.path.basename(path)
    return int(name[len("segment-"):-len(".wal")])

"""A crash-safe mutable DESKS index: WAL in front, snapshots behind.

:class:`DurableMutableIndex` wraps the main-plus-delta design of
:class:`~repro.core.MutableDesksIndex` with write-ahead logging so the
visible state survives a process crash at *any* instant:

* every ``insert``/``delete`` is appended (CRC'd, sequence-numbered) to a
  :class:`~repro.storage.WriteAheadLog` **before** it mutates memory;
* ``checkpoint()`` compacts the delta into the static index, saves an
  atomic snapshot (:func:`~repro.core.save_index` with the op sequence
  number riding inside the same atomic swap), then truncates the WAL;
* ``recover()`` loads the last durable snapshot and replays the WAL
  suffix — ops whose sequence number the snapshot already absorbed are
  skipped, which makes a crash *between* snapshot swap and WAL truncation
  harmless (the classic double-apply window).

Replay is deterministic: given the same base collection, the same op
sequence, and the same rebuild threshold, ``MutableDesksIndex`` assigns
the same ids and rebuilds at the same points, so a recovered index answers
queries byte-for-byte like an instance that never crashed (the chaos
harness in :mod:`repro.durability.chaos` asserts exactly this).

Directory layout::

    <dir>/durable.json    build parameters (bands, wedges, threshold)
    <dir>/snapshot/       save_index format + op_seq marker
    <dir>/wal/            segment-%08d.wal
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from typing import Iterable, Optional

from ..trace.spans import current_tracer
from ..core.dynamic import MutableDesksIndex
from ..core.index import DesksIndex
from ..core.persistence import (
    PersistenceError,
    load_index,
    save_index,
    scrub_saved,
    SavedScrubReport,
)
from ..datasets import POICollection
from ..storage.serializer import (
    decode_floats,
    decode_keywords,
    decode_varint,
    encode_floats,
    encode_keywords,
    encode_varint,
)
from ..storage.stats import IOStats
from ..storage.wal import (
    RECORD_OP,
    FailpointFn,
    WalScrubReport,
    WriteAheadLog,
    fsync_dir,
    wal_scrub,
)

DURABLE_VERSION = 1
DURABLE_META = "durable.json"
SNAPSHOT_DIR = "snapshot"
WAL_DIR = "wal"
#: Name of the op-sequence marker stored *inside* the snapshot directory,
#: so snapshot contents and marker swap into place in one rename.
SNAPSHOT_MARKER = "durable.json"


def _maybe_span(name: str):
    """A tracer span when tracing is active, else a no-op context."""
    tracer = current_tracer()
    return tracer.span(name) if tracer is not None else nullcontext()


_OP_INSERT = 1
_OP_DELETE = 2


class DurableMutableIndex(MutableDesksIndex):
    """A mutable DESKS index whose mutations survive crashes.

    Build with :meth:`create` (fresh directory) or :meth:`recover`
    (after a crash or clean shutdown); the plain constructor is not
    supported because durable state needs a directory protocol.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError(
            "use DurableMutableIndex.create(...) or .recover(...)")

    # -- construction --------------------------------------------------------

    @classmethod
    def create(cls, collection: POICollection, directory: str,
               num_bands: Optional[int] = None,
               num_wedges: Optional[int] = None,
               rebuild_threshold: float = 0.25,
               sync: str = "batch",
               sync_interval: int = 32,
               failpoint: Optional[FailpointFn] = None
               ) -> "DurableMutableIndex":
        """Build a durable index over ``collection`` rooted at ``directory``.

        The base collection is snapshotted immediately (op_seq 0), so even
        a crash before the first mutation leaves a recoverable directory.
        ``durable.json`` is written (and fsynced) *last*: it is the commit
        record of creation, so a crash anywhere earlier leaves a directory
        that a re-run of ``create()`` simply restarts — never one that
        both ``create()`` and ``recover()`` refuse.
        """
        if os.path.exists(os.path.join(directory, DURABLE_META)):
            raise PersistenceError(
                f"{directory} already holds a durable index; use recover()")
        os.makedirs(directory, exist_ok=True)
        index = DesksIndex(collection, num_bands, num_wedges)
        instance = cls._adopt(index, rebuild_threshold)
        instance._attach(directory, sync, sync_interval, failpoint)
        instance._save_snapshot()
        meta = {
            "version": DURABLE_VERSION,
            "num_bands": index.num_bands,
            "num_wedges": index.num_wedges,
            "rebuild_threshold": rebuild_threshold,
        }
        meta_path = os.path.join(directory, DURABLE_META)
        tmp_path = meta_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, meta_path)
        fsync_dir(directory)
        instance._wal = instance._open_wal()
        return instance

    @classmethod
    def recover(cls, directory: str, *,
                sync: str = "batch",
                sync_interval: int = 32,
                verify: bool = False,
                failpoint: Optional[FailpointFn] = None
                ) -> "DurableMutableIndex":
        """Reopen ``directory`` after a crash (or clean close).

        Loads the last durable snapshot, then replays the WAL suffix:
        records whose sequence number is <= the snapshot's marker were
        already absorbed and are skipped; a torn tail ends replay cleanly.
        With ``verify=True`` the snapshot's checksum manifest is enforced
        before any byte of it is trusted.
        """
        meta = _load_durable_meta(directory)
        snapshot_dir = os.path.join(directory, SNAPSHOT_DIR)
        static = load_index(snapshot_dir, verify=verify)
        marker = _load_marker(snapshot_dir)
        instance = cls._adopt(static, meta["rebuild_threshold"])
        instance._attach(directory, sync, sync_interval, failpoint)
        instance._op_seq = marker["op_seq"]
        instance._snapshot_op_seq = marker["op_seq"]
        replay_log = WriteAheadLog(instance._wal_dir, sync=sync,
                                   sync_interval=sync_interval,
                                   stats=instance.wal_stats)
        try:
            for rectype, payload in replay_log.replay():
                if rectype != RECORD_OP:
                    continue
                instance._apply_record(payload)
        finally:
            replay_log.close()
        instance._wal = instance._open_wal()
        return instance

    @classmethod
    def _adopt(cls, index: DesksIndex,
               rebuild_threshold: float) -> "DurableMutableIndex":
        instance = super().from_static(index, rebuild_threshold)
        instance._op_seq = 0
        instance._snapshot_op_seq = 0
        instance._wal = None
        instance._replaying = False
        instance._checkpointing = False
        instance._poisoned = False
        return instance

    def _attach(self, directory: str, sync: str, sync_interval: int,
                failpoint: Optional[FailpointFn]) -> None:
        self.directory = directory
        self._sync = sync
        self._sync_interval = sync_interval
        self._failpoint = failpoint
        self._wal_dir = os.path.join(directory, WAL_DIR)
        self.wal_stats = IOStats()

    def _open_wal(self) -> WriteAheadLog:
        return WriteAheadLog(self._wal_dir, sync=self._sync,
                             sync_interval=self._sync_interval,
                             stats=self.wal_stats,
                             failpoint=self._failpoint)

    # -- durable state -------------------------------------------------------

    @property
    def op_seq(self) -> int:
        """Sequence number of the last applied mutation (0 = none)."""
        return self._op_seq

    @property
    def snapshot_op_seq(self) -> int:
        """Op sequence the last durable snapshot absorbed.

        The WAL suffix ``(snapshot_op_seq, op_seq]`` is what recovery
        would replay if the process died right now."""
        return self._snapshot_op_seq

    @property
    def wal(self) -> WriteAheadLog:
        """The underlying write-ahead log."""
        return self._wal

    # -- logged mutations ----------------------------------------------------

    def insert(self, x: float, y: float, keywords: Iterable[str]) -> int:
        """Insert a POI, WAL-first; returns its id."""
        with _maybe_span("durable.insert"), self._lock:
            self._check_usable()
            # Materialize once: ``keywords`` may be a one-shot iterable,
            # and the WAL payload and the live index must see the same
            # terms or recovery would diverge from the pre-crash state.
            kws = sorted(set(keywords))
            if not self._replaying:
                payload = (encode_varint(self._op_seq + 1)
                           + bytes([_OP_INSERT])
                           + encode_floats([x, y])
                           + encode_keywords(kws))
                self._wal.append(payload)
            self._op_seq += 1
            return super().insert(x, y, kws)

    def delete(self, poi_id: int) -> bool:
        """Delete a POI, WAL-first; True if it existed."""
        with _maybe_span("durable.delete"), self._lock:
            self._check_usable()
            if not self._replaying:
                payload = (encode_varint(self._op_seq + 1)
                           + bytes([_OP_DELETE])
                           + encode_varint(poi_id))
                self._wal.append(payload)
            self._op_seq += 1
            return super().delete(poi_id)

    def _apply_record(self, payload: bytes) -> None:
        seq, offset = decode_varint(payload)
        if seq <= self._snapshot_op_seq:
            return  # Absorbed by the snapshot already (double-apply guard).
        if seq != self._op_seq + 1:
            raise PersistenceError(
                f"WAL sequence gap: expected {self._op_seq + 1}, got {seq}")
        op = payload[offset]
        offset += 1
        self._replaying = True
        try:
            if op == _OP_INSERT:
                coords, offset = decode_floats(payload, offset)
                keywords, _ = decode_keywords(payload, offset)
                self.insert(coords[0], coords[1], keywords)
            elif op == _OP_DELETE:
                poi_id, _ = decode_varint(payload, offset)
                self.delete(poi_id)
            else:
                raise PersistenceError(f"unknown WAL op byte {op}")
        finally:
            self._replaying = False

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self) -> None:
        """Make all applied mutations durable and truncate the WAL.

        Three ordered steps — compact the delta, atomically swap in a
        snapshot carrying ``op_seq``, drop the WAL.  A crash between any
        two leaves a recoverable directory: before the swap, the old
        snapshot plus the full WAL reproduce everything; after the swap
        but before truncation, replay skips the absorbed prefix via the
        marker.
        """
        with _maybe_span("durable.checkpoint"), self._lock:
            self._check_usable()
            # Compaction re-densifies ids without a WAL record of it; if
            # the snapshot that would make it durable then fails (short of
            # a full crash), later WAL records would reference ids replay
            # cannot reconstruct.  Poison the instance for that window —
            # a real crash is fine (recovery ignores in-memory state), a
            # swallowed exception is not.
            self._poisoned = True
            self._checkpointing = True
            try:
                with _maybe_span("durable.compact"):
                    self.compact()
                with _maybe_span("durable.snapshot"):
                    self._save_snapshot()
                with _maybe_span("wal.truncate"):
                    self._wal.checkpoint()
            finally:
                self._checkpointing = False
            self._poisoned = False

    def compact(self) -> bool:
        """Bare compaction is not durable (ids move with no WAL trace);
        on a durable index it only runs as part of :meth:`checkpoint`."""
        if not self._checkpointing:
            raise PersistenceError(
                "DurableMutableIndex.compact() runs only inside "
                "checkpoint(); call checkpoint() instead")
        return super().compact()

    def _check_usable(self) -> None:
        if self._poisoned:
            raise PersistenceError(
                "durable index poisoned by a failed checkpoint; "
                "recover() from disk to continue")

    def _save_snapshot(self) -> None:
        marker = json.dumps({"version": DURABLE_VERSION,
                             "op_seq": self._op_seq}).encode("ascii")
        # The failpoint rides into the directory swap itself, so chaos
        # trials crash between its two renames — the window
        # repair_interrupted_swap() exists for.
        save_index(self._index, os.path.join(self.directory, SNAPSHOT_DIR),
                   extra_files={SNAPSHOT_MARKER: marker},
                   failpoint=self._failpoint)
        self._snapshot_op_seq = self._op_seq

    # -- verification --------------------------------------------------------

    def scrub(self) -> "DurabilityScrubReport":
        """Verify every durable byte: snapshot files and WAL segments."""
        snapshot = scrub_saved(os.path.join(self.directory, SNAPSHOT_DIR))
        wal = self._wal.scrub()
        return DurabilityScrubReport(snapshot, wal)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: sync the WAL so nothing is lost, keep segments
        (recover() replays them; checkpoint() first for a fast reopen)."""
        self._wal.close()

    def abandon(self) -> None:
        """Release file handles *without* syncing — what a crash leaves.

        Meaningful under a failpoint (chaos trials), where the WAL file is
        unbuffered and closing loses nothing that was already written; it
        simply frees descriptors so trials can reopen the directory
        without leaking."""
        if self._wal is not None and not self._wal._file.closed:
            self._wal._file.close()

    def __enter__(self) -> "DurableMutableIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class DurabilityScrubReport:
    """Combined verification of a durable index's snapshot and WAL."""

    def __init__(self, snapshot: SavedScrubReport,
                 wal: WalScrubReport) -> None:
        self.snapshot = snapshot
        self.wal = wal

    @property
    def clean(self) -> bool:
        """True when neither the snapshot nor the WAL has damage."""
        return self.snapshot.clean and self.wal.clean

    def summary(self) -> str:
        """One line combining the snapshot and WAL verdicts."""
        return f"{self.snapshot.summary()}; {self.wal.summary()}"


def scrub_durable(directory: str) -> DurabilityScrubReport:
    """Offline verification of a durable index directory (no replay).

    Strictly read-only: the WAL is scanned via :func:`wal_scrub` rather
    than opened through :class:`WriteAheadLog` (whose constructor would
    truncate a torn tail and open a segment for append), so a torn final
    record is *reported*, not silently repaired.  ``recover()`` is what
    repairs it.
    """
    _load_durable_meta(directory)
    snapshot = scrub_saved(os.path.join(directory, SNAPSHOT_DIR))
    return DurabilityScrubReport(snapshot,
                                 wal_scrub(os.path.join(directory, WAL_DIR)))


def is_durable_dir(directory: str) -> bool:
    """Does ``directory`` look like a DurableMutableIndex root?

    ``durable.json`` alone decides: it is the commit record of
    :meth:`DurableMutableIndex.create` (written last), and the snapshot
    directory may legitimately be mid-swap after a crash — ``recover()``
    repairs that on open.
    """
    return os.path.isfile(os.path.join(directory, DURABLE_META))


def _load_durable_meta(directory: str) -> dict:
    path = os.path.join(directory, DURABLE_META)
    if not os.path.isfile(path):
        raise PersistenceError(
            f"{directory} is not a durable index (no {DURABLE_META})")
    with open(path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    if meta.get("version") != DURABLE_VERSION:
        raise PersistenceError(
            f"durable format version {meta.get('version')!r} unsupported "
            f"(expected {DURABLE_VERSION})")
    return meta


def _load_marker(snapshot_dir: str) -> dict:
    path = os.path.join(snapshot_dir, SNAPSHOT_MARKER)
    if not os.path.isfile(path):
        raise PersistenceError(
            f"snapshot {snapshot_dir} lacks its op-sequence marker")
    with open(path, "r", encoding="utf-8") as handle:
        marker = json.load(handle)
    if not isinstance(marker.get("op_seq"), int) or marker["op_seq"] < 0:
        raise PersistenceError(
            f"snapshot marker op_seq invalid: {marker.get('op_seq')!r}")
    return marker

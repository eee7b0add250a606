"""Saving and loading a built DESKS index — crash-safely.

Building the index costs four global sorts over the whole collection;
loading a saved one costs only linear passes.  An index directory is
self-contained:

    <dir>/meta.json        version, N, M, anchors, POI count
    <dir>/pois.csv         the collection (library CSV format)
    <dir>/anchor<i>.bin    one region-skeleton blob per anchor
    <dir>/checksums.json   CRC32C + length per file (scrub manifest)

Keyword stores are *not* serialized: their layout is derived from
``poi_order`` at load time (one `TermPairs` flattening per index, one
`TermLayout` sort per anchor), which measures faster than parsing an
equivalent amount of posting bytes in Python and keeps the format simple.

A *sharded deployment* (``repro.cluster``) is saved as one such index
directory per shard plus a cluster-level manifest:

    <dir>/meta.json        cluster version, shard count, caller metadata
    <dir>/shard<i>/        one saved index per shard (format above)

**Durability.**  Both save paths are atomic at the directory level: files
are written (and fsynced) into a temporary sibling, which is renamed over
the target only once complete — a crash mid-save leaves either the old
save or the new one, never a half-written mix.  Replacing an existing
save takes two renames (target away, staging in); a crash in the window
between them leaves only the ``.displaced``/``.saving`` siblings, which
:func:`repair_interrupted_swap` — run automatically by the load paths and
by the next save — rolls forward (the staging dir is complete by then) or
back.  The parent directory is fsynced after every rename so the swap
also survives power loss, not just process death.  Every data file's CRC32C
lands in ``checksums.json`` so :func:`scrub_saved` can verify a deployment
end to end, and loads raise typed errors — :class:`PersistenceError` /
:class:`MissingPersistenceFile` — instead of bare ``KeyError`` or
``FileNotFoundError`` when handed a damaged directory.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..datasets import load_csv, save_csv
from ..geometry import Anchor, CanonicalFrame
from ..storage import crc32c, fsync_dir
from .index import AnchorIndex, DesksIndex
from .regions import AnchorRegions
from .stores import MemoryKeywordStore, TermPairs

FORMAT_VERSION = 1
CLUSTER_FORMAT_VERSION = 1
CHECKSUMS_FILE = "checksums.json"


class PersistenceError(ValueError):
    """A saved index/deployment is structurally invalid or corrupt."""


class MissingPersistenceFile(PersistenceError, FileNotFoundError):
    """A file the save format promises is absent.

    Subclasses both :class:`PersistenceError` (it is a persistence
    problem) and :class:`FileNotFoundError` (so pre-existing callers that
    caught the untyped error keep working).
    """


# -- saving ---------------------------------------------------------------


def save_index(index: DesksIndex, directory: str,
               extra_files: Optional[dict] = None,
               failpoint: Optional[Callable[[str], None]] = None) -> None:
    """Persist ``index`` (memory-store variant) into ``directory``.

    Atomic: the files are staged in a temporary sibling directory and
    renamed into place, so ``directory`` never holds a partial save.
    ``extra_files`` (name -> bytes) ride along inside the same atomic
    swap and checksum manifest — the durability layer stores its WAL
    op-sequence marker this way so snapshot and marker can never diverge.
    ``failpoint`` (stages ``swap.staged``, ``swap.displaced``,
    ``swap.complete``) lets crash tests kill the process inside the swap
    itself.

    Disk-backed indexes already live in page files tied to their configured
    paths; persisting those means copying the page files, which is the
    caller's business — this helper refuses them to avoid a silent
    half-save.
    """
    _refuse_disk_based(index)
    _atomic_directory_swap(
        directory,
        lambda staging: _write_index_files(index, staging, extra_files),
        failpoint=failpoint)


def save_sharded(indexes: Sequence[DesksIndex], directory: str,
                 meta: Optional[dict] = None) -> None:
    """Persist a sharded deployment: one index per ``<dir>/shard<i>/``.

    ``meta`` is caller-owned, JSON-serializable metadata (the cluster
    layer stores its partitioner name and local-to-global id maps here)
    returned verbatim by :func:`load_sharded`.  All shards are checked
    *before* any file is written, and the whole deployment is staged then
    renamed into place in one step, so a half-written deployment cannot
    appear at ``directory`` — not even on a crash mid-save.
    """
    if not indexes:
        raise ValueError("a sharded deployment needs at least one shard")
    for position, index in enumerate(indexes):
        if index.disk_based:
            raise ValueError(
                f"shard {position} is disk-based; save_sharded() supports "
                "memory-store shards only (disk-based indexes already "
                "persist through their page files)")
    manifest = {
        "version": CLUSTER_FORMAT_VERSION,
        "num_shards": len(indexes),
        "meta": meta if meta is not None else {},
    }

    def write(staging: str) -> None:
        for position, index in enumerate(indexes):
            shard_dir = os.path.join(staging, f"shard{position}")
            os.makedirs(shard_dir)
            _write_index_files(index, shard_dir)
        _write_file(os.path.join(staging, "meta.json"),
                    _json_bytes(manifest))

    _atomic_directory_swap(directory, write)


def _refuse_disk_based(index: DesksIndex) -> None:
    if index.disk_based:
        raise ValueError(
            "save_index() supports memory-store indexes; a disk-based "
            "index already persists through its page files")


def _write_index_files(index: DesksIndex, directory: str,
                       extra_files: Optional[dict] = None) -> None:
    """Write one index's files plus its checksum manifest into
    ``directory`` (which must already exist)."""
    meta = {
        "version": FORMAT_VERSION,
        "num_bands": index.num_bands,
        "num_wedges": index.num_wedges,
        "num_pois": len(index.collection),
        "anchors": index.built_anchors(),
    }
    names = ["meta.json", "pois.csv"]
    _write_file(os.path.join(directory, "meta.json"), _json_bytes(meta))
    save_csv(index.collection, os.path.join(directory, "pois.csv"))
    for quadrant in index.built_anchors():
        name = f"anchor{quadrant}.bin"
        _write_file(os.path.join(directory, name),
                    index.anchors[quadrant].regions.to_blob())
        names.append(name)
    for name, blob in sorted((extra_files or {}).items()):
        _write_file(os.path.join(directory, name), blob)
        names.append(name)
    manifest = {"version": 1, "files": {}}
    for name in names:
        blob = _read_file(os.path.join(directory, name))
        manifest["files"][name] = {"crc32c": crc32c(blob),
                                   "bytes": len(blob)}
    _write_file(os.path.join(directory, CHECKSUMS_FILE),
                _json_bytes(manifest))


def repair_interrupted_swap(directory: str) -> bool:
    """Finish a directory swap a crash interrupted; returns True if it did.

    Replacing an existing save renames the target to ``.displaced`` before
    renaming ``.saving`` into place; a crash between those two renames
    leaves no ``directory`` at all — only the siblings.  The staging dir
    is complete by then (it is only ever renamed after every file in it
    was written and fsynced), so roll *forward* to it; a lone
    ``.displaced`` (which the swap's ordering cannot actually produce)
    rolls back to the old save rather than losing everything.  A lone
    partial ``.saving`` is never adopted — that is a crash mid-write, and
    the old state is whatever ``directory`` already holds.

    The load paths and the next save both call this, so an interrupted
    swap heals on first contact instead of wedging the directory.
    """
    directory = directory.rstrip("/") or directory
    if os.path.isdir(directory):
        return False  # target intact; any siblings are stale leftovers
    staging = directory + ".saving"
    displaced = directory + ".displaced"
    if os.path.isdir(displaced):
        if os.path.isdir(staging):
            os.rename(staging, directory)  # complete new save: roll forward
            shutil.rmtree(displaced)
        else:
            os.rename(displaced, directory)  # roll back to the old save
        fsync_dir(os.path.dirname(os.path.abspath(directory)))
        return True
    return False


def _atomic_directory_swap(directory: str, write,
                           failpoint: Optional[Callable[[str], None]] = None
                           ) -> None:
    """Run ``write(staging_dir)`` then rename the staging dir over
    ``directory``; the target is at all times either absent, the old
    save, the completed new one, or an interrupted swap that
    :func:`repair_interrupted_swap` rolls forward."""
    directory = directory.rstrip("/") or directory
    parent = os.path.dirname(os.path.abspath(directory))
    os.makedirs(parent, exist_ok=True)
    repair_interrupted_swap(directory)
    staging = directory + ".saving"
    displaced = directory + ".displaced"
    for leftover in (staging, displaced):
        if os.path.isdir(leftover):  # a previous save crashed mid-swap
            shutil.rmtree(leftover)
    os.makedirs(staging)
    try:
        write(staging)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if failpoint is not None:
        failpoint("swap.staged")
    if os.path.exists(directory):
        os.rename(directory, displaced)
        if failpoint is not None:
            failpoint("swap.displaced")
        os.rename(staging, directory)
        fsync_dir(parent)
        if failpoint is not None:
            failpoint("swap.complete")
        shutil.rmtree(displaced)
    else:
        os.rename(staging, directory)
        fsync_dir(parent)


def _write_file(path: str, blob: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())


def _read_file(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, indent=2).encode("utf-8")


# -- loading --------------------------------------------------------------


def load_index(directory: str, verify: bool = False) -> DesksIndex:
    """Load an index saved by :func:`save_index`.

    With ``verify=True`` every file is first checked against the save's
    checksum manifest, turning silent bit rot into a typed
    :class:`PersistenceError` before any bytes are parsed.  A swap a
    crash interrupted mid-rename is repaired first
    (:func:`repair_interrupted_swap`), so recovery works even when the
    crash landed between the swap's two renames.
    """
    repair_interrupted_swap(directory)
    if verify:
        _require_clean(scrub_saved(directory))
    meta = _load_json(os.path.join(directory, "meta.json"),
                      f"{directory} is not a saved DESKS index")
    version = meta.get("version")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"saved index has format version {version!r}; this library "
            f"reads version {FORMAT_VERSION}")
    for key in ("num_bands", "num_wedges", "num_pois", "anchors"):
        if key not in meta:
            raise PersistenceError(
                f"meta.json in {directory} lacks required key {key!r}")
    pois_path = os.path.join(directory, "pois.csv")
    if not os.path.exists(pois_path):
        raise MissingPersistenceFile(
            f"{directory} lacks pois.csv (half-written save?)")
    collection = load_csv(pois_path)
    if len(collection) != meta["num_pois"]:
        raise PersistenceError(
            f"meta.json promises {meta['num_pois']} POIs but pois.csv "
            f"holds {len(collection)}")

    # The constructor with no anchors to build: every field a built index
    # has, none copied by hand; the saved anchors are installed below.
    index = DesksIndex(collection, meta["num_bands"], meta["num_wedges"],
                       anchors=())
    locations = [p.location for p in collection]
    term_pairs = TermPairs(
        [collection.term_ids(i) for i in range(len(collection))])
    for quadrant in meta["anchors"]:
        path = os.path.join(directory, f"anchor{quadrant}.bin")
        try:
            blob = _read_file(path)
        except FileNotFoundError:
            raise MissingPersistenceFile(
                f"{directory} lacks anchor{quadrant}.bin promised by "
                "meta.json") from None
        frame = CanonicalFrame(Anchor(quadrant), collection.mbr)
        regions = AnchorRegions.from_blob(frame, locations, blob)
        store = MemoryKeywordStore(regions, term_pairs)
        index.anchors[quadrant] = AnchorIndex(frame, regions, store)
    return index


def load_sharded(directory: str,
                 verify: bool = False) -> Tuple[List[DesksIndex], dict]:
    """Load a deployment saved by :func:`save_sharded`.

    Returns ``(indexes, meta)`` — the per-shard indexes in shard order and
    the caller metadata stored at save time.  The manifest is validated
    by :func:`read_sharded_manifest` before any shard is parsed.
    """
    shard_dirs, meta = read_sharded_manifest(directory)
    indexes = [load_index(shard_dir, verify=verify)
               for shard_dir in shard_dirs]
    return indexes, meta


def read_sharded_manifest(directory: str) -> Tuple[List[str], dict]:
    """The manifest half of :func:`load_sharded`: ``(shard_dirs, meta)``.

    Checked against the directory (version, shard count, shard
    directories present, one global-id list per shard) without parsing
    any shard, so every reader of a saved deployment refuses a
    half-written one with a typed :class:`PersistenceError`.
    """
    repair_interrupted_swap(directory)
    manifest = _load_json(
        os.path.join(directory, "meta.json"),
        f"{directory} is not a saved sharded deployment")
    version = manifest.get("version")
    if version != CLUSTER_FORMAT_VERSION:
        raise PersistenceError(
            f"saved deployment has cluster format version {version!r}; "
            f"this library reads version {CLUSTER_FORMAT_VERSION}")
    num_shards = manifest.get("num_shards")
    if not isinstance(num_shards, int) or num_shards < 1:
        raise PersistenceError(
            f"manifest in {directory} has invalid num_shards "
            f"{num_shards!r}")
    shard_dirs = [os.path.join(directory, f"shard{position}")
                  for position in range(num_shards)]
    missing = [d for d in shard_dirs if not os.path.isdir(d)]
    if missing:
        raise MissingPersistenceFile(
            f"manifest promises {num_shards} shard(s) but "
            f"{os.path.basename(missing[0])} is absent from {directory} "
            "(half-written deployment?)")
    present = sorted(
        name for name in os.listdir(directory)
        if name.startswith("shard")
        and os.path.isdir(os.path.join(directory, name)))
    if len(present) != num_shards:
        raise PersistenceError(
            f"manifest promises {num_shards} shard(s) but {directory} "
            f"holds {len(present)}: {present}")
    meta = manifest.get("meta", {})
    id_lists = meta.get("shard_global_ids") if isinstance(meta, dict) \
        else None
    if id_lists is not None and len(id_lists) != num_shards:
        raise PersistenceError(
            f"manifest lists global ids for {len(id_lists)} shard(s) "
            f"but promises {num_shards}")
    return shard_dirs, meta


def _load_json(path: str, what: str) -> dict:
    try:
        blob = _read_file(path)
    except FileNotFoundError:
        raise MissingPersistenceFile(f"{what} (no meta.json)") from None
    try:
        parsed = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(
            f"{what} ({os.path.basename(path)} is not valid JSON: {exc})"
        ) from None
    if not isinstance(parsed, dict):
        raise PersistenceError(
            f"{what} ({os.path.basename(path)} holds {type(parsed).__name__},"
            " not an object)")
    return parsed


# -- scrubbing ------------------------------------------------------------


@dataclass
class SavedScrubReport:
    """Outcome of verifying a saved index/deployment against its
    checksum manifests."""

    files_checked: int = 0
    #: ``(path, reason)`` for every file that failed verification.
    corrupt: List[Tuple[str, str]] = field(default_factory=list)
    #: Directories that predate checksum manifests (unverifiable).
    unverified_dirs: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def merge(self, other: "SavedScrubReport") -> None:
        self.files_checked += other.files_checked
        self.corrupt.extend(other.corrupt)
        self.unverified_dirs.extend(other.unverified_dirs)

    def summary(self) -> str:
        state = ("clean" if self.clean
                 else f"{len(self.corrupt)} corrupt file(s)")
        extra = (f", {len(self.unverified_dirs)} dir(s) without manifests"
                 if self.unverified_dirs else "")
        return f"verified {self.files_checked} file(s): {state}{extra}"


def scrub_saved(directory: str) -> SavedScrubReport:
    """Verify every file of a saved index *or* sharded deployment.

    Never raises on corruption — the report lists what failed and why, so
    operators (and the CLI ``scrub`` command) can act on the whole picture
    instead of the first bad byte.
    """
    if not os.path.isdir(directory):
        raise MissingPersistenceFile(f"{directory} does not exist")
    manifest_path = os.path.join(directory, "meta.json")
    num_shards = None
    if os.path.exists(manifest_path):
        try:
            parsed = _load_json(manifest_path, directory)
        except PersistenceError:
            parsed = {}
        raw = parsed.get("num_shards")
        num_shards = raw if isinstance(raw, int) else None
    if num_shards is not None:
        report = SavedScrubReport()
        for position in range(num_shards):
            shard_dir = os.path.join(directory, f"shard{position}")
            if not os.path.isdir(shard_dir):
                report.corrupt.append(
                    (shard_dir, "shard directory promised by manifest "
                     "is absent"))
                continue
            report.merge(_scrub_index_dir(shard_dir))
        return report
    return _scrub_index_dir(directory)


def _scrub_index_dir(directory: str) -> SavedScrubReport:
    report = SavedScrubReport()
    manifest_path = os.path.join(directory, CHECKSUMS_FILE)
    if not os.path.exists(manifest_path):
        report.unverified_dirs.append(directory)
        return report
    try:
        manifest = _load_json(manifest_path, directory)
        files = manifest["files"]
    except (PersistenceError, KeyError):
        report.corrupt.append((manifest_path, "unreadable checksum "
                               "manifest"))
        return report
    for name, expected in sorted(files.items()):
        path = os.path.join(directory, name)
        report.files_checked += 1
        if not os.path.exists(path):
            report.corrupt.append((path, "missing"))
            continue
        blob = _read_file(path)
        if len(blob) != expected.get("bytes"):
            report.corrupt.append(
                (path, f"length {len(blob)} != recorded "
                 f"{expected.get('bytes')}"))
        elif crc32c(blob) != expected.get("crc32c"):
            report.corrupt.append((path, "checksum mismatch"))
    return report


def _require_clean(report: SavedScrubReport) -> None:
    if not report.clean:
        path, reason = report.corrupt[0]
        raise PersistenceError(
            f"saved files failed verification ({len(report.corrupt)} "
            f"problem(s); first: {path}: {reason})")

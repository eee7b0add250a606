"""Saving and loading a built DESKS index — crash-safely.

Building the index costs four global sorts over the whole collection;
loading a saved one costs only linear passes.  An index directory is
self-contained:

    <dir>/meta.json        version, N, M, anchors, POI count
    <dir>/pois.csv         the collection (library CSV format)
    <dir>/anchor<i>.bin    one region-skeleton blob per anchor
    <dir>/checksums.json   BLAKE2b-128 + length per file (scrub manifest)

Keyword stores are *not* serialized: their layout is derived from
``poi_order`` at load time (one `TermPairs` flattening per index, one
`TermLayout` sort per anchor), which measures faster than parsing an
equivalent amount of posting bytes in Python and keeps the format simple.

A *sharded deployment* (``repro.cluster``) is saved as one such index
directory per shard plus a cluster-level manifest:

    <dir>/meta.json        cluster version, shard count, caller metadata
    <dir>/checksums.json   covers meta.json and every shard's manifest
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
also survives power loss, not just process death.

**Integrity.**  Every directory a save writes carries ``checksums.json``
(version 2: BLAKE2b-128 and length per file, plus its own digest); a
missing manifest or another version is corruption.  Every reader checks
a directory against its manifest before it parses a byte of it —
:func:`load_index` and :func:`load_collection` their own directory,
:func:`read_sharded_manifest` (and so :func:`load_sharded`) the
deployment root — and refuses a mismatch with :class:`PersistenceError`
naming the file.  :func:`scrub_saved` is the offline form that reports
every damaged file instead of the first.  The decoders' own checks
(versions, counts, missing files) stay behind that gate, and raise the
same typed errors — :class:`PersistenceError` /
:class:`MissingPersistenceFile` — instead of bare ``KeyError``,
``FileNotFoundError`` or a decoder's ``ValueError``.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
from typing import Callable, List, Optional, Sequence, Tuple

# hashlib's blake2b *is* this builtin; importing hashlib would also load
# OpenSSL's libcrypto, ~3.7 MB of RSS in every process that loads a save.
from _blake2 import blake2b

import numpy as np

from ..datasets import POICollection, load_csv, save_csv
from ..geometry import Anchor, CanonicalFrame
from ..storage import ScrubReport, fsync_dir
from .index import AnchorIndex, DesksIndex
from .regions import AnchorRegions
from .stores import MemoryKeywordStore

FORMAT_VERSION = 1
CLUSTER_FORMAT_VERSION = 1
CHECKSUMS_FILE = "checksums.json"
#: Version of ``checksums.json`` this library writes and reads.
MANIFEST_VERSION = 2


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
        _write_manifest(staging, ["meta.json"] + [
            f"shard{position}/{CHECKSUMS_FILE}"
            for position in range(len(indexes))])

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
    _write_manifest(directory, names)


def _write_manifest(directory: str, names: Sequence[str]) -> None:
    """Write ``directory``'s ``checksums.json`` over its files ``names``."""
    files = {}
    for name in names:
        blob = _read_file(os.path.join(directory, name))
        files[name] = {"blake2b": _digest(blob), "bytes": len(blob)}
    _write_file(os.path.join(directory, CHECKSUMS_FILE),
                _manifest_bytes(files))


def _manifest_bytes(files: dict) -> bytes:
    """A manifest's exact bytes (:func:`sealed_json`): a flip anywhere in
    it, whitespace included, fails :func:`_read_manifest`'s comparison."""
    return sealed_json({"version": MANIFEST_VERSION, "files": files})


def sealed_json(payload: dict) -> bytes:
    """``payload`` as JSON bytes with its own BLAKE2b digest last.

    A reader re-seals what it parsed (minus ``digest``) and compares
    bytes, so one flipped byte anywhere in the file is caught."""
    sealed = dict(payload)
    sealed["digest"] = _digest(_json_bytes(sealed))
    return _json_bytes(sealed)


def _digest(blob: bytes) -> str:
    return blake2b(blob, digest_size=16).hexdigest()


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

    Every reader (through :func:`_verify`) and the next save call this,
    so an interrupted swap heals on first contact instead of wedging the
    directory.
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


def load_index(directory: str) -> DesksIndex:
    """Load an index saved by :func:`save_index`.

    Every file is checked against the save's checksum manifest before
    any of it is parsed (:func:`_verify`), so bit rot is a typed
    :class:`PersistenceError` naming the file, never a wrong answer.
    """
    meta, collection = _load_verified(directory)
    # The constructor with no anchors to build: every field a built index
    # has, none copied by hand; the saved anchors are installed below.
    index = DesksIndex(collection, meta["num_bands"], meta["num_wedges"],
                       anchors=())
    xs = np.asarray(collection.xs, dtype=np.float64)
    ys = np.asarray(collection.ys, dtype=np.float64)
    for quadrant in meta["anchors"]:
        path = os.path.join(directory, f"anchor{quadrant}.bin")
        try:
            blob = _read_file(path)
        except FileNotFoundError:
            raise MissingPersistenceFile(
                f"{directory} lacks anchor{quadrant}.bin promised by "
                "meta.json") from None
        frame = CanonicalFrame(Anchor(quadrant), collection.mbr)
        try:
            regions = AnchorRegions.from_blob(frame, xs, ys, blob)
        except (ValueError, IndexError) as exc:
            raise PersistenceError(
                f"{path} failed to decode: {exc}") from exc
        store = MemoryKeywordStore(regions, index.term_pairs)
        index.anchors[quadrant] = AnchorIndex(frame, regions, store)
    return index


def load_collection(directory: str) -> POICollection:
    """The POI collection of a saved index, verified as
    :func:`load_index` verifies it, without decoding any anchor.

    A remote router needs a shard's POIs for its routing statistics,
    never its index (:func:`repro.net.connect_router`)."""
    return _load_verified(directory)[1]


def _load_verified(directory: str) -> Tuple[dict, POICollection]:
    """``(meta, collection)`` of a saved index, after :func:`_verify`."""
    _verify(directory)
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
    try:
        collection = load_csv(pois_path)
    except (ValueError, csv.Error) as exc:
        raise PersistenceError(
            f"{pois_path} failed to decode: {exc}") from exc
    if len(collection) != meta["num_pois"]:
        raise PersistenceError(
            f"meta.json promises {meta['num_pois']} POIs but pois.csv "
            f"holds {len(collection)}")
    return meta, collection


def load_sharded(directory: str) -> Tuple[List[DesksIndex], dict]:
    """Load a deployment saved by :func:`save_sharded`.

    Returns ``(indexes, meta)`` — the per-shard indexes in shard order and
    the caller metadata stored at save time.  The root is verified and
    its manifest validated by :func:`read_sharded_manifest`, each shard
    by :func:`load_index`.
    """
    shard_dirs, meta = read_sharded_manifest(directory)
    return [load_index(shard_dir) for shard_dir in shard_dirs], meta


def read_sharded_manifest(directory: str) -> Tuple[List[str], dict]:
    """The manifest half of :func:`load_sharded`: ``(shard_dirs, meta)``.

    The root is verified (:func:`_verify`: its ``meta.json`` and every
    shard's ``checksums.json``), then the manifest is checked against the
    directory (version, shard count, shard directories present, one
    global-id list per shard) without parsing any shard, so every reader
    of a saved deployment refuses a damaged or half-written one with a
    typed :class:`PersistenceError`.
    """
    _verify(directory)
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


def scrub_saved(directory: str) -> ScrubReport:
    """Verify every file of a saved index *or* sharded deployment.

    Never raises on corruption — the report lists what failed and why, so
    operators (and the CLI ``scrub`` command) can act on the whole picture
    instead of the first bad byte.  A deployment's root manifest covers
    its ``meta.json`` and each shard's manifest, so a lost shard is named.
    """
    if not os.path.isdir(directory):
        raise MissingPersistenceFile(f"{directory} does not exist")
    report = _scrub_dir(directory)
    for name in sorted(os.listdir(directory)):
        shard_dir = os.path.join(directory, name)
        if name.startswith("shard") and os.path.isdir(shard_dir):
            report.merge(_scrub_dir(shard_dir))
    return report


def _scrub_dir(directory: str) -> ScrubReport:
    """Verify one directory's files against its ``checksums.json``."""
    report = ScrubReport()
    manifest_path = os.path.join(directory, CHECKSUMS_FILE)
    try:
        files = _read_manifest(manifest_path)
    except PersistenceError as exc:
        report.corrupt.append((manifest_path, str(exc)))
        return report
    for name, expected in files.items():
        path = os.path.join(directory, name)
        report.count("file")
        try:
            blob = _read_file(path)
        except FileNotFoundError:
            report.corrupt.append((path, "missing"))
            continue
        if len(blob) != expected["bytes"]:
            report.corrupt.append(
                (path, f"length {len(blob)} != recorded "
                 f"{expected['bytes']}"))
        elif _digest(blob) != expected["blake2b"]:
            report.corrupt.append((path, "digest mismatch"))
    return report


def _read_manifest(path: str) -> dict:
    """The ``files`` map of a manifest; :class:`PersistenceError` (the
    reason) when the manifest is missing or cannot be trusted."""
    try:
        blob = _read_file(path)
        manifest = json.loads(blob.decode("utf-8"))
        version, files = manifest["version"], manifest["files"]
    except FileNotFoundError:
        raise PersistenceError("missing checksum manifest") from None
    except (ValueError, KeyError, TypeError):
        raise PersistenceError("unreadable checksum manifest") from None
    if version != MANIFEST_VERSION:
        raise PersistenceError(
            f"checksum manifest version {version!r} is unsupported; this "
            f"library reads version {MANIFEST_VERSION}")
    if _manifest_bytes(files) != blob:
        raise PersistenceError("checksum manifest fails its own digest")
    return files


def _verify(directory: str) -> None:
    """The one gate before any reader parses a byte of ``directory``:
    finish an interrupted swap, then check every file against the
    directory's ``checksums.json``; :class:`PersistenceError` naming the
    first damaged file otherwise."""
    repair_interrupted_swap(directory)
    if not os.path.isdir(directory):
        raise MissingPersistenceFile(f"{directory} is not a directory")
    report = _scrub_dir(directory)
    if not report.clean:
        path, reason = report.corrupt[0]
        raise PersistenceError(
            f"saved files failed verification ({len(report.corrupt)} "
            f"problem(s); first: {path}: {reason})")

"""Every byte a save writes is covered: one flipped byte in any file of a
saved index, a saved deployment or a durable directory, or one deleted
checksum manifest, makes the scrub unclean and names that file — and
every reader of that directory refuses it with ``PersistenceError``
before it parses a byte of the damaged directory."""

import contextlib
import json
import os
import random
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardRouter
from repro.core import DesksIndex, load_index, load_sharded, save_index
from repro.core import persistence, scrub_saved
from repro.core.persistence import PersistenceError
from repro.datasets import POI, POICollection
from repro.durability import DurableMutableIndex, scrub_durable
from repro.net import ClusterLauncher, connect_router
from repro.net.server import load_shard


def make_collection(n, seed):
    rng = random.Random(seed)
    return POICollection([
        POI.make(i, rng.uniform(0, 50), rng.uniform(0, 50),
                 rng.sample(["cafe", "bank", "gas", "food"],
                            rng.randint(1, 2)))
        for i in range(n)])


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    """``kind -> (directory, scrub, files)``; ``files`` are relative."""
    root = tmp_path_factory.mktemp("layouts")
    index_dir = str(root / "index")
    save_index(DesksIndex(make_collection(40, 1), num_bands=2,
                          num_wedges=2), index_dir)
    deploy_dir = str(root / "deployment")
    with ShardRouter(make_collection(60, 2), num_shards=2,
                     num_bands=2, num_wedges=2) as router:
        router.save(deploy_dir)
    durable_dir = str(root / "durable")
    with DurableMutableIndex.create(make_collection(40, 4),
                                    durable_dir) as index:
        index.insert(1.0, 2.0, ["cafe"])
        index.delete(3)
    result = {}
    for kind, directory, scrub in (("index", index_dir, scrub_saved),
                                   ("deployment", deploy_dir, scrub_saved),
                                   ("durable", durable_dir, scrub_durable)):
        files = sorted(
            os.path.relpath(os.path.join(parent, name), directory)
            for parent, _, names in os.walk(directory) for name in names)
        assert scrub(directory).clean
        for reader in readers(kind, ""):
            reader(directory)  # every reader accepts the intact directory
        result[kind] = (directory, scrub, files)
    return result


ADDRESSES = {0: [("127.0.0.1", 9)], 1: [("127.0.0.1", 9)]}


def connect(directory):
    connect_router(directory, ADDRESSES).close()


def load_router(directory):
    ShardRouter.load(directory).close()


def readers(kind, damaged):
    """Every reader of the directory holding the ``damaged`` file (a path
    relative to a ``kind`` layout).  The launcher reads a deployment's
    root; each shard server it spawns reads its shard through
    ``load_shard``."""
    if kind == "index":
        return [load_index, load_shard]
    if kind == "durable":
        return [DurableMutableIndex.recover, load_shard]
    shard = os.path.dirname(damaged)
    if not shard or damaged == os.path.join(shard, "checksums.json"):
        return [load_sharded, load_router, connect, ClusterLauncher]
    return [load_sharded, load_router, connect,
            lambda directory: load_shard(os.path.join(directory, shard))]


@contextlib.contextmanager
def parses_nothing_in(directory):
    """Fail the test if a decoder opens a file of ``directory``."""
    def guard(decoder):
        def guarded(path, *args):
            assert os.path.dirname(path) != directory, \
                f"parsed unverified {path}"
            return decoder(path, *args)
        return guarded

    with mock.patch.object(persistence, "_load_json",
                           guard(persistence._load_json)), \
            mock.patch.object(persistence, "load_csv",
                              guard(persistence.load_csv)):
        yield


def damaged_copy(layouts, kind):
    directory, scrub, files = layouts[kind]
    workdir = tempfile.mkdtemp()
    copy = os.path.join(workdir, kind)
    shutil.copytree(directory, copy)
    return workdir, copy, scrub, files


def named(report, path):
    return any(isinstance(location, str)
               and os.path.normpath(location) == os.path.normpath(path)
               for location, _ in report.corrupt)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["index", "deployment", "durable"]),
       which=st.integers(min_value=0), where=st.integers(min_value=0),
       mask=st.integers(min_value=1, max_value=255))
def test_any_flipped_byte_is_named(layouts, kind, which, where, mask):
    workdir, copy, scrub, files = damaged_copy(layouts, kind)
    try:
        path = os.path.join(copy, files[which % len(files)])
        blob = bytearray(open(path, "rb").read())
        blob[where % len(blob)] ^= mask
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        report = scrub(copy)
        assert not report.clean
        assert named(report, path), (path, report.corrupt)
    finally:
        shutil.rmtree(workdir)


def refused_by_every_reader(kind, copy, damaged):
    path = os.path.join(copy, damaged)
    for reader in readers(kind, damaged):
        with parses_nothing_in(os.path.dirname(path)):
            with pytest.raises(PersistenceError) as refusal:
                reader(copy)
        assert os.path.basename(path) in str(refusal.value), \
            (reader, path, refusal.value)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["index", "deployment", "durable"]),
       which=st.integers(min_value=0), where=st.integers(min_value=0),
       mask=st.integers(min_value=1, max_value=255))
def test_every_reader_refuses_a_flipped_byte(layouts, kind, which, where,
                                             mask):
    workdir, copy, _, files = damaged_copy(layouts, kind)
    # A durable directory's WAL guards itself (per-record CRC, torn tail
    # vs corruption), so the readers here are the snapshot's and
    # durable.json's.
    files = [f for f in files if not f.startswith("wal" + os.sep)]
    try:
        damaged = files[which % len(files)]
        path = os.path.join(copy, damaged)
        blob = bytearray(open(path, "rb").read())
        blob[where % len(blob)] ^= mask
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        refused_by_every_reader(kind, copy, damaged)
    finally:
        shutil.rmtree(workdir)


@pytest.mark.parametrize("kind", ["index", "deployment", "durable"])
def test_every_deleted_manifest_is_corruption(layouts, kind):
    _, _, files = layouts[kind]
    manifests = [f for f in files
                 if os.path.basename(f) == "checksums.json"]
    assert manifests
    for manifest in manifests:
        workdir, copy, scrub, _ = damaged_copy(layouts, kind)
        try:
            path = os.path.join(copy, manifest)
            os.unlink(path)
            report = scrub(copy)
            assert not report.clean
            assert named(report, path), (path, report.corrupt)
            refused_by_every_reader(kind, copy, manifest)
        finally:
            shutil.rmtree(workdir)


def test_a_version_1_manifest_is_refused(layouts):
    workdir, copy, scrub, _ = damaged_copy(layouts, "index")
    try:
        with open(os.path.join(copy, "checksums.json"), "w",
                  encoding="utf-8") as handle:
            handle.write('{"version": 1, "files": {}}')
        assert not scrub(copy).clean
        with pytest.raises(PersistenceError, match="version 1"):
            load_index(copy)
    finally:
        shutil.rmtree(workdir)


def test_swapped_global_ids_are_refused(layouts):
    """Two POIs' global ids swapped in a deployment's root meta.json
    (same length; unverified, the router answers with the wrong ids)."""
    workdir, copy, _, _ = damaged_copy(layouts, "deployment")
    try:
        path = os.path.join(copy, "meta.json")
        text = open(path, encoding="utf-8").read()
        manifest = json.loads(text)
        assert json.dumps(manifest, indent=2) == text
        ids = manifest["meta"]["shard_global_ids"]
        j = next(j for j, other in enumerate(ids[1])
                 if len(str(other)) == len(str(ids[0][0])))
        ids[0][0], ids[1][j] = ids[1][j], ids[0][0]
        swapped = json.dumps(manifest, indent=2)
        assert len(swapped) == len(text) and swapped != text
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(swapped)
        refused_by_every_reader("deployment", copy, "meta.json")
    finally:
        shutil.rmtree(workdir)


def test_changed_snapshot_digit_is_refused(layouts):
    """One digit of one POI's x changed in a durable snapshot's pois.csv
    (unverified, recover() serves the moved POI)."""
    workdir, copy, _, _ = damaged_copy(layouts, "durable")
    try:
        path = os.path.join(copy, "snapshot", "pois.csv")
        lines = open(path, encoding="utf-8").read().split("\n")
        fields = lines[1].split(",")
        digit = fields[1][0]
        fields[1] = ("1" if digit != "1" else "2") + fields[1][1:]
        lines[1] = ",".join(fields)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        refused_by_every_reader("durable", copy,
                                os.path.join("snapshot", "pois.csv"))
    finally:
        shutil.rmtree(workdir)

"""Every byte a save writes is covered: one flipped byte in any file of a
saved index, a saved deployment or a durable directory, or one deleted
checksum manifest, makes the scrub unclean and names that file."""

import os
import random
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DesksIndex, save_index, save_sharded, scrub_saved
from repro.datasets import POI, POICollection
from repro.durability import DurableMutableIndex, scrub_durable


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
    save_sharded([DesksIndex(make_collection(30, seed), num_bands=2,
                             num_wedges=2) for seed in (2, 3)],
                 deploy_dir, meta={"shard_global_ids": [[0], [1]]})
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
        result[kind] = (directory, scrub, files)
    return result


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
        finally:
            shutil.rmtree(workdir)


def test_a_version_1_manifest_is_refused(layouts):
    from repro.core import load_index
    from repro.core.persistence import PersistenceError

    workdir, copy, scrub, _ = damaged_copy(layouts, "index")
    try:
        with open(os.path.join(copy, "checksums.json"), "w",
                  encoding="utf-8") as handle:
            handle.write('{"version": 1, "files": {}}')
        assert not scrub(copy).clean
        with pytest.raises(PersistenceError, match="version 1"):
            load_index(copy, verify=True)
    finally:
        shutil.rmtree(workdir)

"""Sharded deployment persistence: round trips, refusal, corruption."""

import json
import os
import random

import pytest

from repro.cluster import ShardRouter, build_layout, shard_collection
from repro.core import DesksIndex, load_sharded, save_sharded
from repro.core.persistence import CLUSTER_FORMAT_VERSION

from ..reseal import reseal
from .conftest import entries_of, make_collection, random_queries


def build_shard_indexes(collection, num_shards=4, partitioner="grid"):
    layout = build_layout(collection, num_shards, partitioner)
    return layout, [DesksIndex(shard_collection(collection, spec))
                    for spec in layout.shards]


class TestSaveLoadSharded:
    def test_round_trip_indexes_and_meta(self, tmp_path):
        coll = make_collection(n=120, seed=31)
        layout, indexes = build_shard_indexes(coll)
        path = str(tmp_path / "deploy")
        save_sharded(indexes, path, meta=layout.to_meta())
        assert sorted(os.listdir(path)) == \
            ["checksums.json", "meta.json", "shard0", "shard1", "shard2",
             "shard3"]

        loaded, meta = load_sharded(path)
        assert meta["partitioner"] == "grid"
        assert meta["num_pois"] == len(coll)
        assert len(loaded) == 4
        for orig, back in zip(indexes, loaded):
            assert len(back.collection) == len(orig.collection)
            assert back.num_bands == orig.num_bands
            assert [p.keywords for p in back.collection] == \
                [p.keywords for p in orig.collection]

    def test_empty_deployment_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            save_sharded([], str(tmp_path / "d"))

    def test_disk_based_shard_refused_before_writing(self, tmp_path):
        coll = make_collection(n=120, seed=32)
        _, indexes = build_shard_indexes(coll, num_shards=2)
        indexes[1] = DesksIndex(indexes[1].collection, disk_based=True)
        path = tmp_path / "deploy"
        with pytest.raises(ValueError, match="disk-based"):
            save_sharded(indexes, str(path))
        # Atomic refusal: nothing written, not even shard 0.
        assert not path.exists()

    def test_missing_manifest(self, tmp_path):
        path = tmp_path / "deploy"
        save_sharded([DesksIndex(make_collection(n=30, seed=1))], str(path))
        (path / "meta.json").unlink()
        reseal(path)
        with pytest.raises(FileNotFoundError, match="meta.json"):
            load_sharded(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "deploy"
        path.mkdir()
        (path / "meta.json").write_text(json.dumps(
            {"version": CLUSTER_FORMAT_VERSION + 1, "num_shards": 0,
             "meta": {}}))
        reseal(path)
        with pytest.raises(ValueError, match="format version"):
            load_sharded(str(path))


class TestRouterSaveLoad:
    def test_round_trip_answers_identically(self, tmp_path, collection,
                                            reference):
        path = str(tmp_path / "cluster")
        with ShardRouter(collection, num_shards=4,
                         partitioner="angular") as router:
            router.save(path)
        rng = random.Random(77)
        with ShardRouter.load(path, replication=2) as restored:
            assert restored.num_shards == 4
            assert restored.replication == 2
            assert restored.layout.partitioner == "angular"
            for query in random_queries(rng, 20):
                assert entries_of(restored.search(query)) == \
                    entries_of(reference.search(query))

    def test_load_rejects_shard_size_mismatch(self, tmp_path, collection):
        path = str(tmp_path / "cluster")
        with ShardRouter(collection, num_shards=2) as router:
            router.save(path)
        manifest = json.loads(
            (tmp_path / "cluster" / "meta.json").read_text())
        manifest["meta"]["shard_global_ids"][0] = [0, 1, 2]
        (tmp_path / "cluster" / "meta.json").write_text(
            json.dumps(manifest))
        reseal(tmp_path / "cluster")
        with pytest.raises(ValueError, match="manifest lists"):
            ShardRouter.load(path)

    def test_swapped_ids_between_shards_fail_verification(self, tmp_path,
                                                          collection):
        from repro.core import scrub_saved
        from repro.core.persistence import PersistenceError

        path = tmp_path / "cluster"
        with ShardRouter(collection, num_shards=2) as router:
            router.save(str(path))
        manifest = json.loads((path / "meta.json").read_text())
        ids = manifest["meta"]["shard_global_ids"]
        ids[0][0], ids[1][0] = ids[1][0], ids[0][0]
        (path / "meta.json").write_text(json.dumps(manifest, indent=2))
        report = scrub_saved(str(path))
        assert not report.clean
        assert [os.path.basename(p) for p, _ in report.corrupt] == \
            ["meta.json"]
        with pytest.raises(PersistenceError, match="meta.json"):
            load_sharded(str(path))

    def test_load_rejects_missing_layout(self, tmp_path, collection):
        path = str(tmp_path / "cluster")
        _, indexes = build_shard_indexes(collection, num_shards=2)
        save_sharded(indexes, path)  # no layout meta at all
        with pytest.raises(ValueError, match="layout metadata"):
            ShardRouter.load(path)

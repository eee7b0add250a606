"""ClusterLauncher: real OS processes, kept deliberately tiny.

One two-shard deployment, one replica each — enough to prove launch,
readiness, probing, connect_router equivalence, kill, and teardown with
real forked servers.  The full 240-query multi-partitioner sweep (and
the R=2 kill-a-replica failover run) lives in
``benchmarks/test_cluster_scatter_gather.py`` under the ``network``
marker.
"""

import os
import random
import shutil
import subprocess

import pytest

from repro.cluster import ShardRouter
from repro.core import PersistenceError, read_sharded_manifest
from repro.net import ClusterLauncher, LaunchError, connect_router

from ..reseal import reseal
from .conftest import entries_of, make_collection, random_queries


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    collection = make_collection(n=200, seed=47)
    path = str(tmp_path_factory.mktemp("net") / "deploy")
    with ShardRouter(collection, num_shards=2, partitioner="grid") as router:
        router.save(path)
    return path, collection


def test_manifest_unwraps_nested_meta(deployment):
    path, collection = deployment
    shard_dirs, meta = read_sharded_manifest(path)
    assert shard_dirs == [os.path.join(path, "shard0"),
                          os.path.join(path, "shard1")]
    assert len(meta["shard_global_ids"]) == 2
    assert meta["num_pois"] == len(collection)


def test_launch_probe_query_kill_stop(deployment, reference_for):
    path, collection = deployment
    reference = reference_for(collection)
    with ClusterLauncher(path, replication=1, num_workers=1) as launcher:
        addresses = launcher.start()
        assert sorted(addresses) == [0, 1]
        assert launcher.alive() == [(0, 0), (1, 0)]

        router = connect_router(path, addresses, num_workers=2)
        try:
            for query in random_queries(random.Random(41), 10):
                response = router.execute(query)
                assert not response.degraded
                assert entries_of(response.result) == \
                    entries_of(reference.search(query))
        finally:
            router.close()

        dead = launcher.kill(0, 0)
        assert not dead.alive
        assert launcher.alive() == [(1, 0)]
    assert launcher.alive() == []  # context exit stopped the rest


def test_missing_manifest_is_a_launch_error(tmp_path):
    os.makedirs(tmp_path / "empty" / "x", exist_ok=True)
    with open(tmp_path / "empty" / "meta.json", "w",
              encoding="utf-8") as handle:
        handle.write("{}")
    reseal(tmp_path / "empty")
    with pytest.raises(PersistenceError, match="format version"):
        ClusterLauncher(str(tmp_path / "empty"))


def damage_missing_shard(path):
    shutil.rmtree(os.path.join(path, "shard1"))


def damage_unparseable_manifest(path):
    with open(os.path.join(path, "meta.json"), "w",
              encoding="utf-8") as handle:
        handle.write('{"version": 1, "num_sh')


@pytest.mark.parametrize("damage", [damage_missing_shard,
                                    damage_unparseable_manifest],
                         ids=["missing-shard", "unparseable-manifest"])
def test_half_written_deployment_is_refused_before_any_spawn(
        deployment, tmp_path, monkeypatch, damage):
    """The launcher and connect_router read the manifest the way
    load_sharded does: a typed refusal, and no process started."""
    path = str(tmp_path / "deploy")
    shutil.copytree(deployment[0], path)
    damage(path)
    spawned = []

    def no_spawn(command, **kwargs):
        spawned.append(command)
        raise AssertionError("a shard process was spawned")

    monkeypatch.setattr(subprocess, "Popen", no_spawn)
    with pytest.raises(PersistenceError):
        ClusterLauncher(path).start()
    with pytest.raises(PersistenceError):
        connect_router(path, {0: [("127.0.0.1", 9)], 1: [("127.0.0.1", 9)]})
    assert spawned == []


def test_damaged_shard_is_refused_by_its_server(deployment, tmp_path):
    """The launcher verifies the root; each shard server verifies its
    own directory before it loads a byte of it, and never gets READY."""
    path = str(tmp_path / "deploy")
    shutil.copytree(deployment[0], path)
    anchor = os.path.join(path, "shard1", "anchor0.bin")
    blob = bytearray(open(anchor, "rb").read())
    blob[len(blob) // 2] ^= 0x01
    with open(anchor, "wb") as handle:
        handle.write(bytes(blob))
    with ClusterLauncher(path) as launcher:
        with pytest.raises(LaunchError, match="anchor0.bin: digest mismatch"):
            launcher.start()
        assert launcher.alive() == []


def test_kill_unknown_replica_is_a_key_error(deployment):
    path, _ = deployment
    launcher = ClusterLauncher(path)
    with pytest.raises(KeyError):
        launcher.kill(7, 7)


@pytest.fixture(scope="module")
def reference_for():
    from repro.core import DesksIndex, DesksSearcher

    def build(collection):
        return DesksSearcher(DesksIndex(collection, num_bands=4,
                                        num_wedges=5))

    return build

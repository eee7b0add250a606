"""Sharded scatter-gather acceptance (beyond the paper).

Acceptance checks over the PR-2 cluster layer on the VA preset:

* **Exactness** — on a randomized workload (200+ queries covering every
  partitioner and S in {1, 2, 4, 8}) the sharded deployment returns
  *exactly* the unsharded searcher's answers, including tie-breaking, and
  keeps doing so with R=2 while one replica position is hard-failed.
* **Exactness over the wire** (``-m network``) — the same contract with
  every shard behind a real server *process* and the router speaking the
  :mod:`repro.net` socket protocol: 240+ queries across every
  partitioner, and an R=2 run where one replica is SIGKILLed mid-stream
  (a real OS process dying, not an injected fault).
* **Direction-aware pruning** — under the spatial grid partitioner the
  shard-pruning rate grows monotonically as the query direction interval
  narrows from 2*pi to pi/8: the cluster-level payoff of the paper's
  direction pruning.  The sweep is written to ``results/BENCH_cluster.json``
  for tooling and ``results/cluster_pruning.txt`` for eyeballs.
"""

import math

import pytest

from repro.bench import generate_queries
from repro.cluster import PARTITIONERS, ShardRouter
from repro.core import DesksIndex, DesksSearcher
from repro.net import ClusterLauncher, connect_router
from repro.net.chaos import FaultLog, FaultPlan, FaultyEndpoint

from conftest import bench_bands, bench_wedges
from series import format_series_table, write_json_result, write_result

SHARD_SWEEP = (1, 2, 4, 8)
WIDTH_SWEEP = (2 * math.pi, math.pi, math.pi / 2, math.pi / 4, math.pi / 8)
QUERIES_PER_CELL = 20  # x 3 partitioners x 4 shard counts = 240 queries


def _entries(result):
    return [(e.poi_id, e.distance) for e in result.entries]


def _reference(collection):
    bands = bench_bands(len(collection))
    wedges = bench_wedges(len(collection), bands)
    return DesksSearcher(DesksIndex(collection, num_bands=bands,
                                    num_wedges=wedges))


def test_sharded_equals_unsharded_randomized(datasets):
    collection = datasets["VA"]
    reference = _reference(collection)
    total = mismatches = 0
    for partitioner in sorted(PARTITIONERS):
        for num_shards in SHARD_SWEEP:
            queries = generate_queries(
                collection, QUERIES_PER_CELL, 2,
                direction_width=math.pi / 2, k=10,
                seed=500 + num_shards)
            with ShardRouter(collection, num_shards=num_shards,
                             partitioner=partitioner) as router:
                for query in queries:
                    total += 1
                    got = router.execute(query)
                    assert not got.degraded
                    if _entries(got.result) != \
                            _entries(reference.search(query)):
                        mismatches += 1
    assert total >= 200
    assert mismatches == 0


def test_exact_under_single_replica_failure(datasets):
    """R=2, replica position 0 always fails: answers stay exact."""
    collection = datasets["VA"]
    reference = _reference(collection)
    down, log = FaultPlan("down", reset_probability=1.0), FaultLog()
    queries = generate_queries(collection, 50, 2,
                               direction_width=math.pi / 2, k=10, seed=77)
    with ShardRouter(collection, num_shards=4, partitioner="grid",
                     replication=2) as router:
        for shard in router.shards:
            replica = shard.transport.replicas[0]
            replica.endpoint = FaultyEndpoint(replica.endpoint, down, log)
        retries = 0
        for query in queries:
            got = router.execute(query)
            assert not got.degraded
            retries += got.replica_retries
            assert _entries(got.result) == _entries(reference.search(query))
    assert retries > 0  # the failures really happened and were absorbed


@pytest.mark.network
def test_socket_sharded_equals_unsharded_randomized(datasets,
                                                    tmp_path_factory):
    """240 queries, every partitioner, shards as real server processes."""
    collection = datasets["VA"]
    reference = _reference(collection)
    total = mismatches = 0
    for partitioner in sorted(PARTITIONERS):
        for num_shards in (2, 4):
            deploy = str(tmp_path_factory.mktemp(
                f"net-{partitioner}") / "deploy")
            with ShardRouter(collection, num_shards=num_shards,
                             partitioner=partitioner) as builder:
                builder.save(deploy)
            queries = generate_queries(
                collection, 40, 2, direction_width=math.pi / 2, k=10,
                seed=600 + num_shards)
            with ClusterLauncher(deploy, replication=1,
                                 num_workers=2) as launcher:
                addresses = launcher.start()
                router = connect_router(deploy, addresses, num_workers=4)
                try:
                    for query in queries:
                        total += 1
                        got = router.execute(query)
                        assert not got.degraded
                        if _entries(got.result) != \
                                _entries(reference.search(query)):
                            mismatches += 1
                finally:
                    router.close()
    assert total >= 240
    assert mismatches == 0


@pytest.mark.network
def test_socket_exact_while_killing_a_real_replica(datasets,
                                                   tmp_path_factory):
    """R=2 over processes; SIGKILL one replica mid-stream: still exact."""
    collection = datasets["VA"]
    reference = _reference(collection)
    deploy = str(tmp_path_factory.mktemp("net-kill") / "deploy")
    with ShardRouter(collection, num_shards=2,
                     partitioner="grid") as builder:
        builder.save(deploy)
    queries = generate_queries(collection, 60, 2,
                               direction_width=math.pi / 2, k=10, seed=78)
    with ClusterLauncher(deploy, replication=2,
                         num_workers=2) as launcher:
        launcher.start()
        router = connect_router(deploy, launcher.addresses(),
                                num_workers=4)
        try:
            for query in queries[:20]:
                got = router.execute(query)
                assert not got.degraded
                assert _entries(got.result) == \
                    _entries(reference.search(query))

            dead = launcher.kill(0, replica_id=0)  # a real SIGKILL
            assert not dead.alive
            assert (0, 0) not in launcher.alive()

            for query in queries[20:]:
                got = router.execute(query)
                assert not got.degraded, got.failed_shards
                assert _entries(got.result) == \
                    _entries(reference.search(query))

            # The failover really happened: the dead replica's client
            # recorded failures while the answers stayed exact.
            summary = router.shards[0].transport.health_summary()
            assert any(row["total_failures"] > 0 for row in summary), \
                summary
        finally:
            router.close()


def test_pruning_rate_grows_as_direction_narrows(datasets):
    collection = datasets["VA"]
    num_shards = 8
    sweep = []
    with ShardRouter(collection, num_shards=num_shards,
                     partitioner="grid") as router:
        for width in WIDTH_SWEEP:
            queries = generate_queries(collection, 40, 2,
                                       direction_width=width, k=10,
                                       seed=900)
            pruned = dispatched = 0
            for query in queries:
                response = router.execute(query)
                pruned += (response.shards_pruned
                           + response.shards_keyword_pruned
                           + response.shards_skipped)
                dispatched += response.shards_dispatched
            rate = pruned / (pruned + dispatched)
            sweep.append({
                "direction_width_rad": width,
                "queries": len(queries),
                "shards": num_shards,
                "pruned": pruned,
                "dispatched": dispatched,
                "pruning_rate": rate,
            })

    rates = [row["pruning_rate"] for row in sweep]
    table = format_series_table(
        "Cluster (VA, grid, S=8): direction width vs shard pruning",
        "width (rad)", [f"{w:.3f}" for w in WIDTH_SWEEP],
        {"pruning rate": rates,
         "avg dispatched": [row["dispatched"] / row["queries"]
                            for row in sweep]},
        unit="fraction of shards / shards per query")
    print()
    print(table)
    write_result("cluster_pruning", table)
    write_json_result("BENCH_cluster", {
        "dataset": "VA",
        "num_pois": len(collection),
        "partitioner": "grid",
        "num_shards": num_shards,
        "width_sweep": sweep,
    })

    # Acceptance: monotone non-decreasing pruning as the sector narrows,
    # with a strict gain over the full sweep.
    for narrower, wider in zip(rates[1:], rates[:-1]):
        assert narrower >= wider, (
            f"pruning rate fell from {wider:.3f} to {narrower:.3f} as the "
            "direction interval narrowed")
    assert rates[-1] > rates[0]

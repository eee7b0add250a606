"""ShardRouter: equivalence with the unsharded index, pruning accounting."""

import math
import random

import pytest

from repro.cluster import PARTITIONERS, ShardRouter, build_layout
from repro.core import DirectionalQuery

from .conftest import entries_of, random_queries


@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
@pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
def test_sharded_equals_unsharded(collection, reference, partitioner,
                                  num_shards):
    rng = random.Random(1000 + num_shards)
    queries = random_queries(rng, 25)
    with ShardRouter(collection, num_shards=num_shards,
                     partitioner=partitioner) as router:
        for query in queries:
            got = router.execute(query)
            assert not got.degraded
            assert entries_of(got.result) == \
                entries_of(reference.search(query))


def test_routing_accounting_is_consistent(collection):
    rng = random.Random(7)
    with ShardRouter(collection, num_shards=8, partitioner="grid") as router:
        for query in random_queries(rng, 40):
            r = router.execute(query)
            assert (r.shards_pruned + r.shards_keyword_pruned
                    + r.shards_dispatched + r.shards_skipped) \
                == r.shards_total == 8
            assert 0.0 <= r.pruning_rate <= 1.0
            assert r.latency_seconds >= 0.0
            assert r.failed_shards == []


def test_narrow_sector_prunes_more_shards(collection):
    """Direction-aware routing: narrower sectors dispatch fewer shards."""
    rng = random.Random(99)
    widths = [2 * math.pi, math.pi / 2, math.pi / 8]
    with ShardRouter(collection, num_shards=8, partitioner="grid") as router:
        dispatched = []
        for width in widths:
            total = 0
            for _ in range(30):
                x, y = rng.uniform(0, 100), rng.uniform(0, 100)
                alpha = rng.uniform(0, 2 * math.pi)
                q = DirectionalQuery.make(x, y, alpha, alpha + width,
                                          ["cafe"], 5)
                total += router.execute(q).shards_dispatched
            dispatched.append(total)
    assert dispatched[0] > dispatched[-1]


def test_zero_df_keyword_prunes_every_shard(collection, reference):
    with ShardRouter(collection, num_shards=4) as router:
        q = DirectionalQuery.make(50, 50, 0.0, 2 * math.pi,
                                  ["no-such-keyword"], 5)
        r = router.execute(q)
        assert r.shards_keyword_pruned == 4
        assert r.shards_dispatched == 0
        assert r.result.entries == []
        assert entries_of(r.result) == entries_of(reference.search(q))


def test_early_termination_skips_far_shards(collection, reference):
    """With max_fanout=1 the k-th bound from wave 1 can skip later shards."""
    rng = random.Random(5)
    skipped = 0
    with ShardRouter(collection, num_shards=8, partitioner="grid",
                     max_fanout=1) as router:
        for query in random_queries(rng, 60):
            r = router.execute(query)
            skipped += r.shards_skipped
            assert entries_of(r.result) == \
                entries_of(reference.search(query))
    assert skipped > 0


def test_plan_orders_by_mindist(collection):
    with ShardRouter(collection, num_shards=8, partitioner="grid") as router:
        q = DirectionalQuery.make(-10, -10, 0.0, 2 * math.pi, ["cafe"], 5)
        survivors, _, _ = router.plan(q)
        mindists = [mindist for mindist, _ in survivors]
        assert mindists == sorted(mindists)


def test_search_returns_bare_result(collection, reference):
    with ShardRouter(collection, num_shards=4) as router:
        q = DirectionalQuery.make(40, 60, 0.5, 2.0, ["food"], 3)
        assert entries_of(router.search(q)) == \
            entries_of(reference.search(q))


def test_metrics_snapshot_shape(collection):
    with ShardRouter(collection, num_shards=2, replication=2) as router:
        router.search(DirectionalQuery.make(10, 10, 0.0, 3.0, ["cafe"], 5))
        snap = router.metrics_snapshot()
        assert snap["cluster"]["counters"]["cluster_queries_total"] == 1
        assert set(snap["shards"]) == {"0", "1"}
        for info in snap["shards"].values():
            assert info["num_pois"] > 0
            assert len(info["replicas"]) == 2
        text = router.describe()
        assert "2 shards" in text and "replicas=2/2 healthy" in text


def test_router_rejects_bad_arguments(collection):
    with pytest.raises(ValueError):
        ShardRouter(collection, num_shards=4, num_workers=0)
    with pytest.raises(ValueError):
        ShardRouter(collection, num_shards=4, max_fanout=0)
    with pytest.raises(ValueError):
        ShardRouter(collection, num_shards=4, partitioner="voronoi")
    with pytest.raises(TypeError):
        ShardRouter(collection, layout=build_layout(collection, 4, "grid"))

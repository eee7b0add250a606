"""ShardRouter: equivalence with the unsharded index, pruning accounting."""

import math
import random
import threading
import time

import pytest

from repro.cluster import (
    PARTITIONERS,
    SHARD_CACHE_CAPACITY,
    ShardRouter,
    ShardUnavailableError,
    build_layout,
)
from repro.core import DesksIndex, DesksSearcher, DirectionalQuery, PruningMode
from repro.core.bruteforce import brute_force_search
from repro.trace import Tracer

from ..kernel.conftest import make_corpus
from .conftest import (
    entries_of,
    random_queries,
    rare_keyword_queries,
    with_rare_keyword,
)

FULL_CIRCLE = (0.0, 2 * math.pi)


def home_query(router, k):
    """A full-circle ``cafe`` query from the middle of shard 0's MBR."""
    mbr = router.shards[0].spec.mbr
    return DirectionalQuery.make((mbr.min_x + mbr.max_x) / 2,
                                 (mbr.min_y + mbr.max_y) / 2,
                                 *FULL_CIRCLE, ["cafe"], k)


def intercept(router, before=None, after=None):
    """Log ``(shard id, thread name)`` per shard call, in call order;
    ``before`` / ``after`` run around the real call with the shard id."""
    log = []
    for shard in router.shards:
        def execute(query, timeout=None, shard_id=shard.spec.shard_id,
                    inner=shard.transport.execute):
            log.append((shard_id, threading.current_thread().name))
            if before is not None:
                before(shard_id)
            answer = inner(query, timeout)
            if after is not None:
                after(shard_id)
            return answer
        shard.transport.execute = execute
    return log


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


def test_two_shards_on_rare_keywords_equal_the_region_search(collection):
    """Each shard picks its access path from its *own* document
    frequencies; the merged answer must not depend on the picks."""
    grown = with_rare_keyword(collection)
    reference = DesksSearcher(DesksIndex(grown, num_bands=4, num_wedges=5))
    queries = rare_keyword_queries()
    with ShardRouter(grown, num_shards=2, num_bands=4,
                     num_wedges=5) as router:
        posted = 0
        for query in queries:
            tracer = Tracer()
            with tracer.activate():
                got = router.execute(query)
            posted += len(tracer.find_all("desks.postings"))
            assert tracer.find_all("desks.prepare") == []
            assert not got.degraded
            assert entries_of(got.result) == \
                entries_of(reference.search_regions(query))
            assert entries_of(got.result) == \
                entries_of(brute_force_search(grown, query))
        assert posted >= len(queries)


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
    """Direction-aware routing: the sector test alone (``shards_pruned``,
    decided before any shard is asked) rules out more shards as the
    interval narrows."""
    rng = random.Random(99)
    widths = [2 * math.pi, math.pi / 2, math.pi / 8]
    with ShardRouter(collection, num_shards=8, partitioner="grid") as router:
        pruned = []
        for width in widths:
            total = 0
            for _ in range(30):
                x, y = rng.uniform(0, 100), rng.uniform(0, 100)
                alpha = rng.uniform(0, 2 * math.pi)
                q = DirectionalQuery.make(x, y, alpha, alpha + width,
                                          ["cafe"], 5)
                total += router.execute(q).shards_pruned
            pruned.append(total)
    assert pruned[0] < pruned[1] < pruned[2]


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


def test_home_shard_bound_skips_the_far_shard(collection, reference):
    """Bound-first: the shard holding ``q`` answers alone, and its k-th
    distance rules the other one out before it is ever asked."""
    with ShardRouter(collection, num_shards=2, partitioner="grid") as router:
        query = home_query(router, k=5)
        r = router.execute(query)
    assert (r.shards_dispatched, r.shards_skipped) == (1, 1)
    assert entries_of(r.result) == entries_of(reference.search(query))


def fixed_wave_dispatches(router, query):
    """Shards asked by the fixed-wave rule bound-first replaced: every
    ``max_fanout`` survivors go out together, the first wave unbounded."""
    survivors, _, _ = router.plan(query)
    merged, bound, dispatched = [], float("inf"), 0
    for start in range(0, len(survivors), router.max_fanout):
        wave = [shard for mindist, shard
                in survivors[start:start + router.max_fanout]
                if mindist <= bound]
        dispatched += len(wave)
        for shard in wave:
            merged.extend(shard.globalize(
                shard.transport.execute(query)[0].result))
        merged.sort()
        del merged[query.k:]
        if len(merged) == query.k:
            bound = merged[-1].distance
    return dispatched


@pytest.mark.parametrize("max_fanout", [1, 2, 4])
@pytest.mark.parametrize("num_shards", [2, 4, 8])
def test_dispatch_is_a_subset_of_the_fixed_wave_rule(collection, num_shards,
                                                     max_fanout):
    with ShardRouter(collection, num_shards=num_shards, partitioner="grid",
                     max_fanout=max_fanout) as router:
        for query in make_corpus():
            r = router.execute(query)
            assert r.shards_dispatched <= fixed_wave_dispatches(router, query)
            assert entries_of(r.result) == \
                entries_of(brute_force_search(collection, query))


def test_caller_runs_one_call_of_every_wave(collection):
    """A one-shard wave never leaves the calling thread; a wider wave
    hands all but one call to the ``desks-shard`` pool."""
    with ShardRouter(collection, num_shards=4, partitioner="grid") as router:
        log = intercept(router)
        # k exceeds every match: no bound ever exists, nothing is skipped.
        router.execute(home_query(router, k=len(collection)))
    caller = threading.current_thread().name
    assert log[0] == (0, caller)
    assert sorted(name == caller for _, name in log[1:]) == \
        [False, False, True]
    assert all(name == caller or name.startswith("desks-shard")
               for _, name in log)


def test_hash_first_wave_is_still_max_fanout_wide(collection):
    """Every hash shard's MBR is the whole extent: all MINDISTs tie at 0,
    so the leading tie group is cut by the wave cap alone."""
    tracer = Tracer()
    with ShardRouter(collection, num_shards=8, partitioner="hash",
                     max_fanout=4) as router:
        with tracer.activate():
            router.execute(DirectionalQuery.make(50, 50, *FULL_CIRCLE,
                                                 ["cafe"], 5))
    assert [wave.attrs["shards_dispatched"]
            for wave in tracer.find_all("router.wave")] == [4, 4]


def test_lost_home_shard_leaves_the_rest_asked_unbounded(collection):
    def lose_shard_zero(shard_id):
        if shard_id == 0:
            raise ShardUnavailableError(0, 1, None)

    with ShardRouter(collection, num_shards=2, partitioner="grid") as router:
        query = home_query(router, k=5)
        far = router.shards[1]
        expected = far.globalize(far.transport.execute(query)[0].result)
        log = intercept(router, before=lose_shard_zero)
        r = router.execute(query)
    assert [shard_id for shard_id, _ in log] == [0, 1]
    assert (r.shards_dispatched, r.shards_skipped) == (2, 0)
    assert r.result.partial and r.unavailable_shards == (0,)
    assert r.result.entries == expected


@pytest.mark.parametrize("max_fanout", [1, 4])
def test_deadline_spent_by_the_first_wave_abandons_the_rest(collection,
                                                            max_fanout):
    with ShardRouter(collection, num_shards=4, partitioner="grid",
                     max_fanout=max_fanout) as router:
        log = intercept(router, after=lambda shard_id: time.sleep(0.1))
        r = router.execute(home_query(router, k=len(collection)),
                           timeout=0.05)
    assert [shard_id for shard_id, _ in log] == [0]
    assert r.deadline_expired and r.result.partial
    assert (r.shards_dispatched, r.shards_skipped) == (1, 3)


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
        # Every replica engine runs what a shard server runs.
        for shard in router.shards:
            for replica in shard.transport.replicas:
                assert replica.engine.cache.capacity == \
                    SHARD_CACHE_CAPACITY == 128
                assert replica.engine.mode is PruningMode.RD


def test_router_rejects_bad_arguments(collection, tmp_path):
    with pytest.raises(ValueError):
        ShardRouter(collection, num_shards=4, num_workers=0)
    with pytest.raises(ValueError):
        ShardRouter(collection, num_shards=4, max_fanout=0)
    with pytest.raises(ValueError):
        ShardRouter(collection, num_shards=4, partitioner="voronoi")
    with pytest.raises(TypeError):
        ShardRouter(collection, layout=build_layout(collection, 4, "grid"))
    # Options no caller set are gone, not ignored.
    for option, value in [("kernel", "columnar"), ("mode", PruningMode.R),
                          ("cache_capacity", 16), ("health_threshold", 1),
                          ("_prebuilt", [])]:
        with pytest.raises(TypeError):
            ShardRouter(collection, num_shards=2, **{option: value})
    with ShardRouter(collection, num_shards=2) as router:
        router.save(str(tmp_path))
        with pytest.raises(TypeError):
            ShardRouter.from_transports(
                [(shard.spec, shard.collection, shard.transport)
                 for shard in router.shards], mode=PruningMode.R)
    # The shape of a saved deployment is the directory's, not the caller's.
    with pytest.raises(TypeError):
        ShardRouter.load(str(tmp_path), num_bands=8)

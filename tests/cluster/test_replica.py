"""Replication, failover, health tracking, and fault injection."""

import math
import random

import pytest

from repro.cluster import ReplicaSet, ShardRouter, ShardUnavailableError
from repro.core import DesksIndex, DirectionalQuery
from repro.net.chaos import FaultLog, FaultPlan, FaultyEndpoint, InjectedFault

from .conftest import entries_of, make_collection, random_queries

#: Every call fails.
DOWN = FaultPlan("down", reset_probability=1.0)


def make_query(k=5):
    return DirectionalQuery.make(50, 50, 0.0, 2 * math.pi, ["cafe"], k)


def inject(replicas, plan=DOWN):
    """Put every replica in ``replicas`` behind ``plan``; one shared log."""
    log = FaultLog()
    for replica in replicas:
        replica.endpoint = FaultyEndpoint(replica.endpoint, plan, log)
    return log


def test_failover_hides_single_replica_failure():
    coll = make_collection(n=200, seed=3)
    index = DesksIndex(coll)
    rs = ReplicaSet(0, index, replication=2)
    inject(rs.replicas[:1])
    try:
        response, retries = rs.execute(make_query())
        assert response.result.entries  # replica 1 answered
        assert retries in (0, 1)  # 0 when rotation tried replica 1 first
        total = sum(r.total_failures for r in rs.replicas)
        assert rs.replicas[0].total_failures == total  # only replica 0 fails
    finally:
        rs.close()


def test_all_replicas_down_raises_shard_unavailable():
    coll = make_collection(n=100, seed=4)
    rs = ReplicaSet(3, DesksIndex(coll), replication=2)
    inject(rs.replicas)
    try:
        with pytest.raises(ShardUnavailableError) as err:
            rs.execute(make_query())
        assert err.value.shard_id == 3
        assert err.value.attempts == 2
        assert isinstance(err.value.last_error, InjectedFault)
    finally:
        rs.close()


def test_health_threshold_and_recovery():
    coll = make_collection(n=100, seed=5)
    rs = ReplicaSet(0, DesksIndex(coll), replication=2, health_threshold=2)
    inject(rs.replicas[:1])
    try:
        for _ in range(4):
            rs.execute(make_query())
        bad = rs.replicas[0]
        assert not bad.healthy
        assert bad.consecutive_failures >= 2
        # Unhealthy replicas go last: no more retries once demoted.
        _, retries = rs.execute(make_query())
        assert retries == 0
        # Recovery probe: heal the fault, unhealthy replica is retried
        # eventually and marked healthy on first success.
        bad.endpoint = bad.endpoint.inner
        for _ in range(4):
            rs.execute(make_query())
        # Probe only happens if the healthy replica fails first, so force it:
        bad.mark_success()
        assert bad.healthy and bad.consecutive_failures == 0
        summary = rs.health_summary()
        assert summary[0]["total_failures"] >= 2
        assert summary[1]["total_failures"] == 0
    finally:
        rs.close()


def test_replica_set_validation():
    coll = make_collection(n=50, seed=6)
    index = DesksIndex(coll)
    with pytest.raises(ValueError):
        ReplicaSet(0, index, replication=0)
    with pytest.raises(ValueError):
        ReplicaSet(0, index, replication=1, health_threshold=0)
    for option in ("kernel", "mode", "cache_capacity"):
        with pytest.raises(TypeError):
            ReplicaSet(0, index, replication=1, **{option: None})


def test_router_exact_under_single_replica_failure(collection, reference):
    """Acceptance: R=2 with one dead replica per shard stays exact."""
    rng = random.Random(11)
    with ShardRouter(collection, num_shards=4, partitioner="grid",
                     replication=2) as router:
        inject(shard.transport.replicas[0] for shard in router.shards)
        retries = 0
        for query in random_queries(rng, 30):
            r = router.execute(query)
            assert not r.degraded
            retries += r.replica_retries
            assert entries_of(r.result) == \
                entries_of(reference.search(query))
        assert retries > 0  # failover actually happened
        snap = router.metrics_snapshot()
        assert snap["cluster"]["counters"][
            "cluster_replica_failures_total"] > 0


def test_router_degrades_when_whole_shard_dies(collection):
    with ShardRouter(collection, num_shards=4, partitioner="grid",
                     replication=2) as router:
        inject(router.shards[0].transport.replicas)
        q = make_query(k=400)  # forces dispatch to every shard
        r = router.execute(q)
        assert r.degraded
        assert r.failed_shards == [0]
        assert r.result.partial
        # The surviving shards still answer.
        lost = set(router.shards[0].spec.global_ids)
        got = {e.poi_id for e in r.result.entries}
        assert got and not (got & lost)
        snap = router.metrics_snapshot()
        assert snap["cluster"]["counters"][
            "cluster_degraded_answers_total"] == 1
        assert snap["shards"]["0"]["health"][0]["total_failures"] > 0


def test_injected_latency_slows_but_answers():
    coll = make_collection(n=100, seed=8)
    with ShardRouter(coll, num_shards=2) as router:
        inject([replica for shard in router.shards
                for replica in shard.transport.replicas],
               FaultPlan("slow", latency_seconds=0.02))
        r = router.execute(make_query())
        assert not r.degraded
        assert r.latency_seconds >= 0.02


def test_failover_stops_at_the_deadline():
    """Every replica is slow *and* failing: the first attempt eats the
    whole budget, so failover must not walk the other two."""
    coll = make_collection(n=100, seed=9)
    rs = ReplicaSet(0, DesksIndex(coll), replication=3)
    log = inject(rs.replicas, FaultPlan("slow-down", reset_probability=1.0,
                                        latency_seconds=0.2))
    try:
        with pytest.raises(ShardUnavailableError) as err:
            rs.execute(make_query(), timeout=0.1)
        assert err.value.attempts == 1
        assert log.to_dict()["resets_injected"] == 1
    finally:
        rs.close()


def test_surviving_replica_gets_the_remaining_budget():
    coll = make_collection(n=100, seed=10)
    rs = ReplicaSet(0, DesksIndex(coll), replication=2)
    inject(rs.replicas[:1], FaultPlan("slow-down", reset_probability=1.0,
                                      latency_seconds=0.05))
    try:
        survivor = rs.replicas[1].engine
        real_execute, budgets = survivor.execute, []

        def recording_execute(query, timeout=None):
            budgets.append(timeout)
            return real_execute(query, timeout)

        survivor.execute = recording_execute
        rs._rotation = 0               # attempt the failing replica first
        response, retries = rs.execute(make_query(), timeout=5.0)
        assert retries == 1 and response.result.entries
        # What replica 0 burned is gone from what replica 1 is offered.
        assert len(budgets) == 1 and 0.0 < budgets[0] <= 5.0 - 0.05
    finally:
        rs.close()

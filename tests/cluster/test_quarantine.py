"""Corruption quarantine and deadline propagation in the cluster layer."""

import math

import pytest

from repro.cluster import ReplicaSet, ShardRouter, ShardUnavailableError
from repro.core import DesksIndex, DirectionalQuery
from repro.storage import PageCorruptionError

from .conftest import make_collection


def make_query(k=5):
    return DirectionalQuery.make(50, 50, 0.0, 2 * math.pi, ["cafe"], k)


def poison_engine(replica, calls=None):
    """Make a replica's engine raise PageCorruptionError on execute."""
    def corrupt_execute(query, timeout=None):
        if calls is not None:
            calls.append(replica.replica_id)
        raise PageCorruptionError(3, "torn write (header epoch 9, "
                                  "trailing stamp 8)", "anchor1.pages")

    replica.endpoint.engine.execute = corrupt_execute


class TestReplicaQuarantine:
    def test_corruption_fails_over_and_quarantines(self):
        coll = make_collection(n=200, seed=31)
        rs = ReplicaSet(0, DesksIndex(coll), replication=2)
        try:
            poison_engine(rs.replicas[0])
            rs._rotation = 0           # attempt the poisoned replica first
            response, _ = rs.execute(make_query())
            assert response.result.entries     # replica 1 answered
            assert rs.quarantined_replicas() == [0]
            assert not rs.replicas[0].healthy
            assert "torn write" in rs.replicas[0].quarantine_cause
        finally:
            rs.close()

    def test_quarantine_is_sticky_unlike_unhealthy(self):
        coll = make_collection(n=200, seed=32)
        rs = ReplicaSet(0, DesksIndex(coll), replication=2)
        try:
            calls = []
            poison_engine(rs.replicas[0], calls)
            rs._rotation = 0           # attempt the poisoned replica first
            rs.execute(make_query())
            assert calls == [0]
            # Unhealthy replicas get recovery probes; quarantined ones
            # must never be attempted again until released.
            for _ in range(6):
                rs.execute(make_query())
            assert calls == [0]
        finally:
            rs.close()

    def test_release_restores_traffic(self):
        coll = make_collection(n=200, seed=33)
        rs = ReplicaSet(0, DesksIndex(coll), replication=2)
        try:
            rs.replicas[0].quarantine("scrub found damage")
            assert rs.quarantined_replicas() == [0]
            rs.replicas[0].release()
            assert rs.quarantined_replicas() == []
            assert rs.replicas[0].healthy
            assert rs.replicas[0].quarantine_cause is None
        finally:
            rs.close()

    def test_degraded_response_also_quarantines(self):
        coll = make_collection(n=200, seed=34)
        rs = ReplicaSet(0, DesksIndex(coll), replication=2)
        try:
            import dataclasses

            real_execute = rs.replicas[0].endpoint.engine.execute

            def degraded_execute(query, timeout=None):
                return dataclasses.replace(
                    real_execute(query, timeout), degraded=True,
                    failure_cause="page 7: checksum mismatch")

            rs.replicas[0].endpoint.engine.execute = degraded_execute
            rs._rotation = 0           # attempt the poisoned replica first
            response, _ = rs.execute(make_query())
            assert not response.degraded       # failover found clean pages
            assert rs.quarantined_replicas() == [0]
            assert "checksum" in rs.replicas[0].quarantine_cause
        finally:
            rs.close()

    def test_all_replicas_quarantined_is_unavailable(self):
        coll = make_collection(n=100, seed=35)
        rs = ReplicaSet(2, DesksIndex(coll), replication=2)
        try:
            for replica in rs.replicas:
                poison_engine(replica)
            with pytest.raises(ShardUnavailableError) as err:
                rs.execute(make_query())
            assert isinstance(err.value.last_error, PageCorruptionError)
            assert rs.quarantined_replicas() == [0, 1]
        finally:
            rs.close()

    def test_quarantine_metric_counts(self):
        coll = make_collection(n=100, seed=36)
        from repro.service import MetricsRegistry
        metrics = MetricsRegistry()
        rs = ReplicaSet(0, DesksIndex(coll), replication=2, metrics=metrics)
        try:
            poison_engine(rs.replicas[0])
            rs.execute(make_query())
            assert metrics.counter(
                "cluster_replicas_quarantined_total").value == 1
        finally:
            rs.close()


class TestRouterQuarantine:
    def test_quarantined_shards_reported(self, collection):
        with ShardRouter(collection, num_shards=4,
                         replication=2) as router:
            shard = router.shards[1]
            poison_engine(shard.transport.replicas[0])
            response = router.execute(make_query(k=10))
            assert response.result.entries
            assert response.quarantined_shards == [shard.spec.shard_id]
            # Intact shards report nothing.
            again = router.execute(make_query(k=10))
            assert again.quarantined_shards == [shard.spec.shard_id]


class TestDeadlinePropagation:
    def test_expired_deadline_skips_remaining_waves(self, collection):
        with ShardRouter(collection, num_shards=4) as router:
            response = router.execute(make_query(k=10), timeout=0.0)
            assert response.deadline_expired
            assert response.result.partial
            assert response.shards_dispatched == 0
            planned = len(router.plan(make_query(k=10))[0])
            assert response.shards_skipped >= planned

    def test_generous_deadline_completes(self, collection):
        with ShardRouter(collection, num_shards=4) as router:
            response = router.execute(make_query(k=10), timeout=60.0)
            assert not response.deadline_expired
            assert not response.result.partial
            assert response.result.entries

    def test_unbounded_deadline_unchanged(self, collection):
        with ShardRouter(collection, num_shards=4) as router:
            response = router.execute(make_query(k=10))
            assert not response.deadline_expired
            assert response.result.entries

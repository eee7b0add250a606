"""One instance of every object of the concurrent stack that holds a lock."""

import pytest

from benchmarks.chaos_net import (
    ChaosProxy,
    FaultLog,
    FaultPlan,
    FaultyEndpoint,
)
from repro.cluster import ReplicaSet
from repro.core import MutableDesksIndex
from repro.net import (
    CircuitBreaker,
    RemoteShardClient,
    RetryBudget,
    ShardServer,
)
from repro.service import Counter, Gauge, Histogram, MetricsRegistry, \
    QueryEngine
from repro.storage import BufferPool, InMemoryPageStore

from ..service.conftest import make_collection


@pytest.fixture()
def lock_sites():
    """``(site, object, lock attribute, reentrant)`` for every lock the
    concurrent modules and the fault injectors create, as ``module:Class``;
    objects that own sockets or threads are closed afterwards."""
    index = MutableDesksIndex(make_collection(n=60, seed=21),
                              num_bands=4, num_wedges=6)
    engine = QueryEngine(index, num_workers=1, cache_capacity=4)
    replica_set = ReplicaSet(0, index, 1)
    server = ShardServer(index, num_workers=1)
    proxy = ChaosProxy(server.address)
    sites = [
        ("storage/buffer.py:BufferPool",
         BufferPool(InMemoryPageStore()), "_lock", True),
        ("core/dynamic.py:MutableDesksIndex", index, "_lock", True),
        ("core/dynamic.py:_Snapshot", index._snapshot, "_lock", False),
        ("service/engine.py:QueryEngine", engine, "_lifecycle_lock", False),
        ("core/cache.py:AnswerCache", engine.cache, "_lock", False),
        ("service/metrics.py:Counter", Counter("c"), "_lock", False),
        ("service/metrics.py:Gauge", Gauge("g"), "_lock", False),
        ("service/metrics.py:Histogram", Histogram("h"), "_lock", False),
        ("service/metrics.py:MetricsRegistry", MetricsRegistry(), "_lock",
         False),
        ("cluster/replica.py:Replica", replica_set.replicas[0], "_lock",
         False),
        ("cluster/replica.py:FailoverSet", replica_set, "_lock", False),
        ("net/server.py:FrameServer", server, "_lock", False),
        ("net/client.py:RemoteShardClient",
         RemoteShardClient(server.address), "_lock", False),
        ("net/resilience.py:CircuitBreaker", CircuitBreaker(), "_lock",
         False),
        ("net/resilience.py:RetryBudget", RetryBudget(), "_lock", False),
        ("benchmarks/chaos_net.py:FaultLog", FaultLog(), "_lock", False),
        ("benchmarks/chaos_net.py:FaultyEndpoint",
         FaultyEndpoint(replica_set.replicas[0].endpoint,
                        FaultPlan("transparent"), FaultLog()), "_lock", False),
        ("benchmarks/chaos_net.py:ChaosProxy", proxy, "_lock", False),
    ]
    yield sites
    proxy.stop()
    server.stop()
    replica_set.close()
    engine.close()

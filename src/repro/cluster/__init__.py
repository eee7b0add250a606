"""Sharded scatter-gather serving: horizontal partitioning for DESKS.

PR 1's :class:`~repro.service.QueryEngine` serves one index on one node;
this package partitions a collection across ``S`` independent DESKS shards
and answers queries by scatter-gather, exploiting the paper's geometry at
the cluster level: a query's sector ``(q, [alpha, beta])`` proves entire
shards irrelevant before dispatch, the same way Lemmas 2-4 prune
sub-regions inside one index.

* :mod:`~repro.cluster.partition` — pluggable partitioners (``grid``,
  ``angular``, ``hash``) producing shard MBRs and keyword document
  frequencies;
* :mod:`~repro.cluster.router` — :class:`ShardRouter`: sector pruning,
  MINDIST + cardinality ordering, bound-first wave dispatch (the home
  shard first, on the calling thread; later waves share a pool), merge
  with early termination, and the routing counters on the router's
  :class:`~repro.service.MetricsRegistry`;
* :mod:`~repro.cluster.replica` — R-way replication: the one replica
  health model and the one failover loop (:class:`FailoverSet`);
* :mod:`~repro.cluster.transport` — the :class:`ReplicaEndpoint`
  protocol (answer one query on one replica) that lets
  :class:`~repro.net.RemoteReplicaSet` put server processes under the
  same failover loop as in-process engines.

See ``docs/CLUSTER.md`` for the architecture, the pruning rule, and the
replication/failover semantics.
"""

from .partition import (
    PARTITIONERS,
    ClusterLayout,
    ShardSpec,
    build_layout,
    shard_collection,
)
from .replica import (
    HEALTH_THRESHOLD,
    SHARD_CACHE_CAPACITY,
    EngineEndpoint,
    FailoverSet,
    Replica,
    ReplicaSet,
    ShardUnavailableError,
)
from .router import (
    SHARD_BUCKETS,
    ClusterResponse,
    Shard,
    ShardRouter,
    specs_from_manifest,
)
from .transport import ReplicaEndpoint, RequestRejected

__all__ = [
    "HEALTH_THRESHOLD",
    "PARTITIONERS",
    "SHARD_BUCKETS",
    "SHARD_CACHE_CAPACITY",
    "ClusterLayout",
    "ClusterResponse",
    "EngineEndpoint",
    "FailoverSet",
    "Replica",
    "ReplicaSet",
    "ReplicaEndpoint",
    "RequestRejected",
    "Shard",
    "ShardRouter",
    "ShardSpec",
    "ShardUnavailableError",
    "build_layout",
    "shard_collection",
    "specs_from_manifest",
]

"""Out-of-process shard serving over a length-prefixed binary protocol.

Everything below :mod:`repro.cluster` runs in one Python process behind
one GIL; this package is the network boundary that lets each shard (or
replica) own an OS process — the substrate the ROADMAP's scaling work
ships traffic through:

* :mod:`~repro.net.protocol` — the versioned wire format:
  ``[magic][version][type][len][crc32]`` frames, hand-rolled struct
  payloads (bit-exact floats, no pickle), typed errors, and the
  remaining-deadline budget that carries per-request deadlines across
  hosts;
* :mod:`~repro.net.server` — the one frame server: a blocking accept
  loop, a thread per connection, and the only request dispatcher
  (deadline short-circuit, admission control that sheds searches with
  typed ``OVERLOAD`` instead of queueing, parse-before-admit, the
  typed-error mapping).  :class:`ShardServer` is that server on one
  shard's index behind an engine worker pool; :class:`ClusterFrontend`
  is the same server on a :class:`~repro.cluster.ShardRouter` — the
  front door of a deployment;
* :mod:`~repro.net.client` — :class:`RemoteShardClient` (persistent
  connections, reconnect/backoff, deadline-derived timeouts),
  :class:`SocketEndpoint` (that client as a
  :class:`~repro.cluster.ReplicaEndpoint`) and :class:`RemoteReplicaSet`,
  the :class:`~repro.cluster.FailoverSet` over server processes — the
  cluster's failover loop plus hedging and recovery probes;
* :mod:`~repro.net.launcher` — :class:`ClusterLauncher` (spawn/probe/
  kill/stop server processes) and :func:`connect_router`;
* :mod:`~repro.net.resilience` — the client-side resilience layer:
  per-replica circuit breakers, the process-wide retry token budget,
  and hedged-request policy that :class:`RemoteReplicaSet` executes.

The seeded fault-injecting TCP proxy the acceptance suite drives all of
the above with is ``benchmarks/chaos_net.py``, outside the package.

This package is the only place in the tree allowed to touch a raw
``socket`` (lint rule DAL010) — every other layer stays deterministic,
testable, and transport-agnostic.  Load comes from
the closed-loop generator in ``benchmarks/closed_loop.py``, which drives
``client.search`` like any target and counts the error types its caller
names as shed.

See ``docs/NETWORK.md`` for the wire format, the life of a remote
query, and the failure-mode matrix.
"""

from .client import (
    Address,
    RemoteReplicaSet,
    RemoteShardClient,
    SocketEndpoint,
    TransportError,
)
from .launcher import ClusterLauncher, LaunchError, ServerProcess, connect_router
from .resilience import (
    BreakerState,
    CircuitBreaker,
    HedgePolicy,
    ResilienceConfig,
    RetryBudget,
)
from .protocol import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    WIRE_VERSION,
    BadMagic,
    ChecksumMismatch,
    ErrorCode,
    FrameTooLarge,
    HealthReport,
    MessageType,
    OverloadError,
    ProtocolError,
    RemoteSearchResult,
    RemoteStatementResult,
    RpcError,
    TruncatedFrame,
    VersionMismatch,
)
from .server import ClusterFrontend, ShardServer, load_shard, run_shard_server

__all__ = [
    "Address",
    "BadMagic",
    "BreakerState",
    "ChecksumMismatch",
    "CircuitBreaker",
    "ClusterFrontend",
    "ClusterLauncher",
    "ErrorCode",
    "HedgePolicy",
    "ResilienceConfig",
    "RetryBudget",
    "FrameTooLarge",
    "HEADER_SIZE",
    "HealthReport",
    "LaunchError",
    "MAGIC",
    "MAX_PAYLOAD",
    "MessageType",
    "OverloadError",
    "ProtocolError",
    "RemoteReplicaSet",
    "RemoteSearchResult",
    "RemoteShardClient",
    "RemoteStatementResult",
    "RpcError",
    "ServerProcess",
    "ShardServer",
    "SocketEndpoint",
    "TransportError",
    "TruncatedFrame",
    "VersionMismatch",
    "WIRE_VERSION",
    "connect_router",
    "load_shard",
    "run_shard_server",
]

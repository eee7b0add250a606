"""Options that are gone stay gone: a fixed value or a deleted feature.

Each keyword or flag below is one of two kinds.  Most had one value in
use outside the tests and are now a named constant
(``repro.net.client.CONNECT_ATTEMPTS``,
``repro.net.resilience.PROBE_TIMEOUT``,
``repro.cluster.replica.HEALTH_THRESHOLD``, ...).  The rest switched a
feature that is deleted: the trace sink (``tracing``, ``sink``), a
caller-supplied engine registry (``metrics``), the breaker-less remote
set (``breaker_enabled``), a part-filled retry budget (``initial``), a
pruning mode on the serving path (``QueryEngine(mode=)``, ``SELECT ...
MODE``: a mode changes effort, never answers, so only ``EXPLAIN`` and a
direct search take one) and checksummed index pages
(``DesksIndex(checksums=)``: every deployment serves an in-memory index
loaded from a manifest-verified save).  Passing one is refused at the call, before any
socket, process, file or search is touched: a ``TypeError`` from the
constructor or function, argparse's exit 2 from the CLI, a positioned
``DqlSyntaxError`` from the parser.
"""

import pytest

from repro.cli import main
from repro.cluster import ReplicaSet
from repro.core import DesksIndex, PruningMode
from repro.lang import DqlSyntaxError, parse
from repro.net import (
    CircuitBreaker,
    ClusterFrontend,
    ClusterLauncher,
    HedgePolicy,
    RemoteReplicaSet,
    RemoteShardClient,
    ResilienceConfig,
    RetryBudget,
    ShardServer,
    connect_router,
    run_shard_server,
)
from repro.service import QueryEngine
from repro.trace import Tracer, explain

ADDRESS = ("127.0.0.1", 9)

#: ``(keyword or flag, call passing it)``; every value is the old default.
REMOVED = {
    "ShardServer-mode": (
        "mode", lambda: ShardServer("nowhere", mode=PruningMode.RD)),
    "ShardServer-metrics": (
        "metrics", lambda: ShardServer("nowhere", metrics=None)),
    "ShardServer-cache_capacity": (
        "cache_capacity",
        lambda: ShardServer("nowhere", cache_capacity=128)),
    "ClusterFrontend-metrics": (
        "metrics", lambda: ClusterFrontend(None, metrics=None)),
    "run_shard_server-mode": (
        "mode", lambda: run_shard_server("nowhere", mode=PruningMode.RD)),
    "run_shard_server-cache_capacity": (
        "cache_capacity",
        lambda: run_shard_server("nowhere", cache_capacity=128)),
    "RemoteShardClient-connect_timeout": (
        "connect_timeout",
        lambda: RemoteShardClient(ADDRESS, connect_timeout=5.0)),
    "RemoteShardClient-connect_attempts": (
        "connect_attempts",
        lambda: RemoteShardClient(ADDRESS, connect_attempts=3)),
    "RemoteShardClient-backoff": (
        "backoff", lambda: RemoteShardClient(ADDRESS, backoff=0.05)),
    "RemoteShardClient-request_timeout": (
        "request_timeout",
        lambda: RemoteShardClient(ADDRESS, request_timeout=30.0)),
    "RemoteReplicaSet-request_timeout": (
        "request_timeout",
        lambda: RemoteReplicaSet(0, [ADDRESS], request_timeout=30.0)),
    "RemoteReplicaSet-deadline_grace": (
        "deadline_grace",
        lambda: RemoteReplicaSet(0, [ADDRESS], deadline_grace=2.0)),
    "connect_router-health_threshold": (
        "health_threshold",
        lambda: connect_router("nowhere", {}, health_threshold=3)),
    "connect_router-request_timeout": (
        "request_timeout",
        lambda: connect_router("nowhere", {}, request_timeout=30.0)),
    "ClusterLauncher-startup_timeout": (
        "startup_timeout",
        lambda: ClusterLauncher("nowhere", startup_timeout=60.0)),
    "ClusterLauncher-python": (
        "python", lambda: ClusterLauncher("nowhere", python=None)),
    "RemoteReplicaSet-health_threshold": (
        "health_threshold",
        lambda: RemoteReplicaSet(0, [ADDRESS], health_threshold=3)),
    "ReplicaSet-health_threshold": (
        "health_threshold",
        lambda: ReplicaSet(0, None, 1, health_threshold=3)),
    "DesksIndex-checksums": (
        "checksums", lambda: DesksIndex(None, checksums=False)),
    "QueryEngine-tracing": (
        "tracing", lambda: QueryEngine(None, tracing=False)),
    "QueryEngine-metrics": (
        "metrics", lambda: QueryEngine(None, metrics=None)),
    "QueryEngine-mode": (
        "mode", lambda: QueryEngine(None, mode=PruningMode.RD)),
    "SELECT-MODE": (
        "MODE", lambda: parse("SELECT 1 NEAR (0, 0) MATCHING 'cafe' "
                              "MODE RD")),
    "Tracer-sink": ("sink", lambda: Tracer(sink=None)),
    "explain-sink": ("sink", lambda: explain(None, None, sink=None)),
    "ResilienceConfig-breaker_enabled": (
        "breaker_enabled", lambda: ResilienceConfig(breaker_enabled=True)),
    "RetryBudget-initial": ("initial", lambda: RetryBudget(initial=None)),
    "ResilienceConfig-probe_timeout": (
        "probe_timeout", lambda: ResilienceConfig(probe_timeout=1.0)),
    "CircuitBreaker-half_open_max_trials": (
        "half_open_max_trials",
        lambda: CircuitBreaker(half_open_max_trials=1)),
    "HedgePolicy-max_hedges": (
        "max_hedges", lambda: HedgePolicy(delay=0.05, max_hedges=1)),
    "shard-server--mode": (
        "--mode", lambda: main(["shard-server", "--directory", "nowhere",
                                "--mode", "R"])),
    "shard-server--cache": (
        "--cache", lambda: main(["shard-server", "--directory", "nowhere",
                                 "--cache", "16"])),
}


@pytest.mark.parametrize("name, call", REMOVED.values(), ids=REMOVED)
def test_removed_option_is_refused(name, call, capsys):
    if name.startswith("--"):
        with pytest.raises(SystemExit) as info:
            call()
        assert info.value.code == 2
        assert name in capsys.readouterr().err
    elif name.isupper():
        with pytest.raises(DqlSyntaxError, match=f"{name} is an EXPLAIN"):
            call()
    else:
        with pytest.raises(TypeError, match=name):
            call()

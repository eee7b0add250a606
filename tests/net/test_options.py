"""The socket deployment's fixed values are constants, not options.

Each keyword or flag below had one value in use outside the tests; it is
now a named constant (``repro.net.client.CONNECT_ATTEMPTS``,
``repro.net.resilience.PROBE_TIMEOUT``, ...).  Passing one is refused at
the call, before any socket, process or file is touched: a ``TypeError``
from the constructor, argparse's exit 2 from the CLI.
"""

import pytest

from repro.cli import main
from repro.core import PruningMode
from repro.net import (
    CircuitBreaker,
    ClusterFrontend,
    ClusterLauncher,
    HedgePolicy,
    RemoteReplicaSet,
    RemoteShardClient,
    ResilienceConfig,
    ShardServer,
    connect_router,
    run_shard_server,
)

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
    else:
        with pytest.raises(TypeError, match=name):
            call()

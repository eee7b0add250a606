"""Spawn, probe, and stop shard server processes; wire up remote routers.

:class:`ClusterLauncher` turns a :meth:`~repro.cluster.ShardRouter.save`
deployment directory into running OS processes: one ``repro
shard-server`` per (shard, replica), each binding an ephemeral port and
announcing it with a ``SHARD-SERVER READY host port`` line that the
launcher parses before health-probing the socket.  ``kill()`` delivers
SIGKILL to a single replica — the primitive the failover tests use to
take a *real* process down mid-run — and ``stop()`` tears the fleet
down.  Every child runs this interpreter, serves like an in-process
replica (``RD``, 128 cache entries) and gets :data:`STARTUP_TIMEOUT`
seconds to announce itself.

:func:`connect_router` is the other half: it rebuilds the routing
statistics (shard MBRs, keyword document frequencies, cardinality
estimators) from the deployment's cheap per-shard ``pois.csv`` files —
*without* loading any index — and returns a
:class:`~repro.cluster.ShardRouter` whose transports are
:class:`~repro.net.RemoteReplicaSet`\\ s over the launched addresses.

Both read the deployment with :func:`~repro.core.read_sharded_manifest`,
as :func:`~repro.core.load_sharded` does: a half-written one is a typed
:class:`~repro.core.PersistenceError` before anything is spawned.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster import ShardRouter, specs_from_manifest
from ..core import read_sharded_manifest
from ..datasets import load_csv
from ..service import MetricsRegistry
from .client import Address, RemoteReplicaSet, RemoteShardClient, TransportError
from .resilience import ResilienceConfig, RetryBudget

#: The stdout line a shard server prints once it is accepting.
READY_PREFIX = "SHARD-SERVER READY"

#: Seconds a shard process gets to load its index and print READY.
STARTUP_TIMEOUT = 60.0


class LaunchError(RuntimeError):
    """A server process failed to come up (or died during startup)."""


class ServerProcess:
    """One launched ``repro shard-server``: process handle plus address."""

    def __init__(self, shard_id: int, replica_id: int, directory: str,
                 process: "subprocess.Popen[str]", address: Address) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.directory = directory
        self.process = process
        self.address = address

    @property
    def alive(self) -> bool:
        """True while the OS process is still running."""
        return self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL — no drain, no goodbye; how the failover tests die."""
        if self.alive:
            self.process.send_signal(signal.SIGKILL)
            self.process.wait(timeout=10.0)

    def terminate(self, timeout: float = 5.0) -> None:
        """Polite SIGTERM first; escalate to SIGKILL if ignored."""
        if not self.alive:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            self.process.kill()
            self.process.wait(timeout=timeout)


def _repro_pythonpath() -> str:
    """An absolute PYTHONPATH under which children can import repro.

    Tests launch servers after ``chdir`` into temp directories while the
    parent was started with a *relative* ``PYTHONPATH=src``, so children
    must be handed the resolved location of the package instead.
    """
    package_parent = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    existing = os.environ.get("PYTHONPATH", "")
    if not existing:
        return package_parent
    return package_parent + os.pathsep + existing


class ClusterLauncher:
    """Run every (shard, replica) of a saved deployment as a process."""

    def __init__(self, deployment_dir: str,
                 replication: int = 1,
                 host: str = "127.0.0.1",
                 num_workers: int = 2,
                 max_inflight: Optional[int] = None) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1: {replication}")
        self.replication = replication
        self.host = host
        self.num_workers = num_workers
        self.max_inflight = max_inflight
        self.servers: List[ServerProcess] = []
        # A half-written deployment is refused here, before any process.
        self.shard_dirs, _ = read_sharded_manifest(
            os.path.abspath(deployment_dir))

    # -- process control ----------------------------------------------------

    def _spawn(self, shard_id: int) -> "subprocess.Popen[str]":
        command = [sys.executable, "-m", "repro", "shard-server",
                   "--directory", self.shard_dirs[shard_id],
                   "--host", self.host, "--port", "0",
                   "--shard-id", str(shard_id),
                   "--workers", str(self.num_workers)]
        if self.max_inflight is not None:
            command += ["--max-inflight", str(self.max_inflight)]
        env = dict(os.environ)
        env["PYTHONPATH"] = _repro_pythonpath()
        return subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)

    def _await_ready(self, process: "subprocess.Popen[str]",
                     shard_id: int, replica_id: int) -> Address:
        """Wait for the READY line, then keep stdout drained forever."""
        lines: "queue.Queue[Optional[str]]" = queue.Queue()

        def pump() -> None:
            for line in process.stdout:  # ends when the process does
                lines.put(line)
            lines.put(None)

        threading.Thread(target=pump, daemon=True,
                         name=f"desks-net-stdout-{shard_id}.{replica_id}",
                         ).start()
        deadline = time.monotonic() + STARTUP_TIMEOUT
        transcript: List[str] = []
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                process.kill()
                raise LaunchError(
                    f"shard {shard_id} replica {replica_id} not ready "
                    f"within {STARTUP_TIMEOUT}s:\n"
                    + "".join(transcript))
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise LaunchError(
                    f"shard {shard_id} replica {replica_id} exited "
                    f"(code {process.poll()}) before READY:\n"
                    + "".join(transcript))
            transcript.append(line)
            if line.startswith(READY_PREFIX):
                _, _, host, port = line.split()
                return (host, int(port))

    def start(self) -> Dict[int, List[Address]]:
        """Launch and health-probe every server; shard id → addresses.

        All processes are spawned before any READY line is awaited, so
        fleet startup costs one interpreter start + index load of wall
        clock, not ``num_shards * replication`` of them.
        """
        pending: List[Tuple[int, int, "subprocess.Popen[str]"]] = []
        try:
            for shard_id in range(len(self.shard_dirs)):
                for replica_id in range(self.replication):
                    pending.append((shard_id, replica_id,
                                    self._spawn(shard_id)))
            for shard_id, replica_id, process in pending:
                address = self._await_ready(process, shard_id, replica_id)
                self.servers.append(ServerProcess(
                    shard_id, replica_id, self.shard_dirs[shard_id],
                    process, address))
            for server in self.servers:
                self._probe(server)
        except Exception:
            for _, _, process in pending:
                if process.poll() is None:
                    process.kill()
            self.stop()
            raise
        return self.addresses()

    def _probe(self, server: ServerProcess, attempts: int = 20) -> None:
        """Confirm the announced socket answers a health RPC."""
        with RemoteShardClient(server.address) as client:
            last: Optional[Exception] = None
            for attempt in range(attempts):
                if attempt:
                    time.sleep(0.05)
                try:
                    report = client.health()
                except (TransportError, OSError) as exc:
                    last = exc
                    continue
                if not report.ok or report.shard_id != server.shard_id:
                    raise LaunchError(
                        f"{server.address} answered for shard "
                        f"{report.shard_id}, expected {server.shard_id}")
                return
            raise LaunchError(
                f"shard {server.shard_id} replica {server.replica_id} at "
                f"{server.address} never passed a health probe: {last}")

    def addresses(self) -> Dict[int, List[Address]]:
        """Shard id → replica addresses, launch order preserved."""
        out: Dict[int, List[Address]] = {}
        for server in self.servers:
            out.setdefault(server.shard_id, []).append(server.address)
        return out

    def kill(self, shard_id: int, replica_id: int = 0) -> ServerProcess:
        """SIGKILL one replica's process; returns its (dead) handle."""
        for server in self.servers:
            if (server.shard_id, server.replica_id) == (shard_id,
                                                        replica_id):
                server.kill()
                return server
        raise KeyError(f"no server for shard {shard_id} "
                       f"replica {replica_id}")

    def alive(self) -> List[Tuple[int, int]]:
        """(shard_id, replica_id) of every still-running server."""
        return [(s.shard_id, s.replica_id) for s in self.servers if s.alive]

    def stop(self) -> None:
        """Terminate every server (TERM, then KILL)."""
        for server in self.servers:
            server.terminate()

    def __enter__(self) -> "ClusterLauncher":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def connect_router(deployment_dir: str,
                   addresses: Dict[int, Sequence[Address]],
                   num_workers: int = 8,
                   max_fanout: int = 4,
                   metrics: Optional[MetricsRegistry] = None,
                   resilience: Optional[ResilienceConfig] = None,
                   deadline_grace: float = 2.0,
                   ) -> ShardRouter:
    """A :class:`~repro.cluster.ShardRouter` over running shard servers.

    Rebuilds each shard's routing statistics from the deployment's
    ``shard<i>/pois.csv`` (a linear CSV read — the indexes stay in the
    server processes) and plugs a :class:`RemoteReplicaSet` per shard
    into :meth:`~repro.cluster.ShardRouter.from_transports`.  Pruning,
    MINDIST ordering, wave dispatch, early termination, and the top-k
    merge all run exactly as they do in-process.

    ``resilience`` tunes the client-side failure handling (circuit
    breakers, hedging, retry budget, recovery probes; see
    :class:`~repro.net.resilience.ResilienceConfig`); the default
    enables breakers and a background recovery probe.  One
    :class:`~repro.net.resilience.RetryBudget` is shared by every shard
    so failover across the whole router is bounded process-wide.
    """
    deployment_dir = os.path.abspath(deployment_dir)
    shard_dirs, meta = read_sharded_manifest(deployment_dir)
    collections = [load_csv(os.path.join(shard_dir, "pois.csv"))
                   for shard_dir in shard_dirs]
    specs = specs_from_manifest(deployment_dir, meta, collections)
    registry = metrics if metrics is not None else MetricsRegistry()
    config = resilience if resilience is not None else ResilienceConfig(
        probe_interval=2.0)
    budget = RetryBudget(max_tokens=config.retry_max_tokens,
                         earn_per_success=config.retry_earn_per_success)

    def client_factory(address: Address) -> RemoteShardClient:
        return RemoteShardClient(address, deadline_grace=deadline_grace,
                                 metrics=registry)

    shards = []
    for spec, collection in zip(specs, collections):
        replica_addresses = addresses.get(spec.shard_id)
        if not replica_addresses:
            raise ValueError(f"no server addresses for shard {spec.shard_id}")
        transport = RemoteReplicaSet(
            spec.shard_id, list(replica_addresses),
            metrics=registry,
            client_factory=client_factory,
            resilience=config,
            retry_budget=budget)
        shards.append((spec, collection, transport))
    return ShardRouter.from_transports(
        shards, partitioner=meta.get("partitioner", "unknown"),
        num_workers=num_workers, max_fanout=max_fanout, metrics=registry)

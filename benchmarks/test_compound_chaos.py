"""Compound faults: a crash-recovered shard served over a faulty link.

Each fault domain has its own acceptance suite — crashes in
``test_crash_recovery.py``, the wire in ``test_netchaos.py``.  This
run stacks them.  Per seed:

1. a :class:`~repro.durability.DurableMutableIndex` runs a seeded
   mutation script and is killed by a
   :class:`~chaos_durability.CountdownFailpoint` at a seed-chosen
   stage *inside* a checkpoint (the snapshot swap or the WAL truncation);
2. the crashed directory is copied and both copies are recovered, each
   served by an in-thread :class:`~repro.net.ShardServer` — two replicas
   of one :class:`~repro.net.RemoteReplicaSet`;
3. replica 0's link runs behind a :class:`~chaos_net.ChaosProxy`
   whose plan resets and corrupts frames.

Two gates per seed:

* **exact or typed partial** — every answer equals brute force over the
  never-crashed twin (:func:`~chaos_durability.build_twin`), or the
  set raises :class:`~repro.cluster.ShardUnavailableError`;
* **exact reconciliation** — the proxy's injected resets and corruptions
  equal the client's observed counters, kind by kind, as
  ``test_netchaos.py`` reconciles them.
"""

import random
import shutil

import pytest

from repro.cluster import ShardUnavailableError
from repro.core import brute_force_search
from repro.datasets import POI, POICollection
from repro.durability import DurableMutableIndex
from repro.net import RemoteReplicaSet, ResilienceConfig, ShardServer
from repro.service import MetricsRegistry

from chaos_durability import (
    CHAOS_TERMS,
    CountdownFailpoint,
    SimulatedCrash,
    apply_script,
    build_script,
    build_twin,
    probe_queries,
)
from chaos_net import ChaosProxy, FaultPlan

pytestmark = pytest.mark.chaos

SEEDS = range(20)
BASE_POIS = 150
SCRIPT_OPS = 40
QUERIES = 24
QUERY_TIMEOUT = 5.0
#: Failpoint stages that fire inside ``checkpoint()``: the snapshot
#: directory swap, then the WAL truncation.
CHECKPOINT_STAGES = ("swap.staged", "swap.displaced", "swap.complete",
                     "checkpoint.before", "checkpoint.after")


def make_base(seed):
    rng = random.Random(seed)
    return POICollection([
        POI.make(i, rng.uniform(0, 100), rng.uniform(0, 100),
                 rng.sample(CHAOS_TERMS, rng.randint(1, 3)))
        for i in range(BASE_POIS)])


def crash_mid_checkpoint(base, script, seed, directory):
    """Run ``script`` until a seed-chosen checkpoint stage kills it;
    returns the stage it died at."""
    stages = []
    reference = DurableMutableIndex.create(
        base, directory + "-reference", failpoint=stages.append)
    apply_script(reference, script, durable_checkpoints=True)
    reference.close()
    sites = [firing for firing, stage in enumerate(stages, 1)
             if stage in CHECKPOINT_STAGES]
    failpoint = CountdownFailpoint(random.Random(seed).choice(sites))
    index = DurableMutableIndex.create(base, directory, failpoint=failpoint)
    with pytest.raises(SimulatedCrash):
        apply_script(index, script, durable_checkpoints=True)
    index.abandon()
    return failpoint.crashed_at


def oracle_over(twin):
    """Brute force over the twin's live POIs, answered in the twin's ids
    (a collection renumbers its POIs to positions; live POIs come in id
    order, so positions keep every distance tie in id order)."""
    live = twin.live_pois()
    collection = POICollection(live)

    def answer(query):
        return [(live[e.poi_id].poi_id, e.distance)
                for e in brute_force_search(collection, query).entries]
    return answer


def counters(metrics):
    return metrics.to_dict()["counters"]


def test_crashed_shard_behind_faulty_link_stays_exact(tmp_path):
    totals = {"exact": 0, "partial": 0, "resets": 0, "corruptions": 0}
    crashed_at = set()
    for seed in SEEDS:
        base = make_base(seed)
        script = build_script(base, SCRIPT_OPS, seed, checkpoint_prob=0.1)
        directory = str(tmp_path / f"seed{seed}")
        crashed_at.add(crash_mid_checkpoint(base, script, seed, directory))
        shutil.copytree(directory, directory + "-copy")
        replicas = [DurableMutableIndex.recover(path)
                    for path in (directory, directory + "-copy")]
        twin = build_twin(base, script, replicas[0].op_seq,
                          replicas[0].snapshot_op_seq)
        oracle = oracle_over(twin)
        queries = probe_queries(base, QUERIES, seed)

        servers = [ShardServer(index, shard_id=0, num_workers=1).start()
                   for index in replicas]
        plan = FaultPlan("reset-corrupt", seed=seed, reset_probability=0.2,
                         corrupt_probability=0.2)
        proxy = ChaosProxy(servers[0].address, plan).start()
        metrics = MetricsRegistry()
        replica_set = RemoteReplicaSet(
            0, [proxy.address, servers[1].address], metrics=metrics,
            resilience=ResilienceConfig(retry_max_tokens=500.0,
                                        retry_earn_per_success=0.0))
        try:
            for query in queries:
                try:
                    response, _ = replica_set.execute(query,
                                                      timeout=QUERY_TIMEOUT)
                except ShardUnavailableError:
                    totals["partial"] += 1
                    continue
                got = [(e.poi_id, e.distance)
                       for e in response.result.entries]
                assert got == oracle(query), (seed, query)
                totals["exact"] += 1
        finally:
            replica_set.close()
            proxy.stop()
            for server in servers:
                server.stop()
            for index in replicas:
                index.close()

        injected = proxy.log.to_dict()
        observed = counters(metrics)
        resets_seen = (observed.get("net_client_stale_retries_total", 0)
                       + observed.get("net_client_reset_total", 0)
                       + observed.get("net_client_truncated_total", 0))
        assert injected["resets_injected"] == resets_seen, \
            (seed, injected, observed)
        assert injected["corruptions_injected"] == \
            observed.get("net_client_crc_errors_total", 0), \
            (seed, injected, observed)
        totals["resets"] += injected["resets_injected"]
        totals["corruptions"] += injected["corruptions_injected"]
        for path in (directory, directory + "-copy",
                     directory + "-reference"):
            shutil.rmtree(path, ignore_errors=True)

    print(f"compound chaos: {len(SEEDS)} seeds, {totals}, crash stages "
          f"{sorted(crashed_at)}")
    assert totals["exact"] + totals["partial"] == len(SEEDS) * QUERIES
    assert totals["exact"] >= 0.9 * len(SEEDS) * QUERIES
    # Both fault kinds fired, or the reconciliation above was vacuous.
    assert totals["resets"] > 0 and totals["corruptions"] > 0

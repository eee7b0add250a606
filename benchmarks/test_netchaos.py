"""Network chaos acceptance: injected faults vs the resilience layer.

Real shard server *processes* (via :class:`~repro.net.ClusterLauncher`)
serve a 240-query equivalence corpus with replica 0 of every shard
behind a :class:`~repro.net.chaos.ChaosProxy`, one armed fault plan at a
time — added latency, mid-frame resets, CRC-caught corruption, and
blackholes.  Three hard gates per plan:

* **bit-exact or typed partial** — every answer either matches the
  unsharded oracle exactly or is a brownout partial naming its
  ``unavailable_shards``; a wrong answer fails the run;
* **zero hangs** — every query returns within its deadline plus the
  socket grace plus scheduling slack;
* **exact reconciliation** — the proxy's injected-fault counters equal
  the client's observed-failure counters, kind by kind: every reset
  became exactly one stale-retry/truncation/reset, every corruption one
  CRC error, every blackhole one timeout.  Nothing injected goes
  unobserved; nothing observed was uninjected.

Two focused runs ride along: hedging must measurably recover tail
latency under single-replica latency injection (p99 at least halved),
and a token-budget run under real overload must show retries capped at
the budget (zero amplification) while work still completes.

Results land in ``results/BENCH_netchaos.json`` and the per-plan fault
logs in ``results/netchaos_faults.txt``.
"""

import math
import threading
import time

import pytest

from repro.bench import generate_queries
from repro.cluster import ShardRouter
from repro.core import DesksIndex, DesksSearcher
from repro.net import (
    ClusterLauncher,
    HedgePolicy,
    ResilienceConfig,
    connect_router,
)
from repro.net.chaos import ChaosProxy, FaultPlan
from repro.service import MetricsRegistry

from conftest import bench_bands, bench_wedges
from series import write_json_result, write_result

pytestmark = pytest.mark.netchaos

NUM_SHARDS = 2
QUERY_TIMEOUT = 2.0
DEADLINE_GRACE = 0.25
#: Scheduling slack on top of deadline + grace before a query counts as
#: a hang: thread wakeups, proxy sleeps, and CI noise.
HANG_SLACK = 1.0

PLANS = [
    FaultPlan("latency", seed=101, latency_seconds=0.06,
              latency_jitter_seconds=0.03),
    FaultPlan("reset", seed=202, reset_probability=0.3,
              reset_after_bytes=6),
    FaultPlan("corrupt", seed=303, corrupt_probability=0.25),
    FaultPlan("blackhole", seed=404, blackhole_probability=0.4),
]

#: Accumulated across tests in this module; the last test writes it out.
REPORT = {}


def _entries(result):
    return [(e.poi_id, e.distance) for e in result.entries]


def _reference(collection):
    bands = bench_bands(len(collection))
    wedges = bench_wedges(len(collection), bands)
    return DesksSearcher(DesksIndex(collection, num_bands=bands,
                                    num_wedges=wedges))


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _save_deployment(collection, tmp_path_factory, label, num_shards):
    deploy = str(tmp_path_factory.mktemp(label) / "deploy")
    with ShardRouter(collection, num_shards=num_shards,
                     partitioner="grid") as builder:
        builder.save(deploy)
    return deploy


def _counter(metrics, name):
    return metrics.to_dict()["counters"].get(name, 0)


# ---------------------------------------------------------------------------
# The fault-plan matrix


def test_fault_matrix_exact_bounded_reconciled(datasets, tmp_path_factory):
    collection = datasets["VA"]
    reference = _reference(collection)
    queries = generate_queries(collection, 240, 2,
                               direction_width=math.pi / 2, k=10,
                               seed=4242)
    deploy = _save_deployment(collection, tmp_path_factory, "netchaos",
                              NUM_SHARDS)
    resilience = ResilienceConfig(
        breaker_reset_timeout=1.0,
        hedge=HedgePolicy(delay=0.05),
        retry_max_tokens=500.0,
        retry_earn_per_success=0.0,
        probe_interval=0.5)
    plan_reports = {}
    fault_lines = []

    with ClusterLauncher(deploy, replication=2, num_workers=2) as launcher:
        addresses = launcher.start()
        for plan in PLANS:
            # Fresh proxies, registry, and router per plan: counters
            # reconcile absolutely, with no cross-plan bleed.
            proxies = {shard: ChaosProxy(addresses[shard][0], plan).start()
                       for shard in range(NUM_SHARDS)}
            proxied = {shard: [proxies[shard].address, addresses[shard][1]]
                       for shard in range(NUM_SHARDS)}
            metrics = MetricsRegistry()
            router = connect_router(deploy, proxied, num_workers=4,
                                    metrics=metrics, resilience=resilience,
                                    deadline_grace=DEADLINE_GRACE)
            walls = []
            exact = partial_typed = mismatches = hangs = 0
            try:
                for query in queries:
                    started = time.monotonic()
                    response = router.execute(query, timeout=QUERY_TIMEOUT)
                    wall = time.monotonic() - started
                    walls.append(wall)
                    if wall > QUERY_TIMEOUT + DEADLINE_GRACE + HANG_SLACK:
                        hangs += 1
                    if response.degraded:
                        # Brownout: acceptable only as a *typed* partial
                        # naming exactly which shards were lost.
                        assert response.unavailable_shards == tuple(
                            sorted(response.failed_shards))
                        partial_typed += 1
                    elif _entries(response.result) == \
                            _entries(reference.search(query)):
                        exact += 1
                    else:
                        mismatches += 1
                # Let abandoned hedge stragglers and in-flight probes
                # resolve so their counters land before reconciliation.
                settle = (QUERY_TIMEOUT + DEADLINE_GRACE + 1.0
                          if plan.blackhole_probability > 0 else 1.2)
                time.sleep(settle)
            finally:
                router.close()
                injected = {}
                for shard, proxy in sorted(proxies.items()):
                    log = proxy.log.to_dict()
                    proxy.stop()
                    for key, value in log.items():
                        injected[key] = injected.get(key, 0) + value
                    fault_lines.append(f"[{plan.name}] shard {shard} "
                                       f"proxy: {log}")

            observed = metrics.to_dict()["counters"]
            fault_lines.append(f"[{plan.name}] client counters: "
                               f"{observed}")

            # -- reconciliation: injected == observed, kind by kind ------
            resets_seen = (observed.get("net_client_stale_retries_total", 0)
                           + observed.get("net_client_reset_total", 0)
                           + observed.get("net_client_truncated_total", 0))
            assert injected["resets_injected"] == resets_seen, \
                (plan.name, injected, observed)
            assert injected["corruptions_injected"] == \
                observed.get("net_client_crc_errors_total", 0), \
                (plan.name, injected, observed)
            assert injected["blackholes_activated"] == \
                observed.get("net_client_timeouts_total", 0), \
                (plan.name, injected, observed)

            # -- answers and bounds --------------------------------------
            assert mismatches == 0, f"{plan.name}: wrong answers"
            assert hangs == 0, \
                f"{plan.name}: {hangs} queries past deadline+grace+slack"
            assert exact + partial_typed == len(queries)
            assert exact >= 0.9 * len(queries), \
                (f"{plan.name}: only {exact}/{len(queries)} exact — "
                 "failover is not absorbing the injected faults")

            plan_reports[plan.name] = {
                "queries": len(queries),
                "exact": exact,
                "partial_typed": partial_typed,
                "mismatches": mismatches,
                "hangs": hangs,
                "wall_p50_ms": _percentile(walls, 0.50) * 1e3,
                "wall_p99_ms": _percentile(walls, 0.99) * 1e3,
                "injected": injected,
                "observed": dict(observed),
            }

    REPORT["fault_matrix"] = {
        "num_shards": NUM_SHARDS,
        "replication": 2,
        "query_timeout_s": QUERY_TIMEOUT,
        "deadline_grace_s": DEADLINE_GRACE,
        "plans": plan_reports,
    }
    REPORT.setdefault("fault_lines", []).extend(fault_lines)
    # At least one plan must actually have injected each fault kind, or
    # the reconciliation gates above were vacuous.
    total = {key: sum(r["injected"][key] for r in plan_reports.values())
             for key in ("latencies_injected", "resets_injected",
                         "corruptions_injected", "blackholes_activated")}
    assert all(count > 0 for count in total.values()), total


# ---------------------------------------------------------------------------
# Hedging recovers the tail


def test_hedging_recovers_p99_under_injected_latency(datasets,
                                                     tmp_path_factory):
    collection = datasets["VA"]
    reference = _reference(collection)
    queries = generate_queries(collection, 80, 2,
                               direction_width=math.pi / 2, k=10,
                               seed=5151)
    deploy = _save_deployment(collection, tmp_path_factory,
                              "netchaos-hedge", 1)
    plan = FaultPlan("slow-replica", latency_seconds=0.25)
    runs = {}
    with ClusterLauncher(deploy, replication=2, num_workers=2) as launcher:
        addresses = launcher.start()
        with ChaosProxy(addresses[0][0], plan) as proxy:
            proxied = {0: [proxy.address, addresses[0][1]]}
            for label, hedge in (("unhedged", None),
                                 ("hedged", HedgePolicy(delay=0.04))):
                metrics = MetricsRegistry()
                router = connect_router(
                    deploy, proxied, num_workers=4, metrics=metrics,
                    deadline_grace=DEADLINE_GRACE,
                    resilience=ResilienceConfig(
                        hedge=hedge, retry_max_tokens=500.0,
                        retry_earn_per_success=0.0))
                walls = []
                try:
                    for query in queries:
                        started = time.monotonic()
                        response = router.execute(query,
                                                  timeout=QUERY_TIMEOUT)
                        walls.append(time.monotonic() - started)
                        assert not response.degraded
                        assert _entries(response.result) == \
                            _entries(reference.search(query))
                    time.sleep(0.6)  # let abandoned stragglers resolve
                finally:
                    router.close()
                runs[label] = {
                    "p50_ms": _percentile(walls, 0.50) * 1e3,
                    "p99_ms": _percentile(walls, 0.99) * 1e3,
                    "hedges_fired": _counter(metrics,
                                             "net_hedges_fired_total"),
                    "hedges_won": _counter(metrics, "net_hedges_won_total"),
                }

    unhedged_p99 = runs["unhedged"]["p99_ms"]
    hedged_p99 = runs["hedged"]["p99_ms"]
    assert runs["unhedged"]["hedges_fired"] == 0
    assert runs["hedged"]["hedges_won"] > 0
    # The headline gate: hedging must at least halve the injected tail.
    assert hedged_p99 < 0.5 * unhedged_p99, runs
    REPORT["hedging"] = {
        "injected_latency_ms": plan.latency_seconds * 1e3,
        "hedge_delay_ms": 40.0,
        "queries": len(queries),
        **{f"{label}_{key}": value
           for label, run in runs.items() for key, value in run.items()},
    }


# ---------------------------------------------------------------------------
# Retry budget under real overload: zero amplification


def test_retry_budget_caps_amplification_under_overload(datasets,
                                                        tmp_path_factory):
    collection = datasets["VA"]
    queries = generate_queries(collection, 25, 2,
                               direction_width=math.pi / 2, k=10,
                               seed=6161)
    deploy = _save_deployment(collection, tmp_path_factory,
                              "netchaos-overload", 1)
    max_tokens = 5.0
    with ClusterLauncher(deploy, replication=2, num_workers=1,
                         max_inflight=2) as launcher:
        addresses = launcher.start()
        metrics = MetricsRegistry()
        router = connect_router(
            deploy, addresses, num_workers=8, metrics=metrics,
            deadline_grace=DEADLINE_GRACE,
            resilience=ResilienceConfig(
                breaker_failure_threshold=100,
                retry_max_tokens=max_tokens,
                retry_earn_per_success=0.0,
                probe_interval=None))
        completed = failed = 0
        tally = threading.Lock()

        def drive():
            nonlocal completed, failed
            for query in queries:
                try:
                    router.execute(query, timeout=QUERY_TIMEOUT)
                except Exception:
                    with tally:
                        failed += 1
                else:
                    with tally:
                        completed += 1

        try:
            threads = [threading.Thread(target=drive) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads), \
                "overload drivers hung"
        finally:
            router.close()

    spent = _counter(metrics, "net_retry_tokens_spent_total")
    denied = _counter(metrics, "net_retries_denied_total")
    shed = _counter(metrics, "cluster_replica_failures_total")
    assert completed + failed == 8 * len(queries)
    assert completed > 0, "overload starved the workload completely"
    assert shed > 0, "the overload never actually happened"
    # Zero amplification: with nothing earned back, total retries can
    # never exceed the token budget, and the excess was typed-denied.
    assert spent <= max_tokens, (spent, denied)
    assert denied > 0, \
        "the budget never bit — overload was too gentle to prove the cap"
    REPORT["overload"] = {
        "drivers": 8,
        "queries_per_driver": len(queries),
        "completed": completed,
        "failed": failed,
        "replica_failures": shed,
        "retry_budget": max_tokens,
        "retries_spent": spent,
        "retries_denied": denied,
    }


# ---------------------------------------------------------------------------
# Reporting (runs last within this module)


def test_write_netchaos_report():
    assert REPORT.get("fault_matrix"), \
        "run the full module: the matrix test populates the report"
    fault_lines = REPORT.pop("fault_lines", [])
    write_json_result("BENCH_netchaos", {"dataset": "VA", **REPORT})
    write_result("netchaos_faults", "\n".join(fault_lines) + "\n")
    for name, section in REPORT.items():
        print(name, "->", section)

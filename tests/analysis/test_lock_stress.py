"""Concurrency stress harness: the real engine/cache/buffer stack and a
remote replica set run under a hang-and-reconcile guard.

Every thread and future must finish within a deadline — on a hang the
test fails with every thread's stack (:mod:`.hang_guard`) instead of
wedging the run — and the engine's counters must reconcile afterwards:
one ``queries_total`` per request, each a cache hit or a miss, each one
latency sample.  The last case proves the guard can fail: a deliberate
two-lock inversion is reported with both threads' stacks.

Marked ``race`` so CI's analysis job can run it in isolation
(``pytest -m race``); it is fast enough to stay in tier-1 too.
"""

import random
import threading
import time
from collections import Counter

import pytest

from repro.core import DesksIndex, MutableDesksIndex, brute_force_search
from repro.service import QueryEngine

from ..service.conftest import KEYWORD_POOL, make_collection, make_queries
from .hang_guard import join_all, wait_all

pytestmark = pytest.mark.race

#: Seconds every stress thread and future gets; the runs take well under
#: one.
DEADLINE = 30.0


def assert_reconciled(engine, requests):
    """The engine's counters account for exactly ``requests`` queries."""
    metrics = engine.metrics
    total = metrics.counter("queries_total").value
    hits = metrics.counter("cache_hits_total").value
    misses = metrics.counter("cache_misses_total").value
    assert total == requests
    assert hits + misses == total
    assert metrics.histogram("query_latency_seconds").count == total


def test_engine_mutable_index_cache_stress():
    """Queries racing inserts, deletes and rebuilds (each rebuild retiring
    the snapshot's answer cache under the index lock) all finish, and the
    counters reconcile."""
    collection = make_collection(n=300, seed=11)
    index = MutableDesksIndex(collection, num_bands=4, num_wedges=6)
    engine = QueryEngine(index, num_workers=4, cache_capacity=128)
    queries = make_queries(40, seed=5)
    stop = threading.Event()
    errors = []

    def mutate():
        rng = random.Random(99)
        next_id = len(collection)
        try:
            for i in range(30):
                if stop.is_set():
                    break
                index.insert(rng.uniform(0, 100.0), rng.uniform(0, 100.0),
                             rng.sample(KEYWORD_POOL, 2))
                next_id += 1
                if i % 3 == 0:
                    index.delete(rng.randrange(next_id))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    mutator = threading.Thread(target=mutate, name="mutator")
    mutator.start()
    futures = [engine.submit(q) for q in queries for _ in range(3)]
    try:
        wait_all(futures, DEADLINE)
    finally:
        stop.set()
    join_all([mutator], DEADLINE)
    engine.close()

    assert errors == []
    assert_reconciled(engine, len(futures))
    # Every read looked the snapshot's answer cache up exactly once.
    assert engine.cache.stats.lookups == len(futures)


def test_engine_disk_index_buffer_pool_stress(tmp_path):
    """Concurrent readers over a disk-backed index: buffer-pool, cache and
    metrics locks interleave across workers, every future finishes, and
    the counters reconcile."""
    collection = make_collection(n=300, seed=12)
    index = DesksIndex(collection, num_bands=4, num_wedges=6,
                       disk_based=True,
                       disk_path_prefix=str(tmp_path / "idx"),
                       buffer_capacity=8)
    engine = QueryEngine(index, num_workers=4, cache_capacity=16)
    queries = make_queries(30, seed=6)
    futures = [engine.submit(q) for q in queries for _ in range(4)]
    wait_all(futures, DEADLINE)
    engine.close()

    assert_reconciled(engine, len(futures))
    assert index.io_stats.logical_reads > 0


def test_hang_and_reconcile_on_the_real_stack(tmp_path):
    """Both entry points at once: client threads calling ``execute`` on
    their own threads beside pool tasks from ``submit``, over one
    disk-backed engine.  Every request is counted exactly once."""
    collection = make_collection(n=300, seed=13)
    index = DesksIndex(collection, num_bands=4, num_wedges=6,
                       disk_based=True,
                       disk_path_prefix=str(tmp_path / "idx"),
                       buffer_capacity=8)
    engine = QueryEngine(index, num_workers=4, cache_capacity=16)
    queries = make_queries(30, seed=7)
    errors = []

    def client():
        try:
            for query in queries:
                engine.execute(query)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    clients = [threading.Thread(target=client, name=f"client-{i}")
               for i in range(3)]
    for thread in clients:
        thread.start()
    futures = [engine.submit(q) for q in queries for _ in range(2)]
    wait_all(futures, DEADLINE)
    join_all(clients, DEADLINE)
    engine.close()

    assert errors == []
    assert_reconciled(engine, len(futures) + len(clients) * len(queries))


def test_hang_and_reconcile_on_a_remote_replica_set():
    """Failover, breaker trips and background probes racing on one remote
    set: every client thread finishes, and every call a replica served is
    an answer or a counted failure."""
    from repro.net import ResilienceConfig, TransportError
    from repro.service import MetricsRegistry

    from ..net.test_resilience import QUERY, make_set, ok_result

    def flapping(index):
        return (TransportError(("10.0.0.0", 9000), "down") if index % 3
                else ok_result(0))

    metrics = MetricsRegistry()
    replica_set, clients = make_set(
        [flapping, lambda index: ok_result(1), lambda index: ok_result(2)],
        metrics=metrics,
        # This test is about completion, not retry amplification: the
        # default bucket (10, +0.1 per success) can run dry when the threads
        # meet the flapping replica in an unlucky order, and failover then
        # stops by design.  240 calls at <= 2 retries each cannot drain 480.
        resilience=ResilienceConfig(breaker_reset_timeout=0.0,
                                    probe_interval=0.0,
                                    retry_max_tokens=480.0))
    errors = []

    def client():
        try:
            for _ in range(60):
                replica_set.execute(QUERY, timeout=5.0)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=client, name=f"client-{i}")
               for i in range(4)]
    for thread in threads:
        thread.start()
    join_all(threads, DEADLINE)
    replica_set.close()

    assert errors == []
    failures = metrics.counter("cluster_replica_failures_total").value
    assert sum(c.calls for c in clients.values()) == 240 + failures


def test_readers_missing_on_one_pending_snapshot_build_it_once(
        monkeypatch):
    """Two readers miss on the same pending (compacted, unbuilt) snapshot
    while the writer inserts and compacts on: one of them lays the index
    out and the other waits for it, so each built snapshot costs one
    ``_rebuildable`` call; a compaction that chains from the snapshot
    being built starts from the right seed; every answer is the
    exhaustive scan's at a generation the read overlapped."""
    collection = make_collection(n=300, seed=15)
    index = MutableDesksIndex(collection, num_bands=4, num_wedges=6,
                              rebuild_threshold=1.0)
    engine = QueryEngine(index, num_workers=1, cache_capacity=64)
    built = []          # the collection of every build, kept alive
    rebuildable = DesksIndex._rebuildable.__func__

    def slow_rebuildable(cls, collection, *args):
        built.append(collection)
        time.sleep(0.005)   # long enough for the other reader to arrive
        return rebuildable(cls, collection, *args)

    monkeypatch.setattr(DesksIndex, "_rebuildable",
                        classmethod(slow_rebuildable))
    rounds = 20
    queries = make_queries(2 * rounds, seed=8)
    # generation -> what was live then (the writer is the only mutator).
    live = {index.generation: index.live_pois()}
    compacted = threading.Barrier(3)
    reads = [[] for _ in range(2)]
    errors = []

    def reader(offset):
        try:
            for turn in range(rounds):
                compacted.wait(DEADLINE)
                query = queries[2 * turn + offset]   # new: misses both
                start = index.generation
                got = engine.execute(query).result.entries
                reads[offset].append((query, start, index.generation, got))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def write(rng):
        index.insert(rng.uniform(0, 100.0), rng.uniform(0, 100.0),
                     rng.sample(KEYWORD_POOL, 2))
        live[index.generation] = index.live_pois()

    def writer():
        rng = random.Random(16)
        try:
            for turn in range(rounds):
                write(rng)
                assert index.delete(turn)       # a static tombstone
                live[index.generation] = index.live_pois()
                assert index.compact()
                live[index.generation] = index.live_pois()
                compacted.wait(DEADLINE)
                # On while the readers build: chains from the snapshot
                # being built.
                write(rng)
                if turn % 2:
                    assert index.compact()
                    live[index.generation] = index.live_pois()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(offset,),
                                name=f"reader-{offset}")
               for offset in range(2)]
    threads.append(threading.Thread(target=writer, name="writer"))
    for thread in threads:
        thread.start()
    join_all(threads, DEADLINE)
    engine.close()

    assert errors == []
    assert_reconciled(engine, 2 * rounds)
    # One build per built snapshot, and fewer builds than missing reads:
    # readers shared snapshots.
    assert set(Counter(map(id, built)).values()) == {1}
    assert 0 < len(built) < 2 * rounds
    assert sorted(live) == list(range(index.generation + 1))
    failures = [
        (query, start, end) for done in reads
        for query, start, end, got in done
        if not any(brute_force_search(live[g], query).entries == got
                   for g in range(start, end + 1))]
    assert not failures, failures[:3]


def test_deadlock_guard_catches_a_lock_order_inversion():
    """Proof the guard can fail: two threads take the mutable index's lock
    and the answer cache's lock in opposite orders.  The guard fails the
    run within its deadline and names both threads with their stacks;
    ``acquire(timeout=...)`` polling lets both threads give up after."""
    index = MutableDesksIndex(make_collection(n=50, seed=14),
                              num_bands=4, num_wedges=6)
    engine = QueryEngine(index, num_workers=2, cache_capacity=8)
    index_lock, cache_lock = index._lock, engine.cache._lock
    both_held = threading.Barrier(2)
    give_up = threading.Event()

    def take(first, second):
        with first:
            both_held.wait()
            while not give_up.is_set():
                if second.acquire(timeout=0.01):
                    second.release()
                    return

    def index_then_cache():
        take(index_lock, cache_lock)

    def cache_then_index():
        take(cache_lock, index_lock)

    threads = [threading.Thread(target=index_then_cache, name="forward"),
               threading.Thread(target=cache_then_index, name="backward")]
    for thread in threads:
        thread.start()
    try:
        with pytest.raises(pytest.fail.Exception) as info:
            join_all(threads, 0.5)
    finally:
        give_up.set()
        join_all(threads, DEADLINE)
        engine.close()

    report = str(info.value)
    assert "2 thread(s) still running after 0.5s" in report
    for name, function in (("forward", "index_then_cache"),
                           ("backward", "cache_then_index")):
        assert f"--- thread {name} (HUNG)" in report
        assert function in report
    assert report.count("in take") >= 2

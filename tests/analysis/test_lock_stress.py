"""Concurrency stress harness: the real engine/cache/buffer stack runs
under the lock-order detector and must produce a cycle-free graph.

Marked ``race`` so CI's analysis job can run it in isolation
(``pytest -m race``); it is fast enough to stay in tier-1 too.
"""

import random
import threading

import pytest

from repro.analysis import (
    LockTracker,
    WriteTracker,
    disable_lock_tracking,
    disable_write_tracking,
    enable_lock_tracking,
    enable_write_tracking,
)
from repro.core import DesksIndex, MutableDesksIndex
from repro.service import QueryEngine

from ..service.conftest import KEYWORD_POOL, make_collection, make_queries

pytestmark = pytest.mark.race


@pytest.fixture()
def tracker():
    # Tracking must be on *before* the stack under test is built: locks
    # pick raw vs tracked at creation time.
    t = enable_lock_tracking(LockTracker())
    yield t
    disable_lock_tracking()


@pytest.fixture()
def write_tracker():
    # Same creation-time rule as locks: registration instruments objects
    # only while a tracker is installed.
    t = enable_write_tracking(WriteTracker())
    yield t
    disable_write_tracking()
    disable_lock_tracking()


def test_engine_mutable_index_cache_stress(tracker):
    """Queries + mutations + metrics racing: the graph's only edge is the
    generation-bump cache invalidation, and there is no cycle."""
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

    mutator = threading.Thread(target=mutate)
    mutator.start()
    try:
        futures = [engine.submit(q) for q in queries for _ in range(3)]
        for future in futures:
            future.result(timeout=30)
    finally:
        stop.set()
        mutator.join()
        engine.close()

    assert errors == []
    report = tracker.report()
    assert report.clean, "\n" + report.render()
    assert report.acquisitions > 0
    # The one cross-subsystem hold this stack performs: the mutable
    # index bumps its generation (under its own lock) and the
    # subscribed listener purges the result cache (taking its lock).
    assert ("core.mutable_index", "service.result_cache") in {
        (e.src, e.dst) for e in report.edges}


def test_engine_disk_index_buffer_pool_stress(tracker, tmp_path):
    """Concurrent readers over a disk-backed index: buffer-pool, cache and
    metrics locks interleave across workers without ordering conflicts."""
    collection = make_collection(n=300, seed=12)
    index = DesksIndex(collection, num_bands=4, num_wedges=6,
                       disk_based=True,
                       disk_path_prefix=str(tmp_path / "idx"),
                       buffer_capacity=8)
    engine = QueryEngine(index, num_workers=4, cache_capacity=16)
    queries = make_queries(30, seed=6)
    try:
        futures = [engine.submit(q) for q in queries for _ in range(4)]
        for future in futures:
            future.result(timeout=30)
    finally:
        engine.close()

    report = tracker.report()
    assert report.clean, "\n" + report.render()
    assert report.acquisitions > 0
    names = {e.src for e in report.edges} | {e.dst for e in report.edges}
    # Whatever edges the run produced connect only known roles.
    assert names <= {"storage.buffer_pool", "service.result_cache",
                     "service.metrics.counter",
                     "service.metrics.histogram",
                     "service.metrics.registry", "service.engine"}


def test_write_sanitizer_stress_on_the_real_stack(write_tracker, tmp_path):
    """The engine/cache/metrics/buffer stack under concurrent load makes
    every shared-object write while holding a lock role: zero violations."""
    collection = make_collection(n=300, seed=13)
    index = DesksIndex(collection, num_bands=4, num_wedges=6,
                       disk_based=True,
                       disk_path_prefix=str(tmp_path / "idx"),
                       buffer_capacity=8)
    engine = QueryEngine(index, num_workers=4, cache_capacity=16)
    queries = make_queries(30, seed=7)
    try:
        futures = [engine.submit(q) for q in queries for _ in range(4)]
        for future in futures:
            future.result(timeout=30)
    finally:
        engine.close()

    report = write_tracker.report()
    assert report.writes > 0, "nothing was tracked: registration broke"
    assert report.clean, "\n" + report.render()


def test_write_sanitizer_stress_on_a_remote_replica_set(write_tracker):
    """Failover, breaker trips, quarantine + release and background probes
    racing on one remote set: replica and set state is only ever written
    under a lock role."""
    from repro.net import ResilienceConfig, TransportError

    from ..net.test_resilience import QUERY, make_set, ok_result

    def flapping(index):
        return (TransportError(("10.0.0.0", 9000), "down") if index % 3
                else ok_result(0))

    replica_set, _ = make_set(
        [flapping, lambda index: ok_result(1), lambda index: ok_result(2)],
        health_threshold=2,
        # This test is about write discipline, not retry amplification: the
        # default bucket (10, +0.1 per success) can run dry when the threads
        # meet the flapping replica in an unlucky order, and failover then
        # stops by design.  240 calls at <= 2 retries each cannot drain 480.
        resilience=ResilienceConfig(breaker_reset_timeout=0.0,
                                    probe_interval=0.0,
                                    retry_max_tokens=480.0))
    errors = []

    def client():
        try:
            for i in range(60):
                replica_set.execute(QUERY, timeout=5.0)
                if i % 20 == 0:
                    replica_set.replicas[2].quarantine("scrub")
                    replica_set.replicas[2].release()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    replica_set.close()

    assert errors == []
    report = write_tracker.report()
    assert report.writes > 0, "nothing was tracked: registration broke"
    assert report.clean, "\n" + report.render()


def test_write_sanitizer_catches_a_deliberate_unguarded_write(write_tracker):
    """Proof the harness can fail: an attribute poked from outside any
    lock on a registered engine is reported with role, attr, and stack."""
    collection = make_collection(n=50, seed=14)
    index = MutableDesksIndex(collection, num_bands=4, num_wedges=6)
    engine = QueryEngine(index, num_workers=2, cache_capacity=8)
    try:
        engine._closed = engine._closed  # no lock held: must be flagged
    finally:
        engine.close()

    violations = {(v.role, v.attr)
                  for v in write_tracker.report().violations}
    assert ("service.engine", "_closed") in violations

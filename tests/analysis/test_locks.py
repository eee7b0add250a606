"""The lock-order detector is retired: the concurrent modules hold plain
``threading`` locks, and the hang guard (:mod:`.hang_guard`) is what
turns a lock-order deadlock into a failing test with every stack.

Across 25 trees of history the detector saw three order edges and never
a cycle or an inversion; ``docs/ANALYSIS.md`` ("Retired rules") has the
audit.  Each former detector test now pins the retired state or
exercises the guard on the scenario it used to record.
"""

import concurrent.futures
import pathlib
import subprocess
import sys
import threading

import pytest

import repro.analysis
from repro.service import Counter
from repro.storage import BufferPool, InMemoryPageStore

from .hang_guard import join_all, wait_all

LOCK = type(threading.Lock())
RLOCK = type(threading.RLock())

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: What ``repro.analysis`` exported for the detector and the sanitizer.
RETIRED_NAMES = (
    "ENV_FLAG", "ENV_WRITE_FLAG", "LockEdge", "LockOrderReport",
    "LockTracker", "SharedStateRule", "TrackedLock", "WriteReport",
    "WriteTracker", "WriteViolation", "disable_lock_tracking",
    "disable_write_tracking", "enable_lock_tracking",
    "enable_write_tracking", "get_lock_tracker", "get_write_tracker",
    "lock_tracking_enabled", "make_lock", "register_shared",
    "write_tracking_enabled",
)

#: Tokens no source file may contain any more.
RETIRED_TOKENS = (
    "make_lock", "register_shared", "TrackedLock", "LockTracker",
    "WriteTracker", "SharedStateRule", "DESKS_LOCK_TRACKING",
    "DESKS_WRITE_TRACKING",
)


def run_nested(orders, deadline=10.0):
    """One thread per ``(first, second, ...)`` lock order, each taking
    its locks nested; all must finish within ``deadline``."""
    def nest(locks):
        if locks:
            with locks[0]:
                nest(locks[1:])

    threads = [threading.Thread(target=nest, args=(order,),
                                name=f"order-{i}")
               for i, order in enumerate(orders)]
    for thread in threads:
        thread.start()
    join_all(threads, deadline)


def deadlock(locks, deadline=0.5):
    """Thread ``i`` holds ``locks[i]`` and polls for ``locks[i + 1]``
    (cyclically): a lock-order cycle.  Returns the guard's report."""
    held = threading.Barrier(len(locks))
    give_up = threading.Event()

    def cycle_step(first, second):
        with first:
            held.wait()
            while not give_up.is_set():
                if second.acquire(timeout=0.01):
                    second.release()
                    return

    threads = [threading.Thread(target=cycle_step,
                                args=(lock, locks[(i + 1) % len(locks)]),
                                name=f"cycle-{i}")
               for i, lock in enumerate(locks)]
    for thread in threads:
        thread.start()
    try:
        with pytest.raises(pytest.fail.Exception) as info:
            join_all(threads, deadline)
    finally:
        give_up.set()
        join_all(threads, 10.0)
    return str(info.value)


class TestInversionDetection:
    def test_deliberate_two_lock_inversion_is_flagged(self):
        # a -> b on one thread while b -> a runs on another: the guard
        # fails the run and points at code through both stacks.
        report = deadlock([threading.Lock(), threading.Lock()])
        assert "2 thread(s) still running after 0.5s" in report
        for name in ("cycle-0", "cycle-1"):
            assert f"--- thread {name} (HUNG)" in report
        assert report.count("in cycle_step") >= 2
        assert "test_locks.py" in report

    def test_three_lock_cycle_without_any_inversion(self):
        # No pair of threads reverses an order, yet a -> b, b -> c,
        # c -> a wedges all three; every one is reported.
        report = deadlock([threading.Lock() for _ in range(3)])
        assert "3 thread(s) still running" in report
        for name in ("cycle-0", "cycle-1", "cycle-2"):
            assert f"--- thread {name} (HUNG)" in report

    def test_consistent_order_is_clean(self):
        a, b, c = (threading.Lock() for _ in range(3))
        run_nested([(a, b, c)] * 3 + [(a, c), (b, c), (a, b)])

    def test_edges_count_threads_and_acquisitions(self):
        # The guard covers futures too: a pool task that never finishes
        # fails the wait with the worker's stack; finished ones return.
        release = threading.Event()
        with concurrent.futures.ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="guarded") as pool:
            done = pool.submit(lambda: 7)
            stuck = pool.submit(release.wait)
            try:
                with pytest.raises(pytest.fail.Exception) as info:
                    wait_all([done, stuck], 0.3)
            finally:
                release.set()
        report = str(info.value)
        assert "1 of 2 future(s) still pending after 0.3s" in report
        assert "--- thread guarded" in report
        assert wait_all([done], 1.0) == [7]


class TestReentrancy:
    def test_rlock_reentry_is_not_an_edge(self, lock_sites):
        # The buffer pool (close() flushes under its own lock) and the
        # mutable index (compact() asks len() under the update lock)
        # re-enter their locks on one thread.
        for site, obj, attr, reentrant in lock_sites:
            if not reentrant:
                continue
            lock = getattr(obj, attr)
            with lock:
                assert lock.acquire(timeout=0), site
                lock.release()

    def test_same_role_two_instances_no_self_edge(self, lock_sites):
        # Two objects of one class hold two locks: nesting them, in
        # either order, never waits on itself.
        pool = next(obj for site, obj, _, _ in lock_sites
                    if site.endswith(":BufferPool"))
        pools = [pool, BufferPool(InMemoryPageStore())]
        counters = [Counter("a"), Counter("b")]
        for pair in (pools, counters):
            locks = [pair[0]._lock, pair[1]._lock]
            run_nested([tuple(locks), tuple(reversed(locks))])

    def test_release_order_restores_stack(self, lock_sites):
        # The real reentrant path: flush() inside close() on a dirty pool.
        pool = next(obj for site, obj, _, _ in lock_sites
                    if site.endswith(":BufferPool"))
        page = pool.allocate()
        pool.write_page(page, b"x" * pool.page_size)
        done = threading.Thread(target=pool.close, name="close")
        done.start()
        join_all([done], 10.0)
        assert pool._lock.acquire(timeout=0)
        pool._lock.release()

    def test_unmatched_release_is_ignored(self, lock_sites):
        # No tracker swallows a stray release any more: a plain lock
        # raises on it, so a release bug fails loudly where it happens.
        for site, obj, attr, _ in lock_sites:
            with pytest.raises(RuntimeError):
                getattr(obj, attr).release()


class TestFactorySwitch:
    def test_off_by_default_returns_raw_locks(self, lock_sites):
        # Every former make_lock site holds exactly the object the
        # factory returned with tracking off: same type, same reentrancy.
        assert len(lock_sites) == 18
        for site, obj, attr, reentrant in lock_sites:
            assert type(getattr(obj, attr)) is (
                RLOCK if reentrant else LOCK), site

    def test_enabled_returns_tracked_locks(self):
        for name in RETIRED_NAMES:
            assert not hasattr(repro.analysis, name), name
        assert len(repro.analysis.__all__) == 15
        for module in ("repro.analysis.locks", "repro.analysis.shared"):
            with pytest.raises(ModuleNotFoundError):
                __import__(module)

    def test_enable_is_idempotent(self):
        offenders = [
            (str(path.relative_to(ROOT)), token)
            for path in sorted((ROOT / "src").rglob("*.py"))
            for token in RETIRED_TOKENS
            if token in path.read_text(encoding="utf-8")]
        assert offenders == []

    def test_tracked_lock_supports_nonblocking_acquire(self, lock_sites):
        # What the hang guard's deadlock proof relies on: a contended
        # plain lock answers a non-blocking or timed acquire with False.
        for site, obj, attr, _ in lock_sites:
            lock = getattr(obj, attr)
            with lock:
                got = []
                probe = threading.Thread(target=lambda: got.append(
                    (lock.acquire(False), lock.acquire(timeout=0.001))))
                probe.start()
                join_all([probe], 10.0)
                assert got == [(False, False)], site

    def test_env_flag_enables_at_import(self):
        # The old switches are inert: with both set, the runtime stack
        # builds plain locks and loads no part of the linter.
        code = (
            "import sys, threading\n"
            "from repro.core import MutableDesksIndex\n"
            "from repro.datasets import POI, POICollection\n"
            "from repro.service import QueryEngine\n"
            "index = MutableDesksIndex(POICollection("
            "[POI.make(0, 1.0, 1.0, ['cafe'])]), 2, 2)\n"
            "engine = QueryEngine(index, num_workers=1)\n"
            "print(type(index._lock) is type(threading.RLock()),\n"
            "      type(engine.cache._lock) is type(threading.Lock()),\n"
            "      sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.analysis')))\n"
            "engine.close()\n")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": str(ROOT / "src"),
                 "DESKS_LOCK_TRACKING": "1", "DESKS_WRITE_TRACKING": "1"},
            capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "True True []"

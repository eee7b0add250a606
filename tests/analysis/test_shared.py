"""The shared-state write sanitizer and DAL012 are retired.

Across the 19 trees that carried the sanitizer it recorded no unguarded
write in ``src/`` code (only tests poking registered objects), and
DAL012 reported nothing and carried no waiver; ``docs/ANALYSIS.md``
("Retired rules") has the audit.  The objects it watched are plain
classes again, so their concurrency is held by reconciliation instead:
each former sanitizer test drives one of them from several threads
under the hang guard and checks that every operation was counted
exactly once.  Every DAL012 fixture stays: the default engine is silent
on each, and ``--rules DAL012`` is an unknown code.
"""

import sys
import textwrap
import threading

import pytest

import repro.analysis
from repro.analysis import RULE_INDEX, LintEngine
from repro.cluster import FailoverSet
from repro.core import QueryResult
from repro.net import RemoteReplicaSet, RetryBudget
from repro.net.chaos import FaultLog, FaultPlan, FaultyEndpoint, InjectedFault
from repro.service import Gauge, Histogram, MetricsRegistry, ResultCache
from repro.storage import BufferPool, InMemoryPageStore

from ..service.conftest import make_queries
from .hang_guard import join_all

SVC = "src/repro/service/example.py"

#: What the sanitizer exported.
SANITIZER_NAMES = (
    "ENV_WRITE_FLAG", "SharedStateRule", "WriteReport", "WriteTracker",
    "WriteViolation", "disable_write_tracking", "enable_write_tracking",
    "get_write_tracker", "register_shared", "write_tracking_enabled",
)

#: The classes that used to call ``register_shared`` (every one but the
#: subclass :class:`RemoteReplicaSet` is in ``lock_sites``).
REGISTERED = ("BufferPool", "Counter", "Gauge", "Histogram",
              "MetricsRegistry", "QueryEngine", "ResultCache", "Replica",
              "FailoverSet")


def hammer(work, threads=4, deadline=30.0):
    """Run ``work(i)`` on ``threads`` threads released together; every
    one must finish within ``deadline`` and none may raise.  A short
    switch interval makes a lost update likely if a lock is missing."""
    start = threading.Barrier(threads)
    errors = []

    def run(i):
        try:
            start.wait()
            work(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(i,), name=f"hammer-{i}")
            for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in pool:
            thread.start()
        join_all(pool, deadline)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


class Answering:
    """An endpoint whose every call answers."""

    def call(self, query, budget):
        return "answer"


def registered(lock_sites):
    return {site.split(":")[1]: obj for site, obj, _, _ in lock_sites
            if site.split(":")[1] in REGISTERED}


# -- runtime: the watched objects, reconciled ---------------------------------


class TestWriteTracker:
    def test_register_is_a_no_op_when_disabled(self, lock_sites):
        # No generated wrapper subclass: each object is exactly its class
        # (ReplicaSet is the engine-endpoint FailoverSet).
        objects = registered(lock_sites)
        assert sorted(objects) == sorted(REGISTERED)
        for name, obj in objects.items():
            assert type(obj).__name__ in (name, "ReplicaSet"), name
            assert type(obj).__module__.startswith("repro."), name

    def test_enabling_implies_lock_tracking(self):
        for name in SANITIZER_NAMES:
            assert not hasattr(repro.analysis, name), name

    def test_unguarded_write_is_a_violation(self, lock_sites):
        # What the sanitizer flagged were test pokes such as
        # `replica_set._rotation = 0`: plain writes now, through no hook.
        for name, obj in registered(lock_sites).items():
            assert type(obj).__setattr__ is object.__setattr__, name
        replica_set = registered(lock_sites)["FailoverSet"]
        replica_set._rotation = 0
        assert replica_set._rotation == 0

    def test_guarded_write_is_clean(self):
        # Lookups, insertions and purges racing on one small cache: every
        # lookup is a hit or a miss, and every insertion is counted.
        cache = ResultCache(8)
        queries = make_queries(16, seed=3)
        rounds = 50

        def work(i):
            for r in range(rounds):
                query = queries[(i + r) % len(queries)]
                if cache.get(query) is None:
                    assert cache.put(query, QueryResult([]))
                if r % 10 == 0:
                    cache.clear()

        hammer(work)
        stats = cache.stats
        assert stats.lookups == 4 * rounds
        assert stats.insertions == stats.misses
        resident = len(cache)
        assert resident <= 8
        assert stats.evictions + stats.invalidations + resident <= \
            stats.insertions

    def test_init_writes_are_exempt_by_construction(self):
        # First use from many threads at once creates one metric per
        # name: creation is guarded by the registry lock.
        registry = MetricsRegistry()
        seen = [[] for _ in range(8)]

        def work(i):
            seen[i] = [registry.counter("c"), registry.gauge("g"),
                       registry.histogram("h")]

        hammer(work, threads=8)
        for column in zip(*seen):
            assert len({id(metric) for metric in column}) == 1

    def test_any_held_role_counts_as_guarded(self):
        gauge = Gauge("g")
        hammer(lambda i: [gauge.add(1.0) for _ in range(500)])
        assert gauge.value == 2000.0

    def test_violations_aggregate_by_role_and_attr(self):
        histogram = Histogram("h")
        hammer(lambda i: [histogram.observe(0.001 * (i + 1))
                          for _ in range(500)])
        snap = histogram.snapshot()
        assert histogram.count == snap["count"] == 2000
        assert snap["mean"] == pytest.approx(0.0025)
        assert (snap["min"], snap["max"]) == (0.001, 0.004)

    def test_multiple_threads_are_counted(self):
        # Readers over an 8-frame pool on 16 pages: every read is one
        # logical read, hit or fetch, whatever the eviction order.
        pool = BufferPool(InMemoryPageStore(), capacity=8)
        pages = [pool.allocate() for _ in range(16)]
        for page in pages:
            pool.write_page(page, bytes([page % 256]) * pool.page_size)
        pool.flush()
        before = pool.stats.logical_reads

        def work(i):
            for r in range(200):
                page = pages[(i * 5 + r) % len(pages)]
                assert pool.read_page(page)[0] == page % 256

        hammer(work)
        assert pool.stats.logical_reads - before == 800
        assert pool.num_cached <= 8

    def test_double_registration_keeps_one_wrapper(self):
        assert RemoteReplicaSet.__mro__ == (
            RemoteReplicaSet, FailoverSet, object)

    def test_slotted_classes_can_register(self):
        # Every retry attempt is spent or denied, never both or neither.
        budget = RetryBudget(max_tokens=100.0, earn_per_success=0.5)
        granted = [0] * 4

        def work(i):
            for r in range(200):
                granted[i] += budget.try_spend()
                if r % 4 == 0:
                    budget.record_success()

        hammer(work)
        assert budget.spent == sum(granted)
        assert budget.spent + budget.denied == 800
        assert 0.0 <= budget.tokens <= 100.0

    def test_disable_stops_recording(self):
        # Each injected fault raised is counted once, and each call gets
        # its own position: the 800 positions fault the same calls as a
        # sequential run, whatever the interleaving.
        log = FaultLog()
        endpoint = FaultyEndpoint(Answering(), FaultPlan(
            "flaky", seed=5, reset_probability=0.5), log)
        raised = [0] * 4

        def work(i):
            for _ in range(200):
                try:
                    endpoint.call(None, None)
                except InjectedFault:
                    raised[i] += 1

        hammer(work)
        assert log.to_dict()["resets_injected"] == sum(raised)
        assert 0 < sum(raised) < 800
        sequential = FaultyEndpoint(Answering(), endpoint.plan, FaultLog())
        expected = 0
        for _ in range(800):
            try:
                sequential.call(None, None)
            except InjectedFault:
                expected += 1
        assert sum(raised) == expected


# -- static: DAL012 fixtures, now silent --------------------------------------


def assert_retired(source):
    """DAL012 is out of the catalog and the default engine (every
    remaining rule) reports nothing on ``source``."""
    assert "DAL012" not in RULE_INDEX
    assert LintEngine().check_source(textwrap.dedent(source), SVC) == []


class TestSharedStateRule:
    def test_unguarded_write_fires(self, capsys):
        from repro.cli import main

        assert_retired("""
            class Cache:
                def __init__(self):
                    self._lock = make_lock("svc.cache")
                    self.hits = 0
                    register_shared(self, "svc.cache")

                def bump(self):
                    self.hits += 1
        """)
        assert main(["lint", "src", "--rules", "DAL012"]) == 2
        assert "unknown rule code(s) DAL012" in capsys.readouterr().err

    def test_guarded_write_is_silent(self):
        assert_retired("""
            class Cache:
                def __init__(self):
                    self._lock = make_lock("svc.cache")
                    self.hits = 0
                    register_shared(self, "svc.cache")

                def bump(self):
                    with self._lock:
                        self.hits += 1
        """)

    def test_unregistered_class_is_ignored(self):
        assert_retired("""
            class Plain:
                def __init__(self):
                    self.hits = 0

                def bump(self):
                    self.hits += 1
        """)

    def test_tuple_and_annotated_targets_fire(self):
        assert_retired("""
            class Cache:
                def __init__(self):
                    register_shared(self, "svc.cache")

                def reset(self):
                    self.a, self.b = 0, 0
                    self.c: int = 0
        """)

    def test_non_lock_with_does_not_guard(self):
        assert_retired("""
            class Cache:
                def __init__(self):
                    register_shared(self, "svc.cache")

                def load(self):
                    with open("f") as handle:
                        self.data = handle.read()
        """)

    def test_nested_function_writes_are_skipped(self):
        assert_retired("""
            class Cache:
                def __init__(self):
                    register_shared(self, "svc.cache")

                def make_cb(self):
                    def cb(self):
                        self.x = 1
                    return cb
        """)

    def test_noqa_suppresses(self):
        # A stale waiver of a retired code suppresses nothing and is
        # itself no finding.
        assert_retired("""
            class Cache:
                def __init__(self):
                    register_shared(self, "svc.cache")

                def bump(self):
                    self.hits = 1  # desks: noqa-DAL012 - init-once pattern
        """)

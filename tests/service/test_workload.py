"""The closed-loop load generator: determinism, accounting, scaling hooks."""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.service import QueryEngine, run_closed_loop

from .conftest import make_queries


@pytest.fixture()
def engine(static_index):
    with QueryEngine(static_index, num_workers=4) as eng:
        yield eng


class TestClosedLoop:
    def test_fixed_request_count(self, engine):
        queries = make_queries(10, seed=30)
        report = run_closed_loop(engine, queries, num_clients=3,
                                 requests_per_client=7)
        assert report.total_queries == 21
        assert report.per_client_queries == [7, 7, 7]
        assert report.errors == 0
        assert report.qps > 0
        assert report.elapsed_seconds > 0

    def test_cache_warm_repeat_hits(self, engine):
        queries = make_queries(5, seed=31)
        # Each client walks the 5 queries 4 times: everything past the
        # first pass is a hit.
        report = run_closed_loop(engine, queries, num_clients=1,
                                 requests_per_client=20)
        assert report.cache_lookups == 20
        assert report.cache_hits == 15
        assert report.cache_hit_rate == pytest.approx(0.75)

    def test_latency_snapshot_present(self, engine):
        report = run_closed_loop(engine, make_queries(4, seed=32),
                                 num_clients=2, requests_per_client=4)
        assert set(report.latency) >= {"p50", "p95", "p99", "mean"}
        assert report.latency["p50"] >= 0.0

    def test_duration_bound_stops(self, engine):
        report = run_closed_loop(engine, make_queries(4, seed=33),
                                 num_clients=2, duration_seconds=0.15)
        assert report.elapsed_seconds < 5.0
        assert report.errors == 0

    def test_summary_renders(self, engine):
        report = run_closed_loop(engine, make_queries(3, seed=34),
                                 num_clients=2, requests_per_client=3)
        line = report.summary()
        assert "qps=" in line and "hit_rate=" in line

    def test_validation(self, engine):
        queries = make_queries(2, seed=35)
        with pytest.raises(ValueError):
            run_closed_loop(engine, [], num_clients=1,
                            requests_per_client=1)
        with pytest.raises(ValueError):
            run_closed_loop(engine, queries, num_clients=0,
                            requests_per_client=1)
        with pytest.raises(ValueError):
            run_closed_loop(engine, queries, num_clients=1)
        with pytest.raises(ValueError):
            run_closed_loop(engine, queries, num_clients=1,
                            requests_per_client=1, duration_seconds=1.0)

    def test_latency_is_per_run_not_cumulative(self, engine, monkeypatch):
        # Every cold search costs >= 50 ms; the second run is all cache
        # hits.  Each report must describe its own requests only.
        real_search = engine._search

        def slow_search(*args, **kwargs):
            time.sleep(0.05)
            return real_search(*args, **kwargs)

        monkeypatch.setattr(engine, "_search", slow_search)
        queries = make_queries(6, seed=36)
        cold = run_closed_loop(engine, queries, num_clients=1,
                               requests_per_client=6)
        warm = run_closed_loop(engine, queries, num_clients=2,
                               requests_per_client=9)
        assert cold.latency["count"] == cold.total_queries == 6
        assert cold.latency["p50"] >= 0.05
        assert warm.cache_hits == warm.total_queries == 18
        assert warm.latency["count"] == 18
        assert warm.latency["p50"] <= warm.latency["p95"] \
            <= warm.latency["p99"] <= warm.latency["max"] < 0.05


class Shed(Exception):
    """What the fake target raises for a request it sheds."""


class RefinedShed(Shed):
    pass


class FakeTarget:
    """An ``issue(query)`` callable that misbehaves on schedule."""

    def __init__(self, shed_every=0, fail_at=0, shed_type=Shed):
        self.shed_every = shed_every
        self.fail_at = fail_at
        self.shed_type = shed_type
        self.seen = []
        self._lock = threading.Lock()

    def __call__(self, query):
        with self._lock:
            self.seen.append(query)
            attempt = len(self.seen)
        if self.fail_at and attempt == self.fail_at:
            raise RuntimeError("boom")
        if self.shed_every and attempt % self.shed_every == 0:
            raise self.shed_type("busy")
        return SimpleNamespace(partial=attempt % 5 == 0)


class TestCallableTarget:
    def test_declared_shed_is_counted_and_the_client_keeps_going(self):
        target = FakeTarget(shed_every=3, shed_type=RefinedShed)
        report = run_closed_loop(target, make_queries(4, seed=40),
                                 num_clients=1, requests_per_client=10,
                                 shed_on=(Shed,))
        assert len(target.seen) == 10
        assert report.shed == {"Shed": 3}
        assert report.total_queries == 7
        assert report.total_queries + report.shed["Shed"] == \
            report.attempts == 10
        assert report.errors == 0 and report.first_error is None
        assert report.latency["count"] == 7
        assert report.partial_results == 2  # attempts 5 and 10
        assert report.cache_lookups == 0
        assert "shed=3" in report.summary()

    def test_undeclared_exception_stops_that_client(self):
        target = FakeTarget(fail_at=4)
        report = run_closed_loop(target, make_queries(4, seed=41),
                                 num_clients=1, requests_per_client=10,
                                 shed_on=(Shed,))
        assert len(target.seen) == 4
        assert report.total_queries == 3
        assert report.errors == 1
        assert report.first_error == "RuntimeError: boom"
        assert report.shed == {"Shed": 0}

    def test_shed_types_must_be_declared(self):
        report = run_closed_loop(FakeTarget(shed_every=2),
                                 make_queries(4, seed=42),
                                 num_clients=1, requests_per_client=6)
        assert report.first_error == "Shed: busy"
        assert report.total_queries == 1
        assert report.shed == {}
        assert "shed=" not in report.summary()

    def test_stride_is_identical_for_engine_and_callable(self, engine,
                                                         monkeypatch):
        queries = make_queries(7, seed=43)
        submitted = []
        real_submit = engine.submit

        def recording_submit(query, *args):
            submitted.append(query)
            return real_submit(query, *args)

        monkeypatch.setattr(engine, "submit", recording_submit)
        target = FakeTarget()
        for walked, load in ((submitted, engine), (target.seen, target)):
            run_closed_loop(load, queries, num_clients=1,
                            requests_per_client=5)
            assert walked == [queries[i % 7] for i in range(5)]
            # Several clients interleave freely, but each one's walk is
            # fixed: offset i, stride num_clients.
            del walked[:]
            run_closed_loop(load, queries, num_clients=3,
                            requests_per_client=4)
            assert sorted(map(queries.index, walked)) == sorted(
                (i + 3 * step) % 7 for i in range(3) for step in range(4))

    def test_batching_needs_an_engine(self):
        with pytest.raises(ValueError, match="batch_size"):
            run_closed_loop(FakeTarget(), make_queries(2, seed=44),
                            num_clients=1, requests_per_client=2,
                            batch_size=2)

"""Counters, histograms, percentile estimation, and rendering."""

import threading

import pytest

from repro.service import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_increment(self):
        c = Counter("x")
        c.increment()
        c.increment(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").increment(-1)

    def test_concurrent_increments_all_land(self):
        c = Counter("x")

        def worker():
            for _ in range(1000):
                c.increment()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestHistogram:
    def test_empty(self):
        h = Histogram("lat")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(95.0) == 0.0

    def test_mean_and_count(self):
        h = Histogram("lat", buckets=[1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(3.75)

    def test_percentiles_bracket_the_data(self):
        h = Histogram("lat", buckets=[float(i) for i in range(1, 101)])
        for v in range(1, 101):
            h.observe(float(v) - 0.5)
        # With unit buckets the estimate is within one bucket of truth.
        assert h.percentile(50.0) == pytest.approx(50.0, abs=1.5)
        assert h.percentile(95.0) == pytest.approx(95.0, abs=1.5)
        assert h.percentile(99.0) == pytest.approx(99.0, abs=1.5)

    def test_monotone_in_q(self):
        h = Histogram("lat")
        for v in (1e-4, 5e-4, 2e-3, 0.1, 1.0):
            h.observe(v)
        ps = [h.percentile(float(p)) for p in range(0, 101, 10)]
        assert ps == sorted(ps)

    def test_overflow_bucket(self):
        h = Histogram("lat", buckets=[1.0])
        h.observe(100.0)
        assert h.count == 1
        assert h.percentile(99.0) <= 100.0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=[2.0, 1.0])

    def test_snapshot_keys(self):
        h = Histogram("lat")
        h.observe(0.25)
        snap = h.snapshot()
        assert set(snap) == {"count", "mean", "min", "max", "p50", "p95",
                             "p99"}
        assert snap["min"] == snap["max"] == 0.25

    def test_snapshot_takes_the_lock_once(self):
        # Six separate acquisitions (and unlocked min/max reads) let a
        # concurrent observe() land between the fields of one snapshot.
        class CountingLock:
            def __init__(self, inner):
                self.inner = inner
                self.acquisitions = 0

            def __enter__(self):
                self.acquisitions += 1
                return self.inner.__enter__()

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        h = Histogram("lat")
        for v in (1e-3, 2e-3, 5e-2):
            h.observe(v)
        h._lock = CountingLock(h._lock)
        snap = h.snapshot()
        assert h._lock.acquisitions == 1
        assert snap["count"] == 3.0
        assert snap["min"] <= snap["p50"] <= snap["max"] == 5e-2

    def test_concurrent_snapshots_are_ordered(self):
        h = Histogram("lat")
        stop = threading.Event()

        def rising():
            value = 1e-5
            while not stop.is_set():
                h.observe(value)
                value *= 1.01

        writer = threading.Thread(target=rising)
        writer.start()
        try:
            snaps = [h.snapshot() for _ in range(2000)]
        finally:
            stop.set()
            writer.join(timeout=10)
        torn = [s for s in snaps if s["count"] and not
                s["min"] <= s["p50"] <= s["p95"] <= s["p99"] <= s["max"]]
        assert torn == []


class TestRegistry:
    def test_same_name_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_concurrent_mixed_use(self):
        reg = MetricsRegistry()

        def worker(i):
            for j in range(500):
                reg.counter("c").increment()
                reg.histogram("h").observe(0.001 * ((i + j) % 7 + 1))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("c").value == 3000
        assert reg.histogram("h").count == 3000


class TestToDict:
    def test_json_ready_snapshot(self):
        import json

        reg = MetricsRegistry()
        reg.counter("queries_total").increment(7)
        for value in (0.001, 0.002, 0.004):
            reg.histogram("query_latency_seconds").observe(value)
        snap = reg.to_dict()
        assert snap["counters"] == {"queries_total": 7}
        latency = snap["histograms"]["query_latency_seconds"]
        assert latency["count"] == 3
        assert latency["min"] == pytest.approx(0.001)
        assert latency["max"] == pytest.approx(0.004)
        assert snap["uptime_seconds"] >= 0.0
        json.dumps(snap)  # must round-trip through the json module as-is

    def test_empty_registry(self):
        snap = MetricsRegistry().to_dict()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}


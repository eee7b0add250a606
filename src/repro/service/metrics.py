"""Thread-safe counters and histograms for the serving layer.

The registry is deliberately Prometheus-shaped without the dependency:
monotonic :class:`Counter`\\ s, log-bucketed :class:`Histogram`\\ s with
percentile estimation, and one JSON-ready :meth:`MetricsRegistry.to_dict`
snapshot — what ``SHOW METRICS`` and the STATS RPC read.

Percentiles are estimated from the bucket counts by linear interpolation
inside the winning bucket — the standard trade: O(num_buckets) memory
regardless of sample count, with error bounded by bucket width (~25 % per
step for the default latency buckets, tight enough to tell a p50 from a
tail).
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 50 µs .. ~30 s, ~4 steps per decade.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    5e-05 * (10 ** 0.25) ** i for i in range(24))

#: Default buckets for page-I/O-per-query histograms.
PAGES_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 4096.0)


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, by: int = 1) -> None:
        """Add ``by`` (non-negative) to the counter."""
        if by < 0:
            raise ValueError(f"counters only go up; got increment {by}")
        with self._lock:
            self._value += by

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe value that can go up and down (e.g. token levels)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def add(self, by: float) -> None:
        """Adjust the gauge by ``by`` (may be negative)."""
        with self._lock:
            self._value += by

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value


class Histogram:
    """Bucketed distribution of observed values, thread-safe.

    ``buckets`` are the *upper* bounds of each bucket, sorted ascending;
    an implicit overflow bucket catches everything beyond the last bound.
    """

    def __init__(self, name: str,
                 buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(
                "histogram buckets must be sorted and non-empty")
        self.name = name
        self._bounds: List[float] = list(buckets)
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        idx = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    # -- aggregates ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of samples observed."""
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 when empty)."""
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (``q`` in [0, 100]).

        Linear interpolation within the bucket containing the rank; exact
        at the recorded min/max for q=0/100 when they fall in terminal
        buckets.  Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {q}")
        with self._lock:
            return self._percentile(q)

    def _percentile(self, q: float) -> float:
        """:meth:`percentile` for a caller that holds ``_lock``."""
        if self._count == 0:
            return 0.0
        rank = q / 100.0 * self._count
        seen = 0
        for idx, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lo = self._bounds[idx - 1] if idx > 0 else min(
                    self._min, self._bounds[0] if self._bounds else 0.0)
                hi = (self._bounds[idx] if idx < len(self._bounds)
                      else self._max)
                lo = max(lo, self._min)
                hi = min(hi, self._max) if hi >= lo else lo
                frac = (rank - seen) / bucket_count
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            seen += bucket_count
        return self._max  # pragma: no cover - defensive

    def snapshot(self) -> Dict[str, float]:
        """count/mean/min/max/p50/p95/p99 as one dict (for reports).

        One lock acquisition: every field describes the same samples, so
        ``min <= p50 <= p95 <= p99 <= max`` holds under concurrent
        :meth:`observe` calls.
        """
        with self._lock:
            count = self._count
            return {
                "count": float(count),
                "mean": self._sum / count if count else 0.0,
                "min": self._min if count else 0.0,
                "max": self._max if count else 0.0,
                "p50": self._percentile(50.0),
                "p95": self._percentile(95.0),
                "p99": self._percentile(99.0),
            }


class MetricsRegistry:
    """Named counters and histograms behind one factory, render-ready."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()
        self._started = time.monotonic()

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name)
            return gauge

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """The histogram called ``name``, created on first use."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(
                    name, buckets if buckets is not None
                    else LATENCY_BUCKETS)
            return histogram

    @property
    def uptime_seconds(self) -> float:
        """Seconds since this registry was created."""
        return time.monotonic() - self._started

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot: every counter value and histogram summary.

        Values are plain ints/floats so ``json.dump`` works directly.
        """
        with self._lock:
            counters = sorted(self._counters.values(), key=lambda c: c.name)
            gauges = sorted(self._gauges.values(), key=lambda g: g.name)
            histograms = sorted(self._histograms.values(),
                                key=lambda h: h.name)
        return {
            "uptime_seconds": self.uptime_seconds,
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges},
            "histograms": {h.name: h.snapshot() for h in histograms},
        }

"""Timed execution of query workloads over any of the library's methods."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core import DirectionalQuery, QueryResult
from ..storage import SearchStats

#: A search callable: (query, stats) -> QueryResult.
SearchFn = Callable[[DirectionalQuery, Optional[SearchStats]], QueryResult]


@dataclass(frozen=True)
class RunMeasurement:
    """Aggregate outcome of running one method over one workload."""

    method: str
    num_queries: int
    total_seconds: float
    stats: SearchStats
    total_results: int

    @property
    def avg_ms(self) -> float:
        """Mean elapsed milliseconds per query — the paper's y-axis."""
        return 1000.0 * self.total_seconds / max(self.num_queries, 1)

    @property
    def avg_pois_examined(self) -> float:
        """Mean POIs touched per query — a hardware-independent proxy."""
        return self.stats.pois_examined / max(self.num_queries, 1)

    @property
    def avg_io(self) -> float:
        """Mean logical page reads per query (disk-backed methods only)."""
        return self.stats.io.logical_reads / max(self.num_queries, 1)


def run_workload(method: str, search_fn: SearchFn,
                 queries: Sequence[DirectionalQuery],
                 warmup: int = 2) -> RunMeasurement:
    """Run ``queries`` through ``search_fn`` and aggregate time and stats.

    A few warm-up queries are executed first (untimed) so interpreter and
    cache warm-up does not pollute the first data point, mirroring the
    paper's averaged measurements.
    """
    for query in queries[:warmup]:
        search_fn(query, None)
    stats = SearchStats()
    total_results = 0
    started = time.perf_counter()
    for query in queries:
        result = search_fn(query, stats)
        total_results += len(result)
    elapsed = time.perf_counter() - started
    return RunMeasurement(method, len(queries), elapsed, stats,
                          total_results)


def desks_search_fn(searcher, mode) -> SearchFn:
    """Adapter for :class:`~repro.core.DesksSearcher` at a pruning mode."""
    def fn(query, stats):
        return searcher.search_regions(query, mode, stats)
    return fn


def baseline_search_fn(index) -> SearchFn:
    """Adapter for any :class:`~repro.baselines.BaselineIndex`."""
    def fn(query, stats):
        return index.search(query, stats)
    return fn


def brute_force_fn(collection) -> SearchFn:
    """Adapter for the linear-scan oracle."""
    from ..core import brute_force_search

    def fn(query, stats):
        return brute_force_search(collection, query, stats)
    return fn


def check_agreement(measure_a: List[float], measure_b: List[float],
                    tolerance: float = 1e-9) -> bool:
    """Utility for benches that cross-check methods' result distances."""
    if len(measure_a) != len(measure_b):
        return False
    return all(abs(a - b) <= tolerance
               for a, b in zip(measure_a, measure_b))

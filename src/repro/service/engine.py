"""The concurrent query engine: answer cache + deadlines + metrics + a pool.

:class:`QueryEngine` is the serving layer's front door.  It wraps either a
static :class:`~repro.core.DesksIndex` (behind a queue of ``num_workers``
:class:`~repro.core.DesksSearcher`\\ s, which bounds concurrent index
scans) or a :class:`~repro.core.MutableDesksIndex` (which manages its own
searcher and mutation lock).  Each entry point has exactly one route:

* ``execute(query)`` — synchronous, runs on the calling thread; this is
  what the cluster's replica endpoints and a shard server's statement
  frames call;
* ``submit(query)`` — one task on the engine's thread pool, returns a
  :class:`concurrent.futures.Future` (a shard server's SEARCH frames);
* ``submit_batch(queries)`` — one future per query, with duplicate
  queries (same canonical key) collapsed onto a single execution and the
  unique ones spread over at most ``num_workers`` chunk tasks.

One :class:`~repro.core.AnswerCache`, keyed by the canonical key a request
computes once, serves the engine: its own over a static index, the current
snapshot's over a mutable one (whose :meth:`~repro.core.MutableDesksIndex.read`
merges what is pending).  ``cache_capacity`` bounds it either way.  Every
execution runs under a :class:`~repro.service.deadline.Deadline`, in
pruning mode ``RD`` (a mode changes effort, never answers), and records
counters and histograms into a :class:`~repro.service.metrics.MetricsRegistry`.

Pure-Python searches hold the GIL, so the pool does not speed up a single
CPU-bound query stream; what it buys is (a) overlap of many *clients'*
think time (a closed-loop load), (b) one hand-off per chunk of a batch,
and (c) the architecture seam where a C/GIL-releasing or multi-process
searcher drops in later.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..core import (
    AnswerCache,
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    MutableDesksIndex,
    PruningMode,
    QueryResult,
)
from ..kernel import ColumnarSearcher, ColumnarSnapshot
from ..storage import SearchStats
from ..trace import current_tracer, traced
from .deadline import Deadline
from .metrics import MetricsRegistry, PAGES_BUCKETS


@dataclass(frozen=True)
class ServiceResponse:
    """One served query: the answer plus how it was produced."""

    query: DirectionalQuery
    result: QueryResult
    cached: bool
    generation: int
    latency_seconds: float
    stats: Optional[SearchStats] = None

    @property
    def degraded(self) -> bool:
        # Kept only for benchmarks/e2e/harness.py's two reads (lines 649, 725).
        return False

    @property
    def partial(self) -> bool:
        """True when a deadline truncated the search (never for hits)."""
        return self.result.partial


class QueryEngine:
    """Concurrent, cached, deadline-aware execution of DESKS queries."""

    def __init__(self, index: Union[DesksIndex, MutableDesksIndex],
                 num_workers: int = 4,
                 cache_capacity: int = 1024,
                 kernel: str = "object") -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive: {num_workers}")
        if cache_capacity <= 0:
            raise ValueError(
                f"cache capacity must be positive: {cache_capacity}")
        if kernel not in ("object", "columnar"):
            raise ValueError(
                f"kernel must be 'object' or 'columnar': {kernel!r}")
        if kernel == "columnar" and isinstance(index, MutableDesksIndex):
            raise ValueError(
                "kernel='columnar' requires a static DesksIndex: the "
                "columnar snapshot is frozen at compile time and cannot "
                "follow mutations")
        self.index = index
        self.kernel = kernel
        self.metrics = MetricsRegistry()
        self.num_workers = num_workers
        self._mutable = isinstance(index, MutableDesksIndex)
        if self._mutable:
            # The snapshot's cache is the index's; this engine bounds it.
            index.cache.capacity = cache_capacity
            self._cache = None
            self._searchers = None
            self.snapshot: Optional[ColumnarSnapshot] = None
        else:
            # A searcher is cheap (two references), but pooling them keeps
            # per-worker state possible later (e.g. per-searcher buffers)
            # and bounds concurrent index scans to the pool size.  The
            # columnar kernel compiles ONE snapshot of the engine's index
            # (the arrays are read-only) and gives each worker its own
            # searcher over it, so the per-searcher plan caches are
            # uncontended.
            self.snapshot = (ColumnarSnapshot(index) if kernel == "columnar"
                             else None)
            pool: "queue.Queue" = queue.Queue()
            for _ in range(num_workers):
                if self.snapshot is not None:
                    pool.put(ColumnarSearcher(self.snapshot))
                else:
                    pool.put(DesksSearcher(index))
            self._searchers = pool
            self._cache = AnswerCache(cache_capacity)
        # Only submit() and submit_batch() use the pool; it spawns no
        # thread until the first of them is called.
        self._executor = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="desks-worker")
        # Serialises admission against close(): without it a submit that
        # passes the _closed check can race close() and die inside the
        # executor with a less actionable RuntimeError.
        self._lifecycle_lock = threading.Lock()
        self._closed = False

    @property
    def cache(self) -> AnswerCache:
        """The answer cache that serves this engine."""
        return self.index.cache if self._mutable else self._cache

    # -- generation ---------------------------------------------------------

    @property
    def generation(self) -> int:
        """The index's current data generation (0 forever when static)."""
        if self._mutable:
            return self.index.generation
        return 0

    # -- execution ----------------------------------------------------------

    def execute(self, query: DirectionalQuery,
                timeout: Optional[float] = None) -> ServiceResponse:
        """Serve one query on the calling thread (cache, then search).

        With a :class:`~repro.trace.Tracer` active in the calling context
        the request records an ``engine.execute`` span — cache hit/miss,
        pages read, deadline slack — with the search's own span tree
        beneath it.
        """
        tracer = current_tracer()
        if tracer is None:
            return self._execute_impl(query, timeout, None)
        with tracer.span("engine.execute") as span:
            return self._execute_impl(query, timeout, span)

    def _execute_impl(self, query: DirectionalQuery,
                      timeout: Optional[float],
                      span) -> ServiceResponse:
        """The untraced serve body (``execute`` wraps it in a span)."""
        started = time.monotonic()
        generation = self.generation
        if not self._mutable:
            key = query.cache_key
            cached = self._cache.get(key)
            if cached is not None:
                latency = time.monotonic() - started
                self._record(latency, cached=True, partial=False, pages=0)
                if span is not None:
                    span.annotate(cache_hit=True, generation=generation,
                                  results=len(cached))
                return ServiceResponse(query, cached, True, generation,
                                       latency)
        deadline = Deadline.from_timeout(timeout)
        stats = SearchStats()
        io_before = self._io_snapshot()
        result, hit = self._search(query, stats, deadline)
        pages = self._io_snapshot() - io_before
        if not self._mutable:
            self._cache.put(key, result)
        latency = time.monotonic() - started
        self._record(latency, cached=hit, partial=result.partial,
                     pages=pages)
        if span is not None:
            span.annotate(cache_hit=hit, generation=generation,
                          results=len(result), partial=result.partial,
                          pages_read=pages)
            if not deadline.is_unbounded:
                span.annotate(
                    deadline_slack_seconds=deadline.remaining())
        return ServiceResponse(query, result, hit, generation, latency,
                               None if hit else stats)

    def submit(self, query: DirectionalQuery,
               timeout: Optional[float] = None,
               ) -> "Future[ServiceResponse]":
        """Queue one query on the worker pool; returns its future.

        With a tracer active at submit time the worker-side execution runs
        under the *submitter's* trace context: an ``engine.worker`` span
        (annotated with ``queue_wait_seconds`` — time spent in the pool's
        queue) parents the usual ``engine.execute`` span even though the
        work runs on another thread.
        """
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            call = traced("engine.worker", self.execute,
                          record_queue_wait=True)
            return self._executor.submit(call, query, timeout)

    def submit_batch(self, queries: Sequence[DirectionalQuery],
                     timeout: Optional[float] = None,
                     ) -> List["Future[ServiceResponse]"]:
        """Queue many queries; duplicates share a single execution.

        The returned list is index-aligned with ``queries``; entries whose
        canonical key repeats an earlier entry receive the *same* future
        object, so a batch of 100 copies of one query costs one search.

        The unique queries are chunked into at most ``num_workers``
        contiguous groups and each group runs as ONE pool task instead of
        one task per query: the batch pays the executor hand-off once per
        chunk, and a chunk's searcher keeps its term-plan cache warm from
        one query of the batch to the next.  Under an active tracer each
        chunk is an ``engine.worker`` span (with ``queue_wait_seconds``)
        parenting one ``engine.execute`` span per query.
        """
        futures: List["Future[ServiceResponse]"] = []
        unique: Dict[Hashable,
                     Tuple[DirectionalQuery, "Future[ServiceResponse]"]] = {}
        for query in queries:
            key = query.cache_key
            pair = unique.get(key)
            if pair is None:
                pair = unique[key] = (query, Future())
            futures.append(pair[1])
        if not unique:
            return futures
        pairs = list(unique.values())
        chunk_count = min(self.num_workers, len(pairs))
        size, extra = divmod(len(pairs), chunk_count)
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            start = 0
            for i in range(chunk_count):
                end = start + size + (1 if i < extra else 0)
                # One wrapper per task: each carries its own copy of the
                # submitter's context, which only one thread may enter.
                call = traced("engine.worker", self._run_batch_chunk,
                              record_queue_wait=True)
                self._executor.submit(call, pairs[start:end], timeout)
                start = end
        # Counted once admitted: a batch a closed engine refuses moves
        # nothing.
        self.metrics.counter("batch_unique_total").increment(len(pairs))
        self.metrics.counter("batch_deduped_total").increment(
            len(queries) - len(pairs))
        return futures

    def _run_batch_chunk(
            self,
            chunk: List[Tuple[DirectionalQuery, "Future[ServiceResponse]"]],
            timeout: Optional[float]) -> None:
        """Serve one batch chunk sequentially, fulfilling each future."""
        for query, future in chunk:
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(self.execute(query, timeout))
            except BaseException as exc:  # desks: noqa-DAL011 - cause delivered via future.set_exception
                future.set_exception(exc)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Stop accepting work; waits for in-flight pool tasks."""
        with self._lifecycle_lock:
            self._closed = True
        # Shutdown happens outside the lock: with wait=True it blocks on
        # in-flight queries, and nothing they take may be held across that.
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _search(self, query: DirectionalQuery, stats: SearchStats,
                deadline: Deadline) -> Tuple[QueryResult, bool]:
        """The answer, and whether a mutable index's cache gave it alone."""
        if self._mutable:
            return self.index.read(query, PruningMode.RD, stats, deadline)
        searcher = self._searchers.get()
        try:
            return searcher.search(query, PruningMode.RD, stats,
                                   deadline=deadline), False
        finally:
            self._searchers.put(searcher)

    def _io_snapshot(self) -> int:
        """Logical page reads so far (approximate per-query attribution:
        concurrent queries' pages land in whichever delta is open)."""
        io_stats = getattr(self.index, "io_stats", None)
        return io_stats.logical_reads if io_stats is not None else 0

    def _record(self, latency: float, *, cached: bool, partial: bool,
                pages: int) -> None:
        metrics = self.metrics
        metrics.counter("queries_total").increment()
        metrics.counter("cache_hits_total" if cached
                        else "cache_misses_total").increment()
        if partial:
            metrics.counter("partial_results_total").increment()
        metrics.histogram("query_latency_seconds").observe(latency)
        if not cached:
            metrics.histogram("pages_per_query",
                              PAGES_BUCKETS).observe(float(pages))

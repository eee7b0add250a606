"""The benchmark's own span recorder and the proxies that feed it.

Spans are recorded from outside the program, around calls into its
public seams, so tracing needs no change under ``src/``:

* ``client.call`` -- the load generator, around one client request;
* ``cluster.router.execute`` -- :class:`TracedRouter`, a stand-in for
  the ``ShardRouter`` handed to ``ClusterFrontend(router)``;
* ``net.client.execute`` -- :class:`TracedTransport`, a stand-in for a
  shard's ``ShardTransport`` (``Shard.transport``).

A request's spans run on three different threads (client, front-door
worker, router pool), so the parent cannot ride a thread-local.  It is
recovered from the query value instead: concurrent clients send disjoint
queries, so while a request is in flight its ``canonical_key()`` names
exactly one ``client.call`` and one ``cluster.router.execute`` span.

Spans stay in memory (one tuple each) and are written out at exit.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

CLIENT_CALL = "client.call"
ROUTER_EXECUTE = "cluster.router.execute"
CLIENT_EXECUTE = "net.client.execute"


class Span(NamedTuple):
    """One timed interval; ``parent`` is a span id or ``None`` (root)."""

    span_id: int
    parent: Optional[int]
    request: int
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while ``enabled``; a disabled recorder costs a test."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        #: query key -> (span id, request id) of the innermost open span
        #: that a deeper layer should attach to.
        self._open: Dict[Tuple[str, Hashable], Tuple[int, int]] = {}

    def open(self, name: str, key: Hashable,
             parent: Optional[Tuple[str, Hashable]] = None,
             ) -> Tuple[int, Optional[int], int]:
        """Start span ``name`` for ``key`` under the open span ``parent``
        (a ``(name, key)`` pair, whose request id it inherits; a root
        span starts a new request); returns the ``(id, parent id,
        request)`` to hand back to :meth:`close`."""
        if parent is not None:
            parent_id, request = self._open[parent]
        else:
            parent_id, request = None, next(self._requests)
        span_id = next(self._ids)
        self._open[(name, key)] = (span_id, request)
        return span_id, parent_id, request

    def close(self, name: str, key: Hashable,
              opened: Tuple[int, Optional[int], int],
              start: float, end: float) -> None:
        """Finish the span :meth:`open` started."""
        span_id, parent_id, request = opened
        del self._open[(name, key)]
        self.spans.append(Span(span_id, parent_id, request, name, start, end))

    def root_call(self, function):
        """``function``, recording a ``client.call`` root span per call
        while enabled (the in-process workloads have no deeper seam)."""
        clock = time.perf_counter

        def call(*args):
            if not self.enabled:
                return function(*args)
            start = clock()
            try:
                return function(*args)
            finally:
                self.spans.append(Span(next(self._ids), None,
                                       next(self._requests), CLIENT_CALL,
                                       start, clock()))
        return call

    def dump(self, path: str) -> None:
        """Write every span as one JSON list (see README, "span file")."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span._asdict() for span in self.spans], handle)


class _Proxy:
    """Forward everything but the traced call to the wrapped object."""

    def __init__(self, inner, recorder: Recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TracedRouter(_Proxy):
    """``ShardRouter`` stand-in: spans ``execute`` and keeps routing counts."""

    def __init__(self, inner, recorder: Recorder) -> None:
        super().__init__(inner, recorder)
        self.queries = 0
        self.shards_dispatched = 0
        self.pruning_rate_sum = 0.0

    def execute(self, query, timeout=None):
        recorder = self._recorder
        if not recorder.enabled:
            return self._inner.execute(query, timeout)
        key = query.canonical_key()
        opened = recorder.open(ROUTER_EXECUTE, key,
                               parent=(CLIENT_CALL, key))
        start = time.perf_counter()
        try:
            response = self._inner.execute(query, timeout)
        finally:
            recorder.close(ROUTER_EXECUTE, key, opened, start,
                           time.perf_counter())
        self.queries += 1
        self.shards_dispatched += response.shards_dispatched
        self.pruning_rate_sum += response.pruning_rate
        return response


class TracedTransport(_Proxy):
    """``ShardTransport`` stand-in: spans each shard call, counts retries."""

    def __init__(self, inner, recorder: Recorder) -> None:
        super().__init__(inner, recorder)
        self.retries = 0

    def __len__(self) -> int:
        return len(self._inner)

    def execute(self, query, timeout=None):
        recorder = self._recorder
        if not recorder.enabled:
            return self._inner.execute(query, timeout)
        query_key = query.canonical_key()
        # Keyed by shard too: one query's shard calls run in parallel.
        key = (query_key, self._inner.shard_id)
        opened = recorder.open(CLIENT_EXECUTE, key,
                               parent=(ROUTER_EXECUTE, query_key))
        start = time.perf_counter()
        try:
            response, retries = self._inner.execute(query, timeout)
        finally:
            recorder.close(CLIENT_EXECUTE, key, opened, start,
                           time.perf_counter())
        self.retries += retries
        return response, retries


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.span_id: span.seconds - _covered(children[span.span_id])
            for span in spans}


def check_nesting(spans: List[Span]) -> List[str]:
    """Problems with the span tree: unknown parents, children that stick
    out of their parent, requests whose self times do not add up to the
    root span (parallel siblings count once, by the union they cover)."""
    by_id = {span.span_id: span for span in spans}
    problems: List[str] = []
    for span in spans:
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"span {span.span_id} ({span.name}): "
                            f"unknown parent {span.parent}")
        elif span.start < parent.start or span.end > parent.end:
            problems.append(f"span {span.span_id} ({span.name}) lies "
                            f"outside its parent {parent.name}")
        elif span.request != parent.request:
            problems.append(f"span {span.span_id} ({span.name}) has "
                            "another request id than its parent")
    own = self_times(spans)
    by_request: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_request[span.request].append(span)
    for request, members in by_request.items():
        roots = [s for s in members if s.parent is None]
        if len(roots) != 1:
            problems.append(f"request {request} has {len(roots)} roots")
            continue
        # Leaves that run in parallel are counted by what they cover of
        # their parent, so the sum is the root's wall time, not CPU time.
        leaves = [(s.start, s.end) for s in members
                  if s.name == CLIENT_EXECUTE]
        inner = sum(own[s.span_id] for s in members
                    if s.name != CLIENT_EXECUTE)
        total = inner + _covered(leaves)
        if abs(total - roots[0].seconds) > 1e-9:
            problems.append(
                f"request {request}: self times sum to {total:.9f}s, "
                f"client.call took {roots[0].seconds:.9f}s")
    return problems

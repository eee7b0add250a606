"""Context-local span trees: the substrate of per-query tracing.

A :class:`Span` is one named stage of a request with a wall-clock
duration, free-form numeric/string attributes, and children.  A
:class:`Tracer` collects the spans of one traced operation (usually one
query) into a tree.  Activation is *context-local* via
:mod:`contextvars`: instrumented code anywhere below the activation —
including code running on worker threads, when the callable was wrapped
with :func:`traced` — asks :func:`current_tracer` and attaches spans
under the caller's current span.

The module is dependency-free (stdlib only) and deliberately knows
nothing about the rest of the library; every layer from
:mod:`repro.storage` up to :mod:`repro.cluster` can import it without
cycles.

Cost model: when no tracer is active, an instrumented call site pays one
``ContextVar.get`` (tens of nanoseconds) and allocates nothing — the
overhead gate in ``benchmarks/test_trace_overhead.py`` holds the
serving layer to <= 2% QPS loss with tracing compiled in but disabled.
When a tracer *is* active, spans cost one small object each; tracing is
per-request opt-in, never ambient.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
)

_TRACER: "contextvars.ContextVar[Optional[Tracer]]" = contextvars.ContextVar(
    "repro_tracer", default=None)
_SPAN: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_span", default=None)


def current_tracer() -> Optional["Tracer"]:
    """The tracer active in this context, or ``None`` (tracing disabled).

    This is THE hot-path check: instrumented code calls it once per
    operation and takes the untraced fast path on ``None``.
    """
    return _TRACER.get()


def current_span() -> Optional["Span"]:
    """The innermost open span in this context, or ``None``."""
    return _SPAN.get()


class Span:
    """One named, timed stage of a traced operation.

    ``attrs`` hold whatever the instrumentation recorded (counters,
    decisions, identifiers); ``children`` are sub-stages.  Spans are
    created through a :class:`Tracer`, never directly.
    """

    __slots__ = ("name", "attrs", "children", "started", "ended")

    def __init__(self, name: str,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.started = time.perf_counter()
        self.ended = self.started

    # -- recording -----------------------------------------------------------

    def annotate(self, **attrs: Any) -> "Span":
        """Set (overwrite) attributes on this span; returns ``self``."""
        self.attrs.update(attrs)
        return self

    def add(self, key: str, amount: float = 1) -> None:
        """Accumulate a numeric attribute (missing counts start at 0)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount

    # -- introspection -------------------------------------------------------

    @property
    def seconds(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        return max(0.0, self.ended - self.started)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span named ``name`` in this subtree (depth-first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every span named ``name`` in this subtree, depth-first order."""
        return [span for span in self.walk() if span.name == name]

    def total(self, key: str) -> float:
        """Sum of a numeric attribute over this whole subtree.

        Non-numeric and missing values count as zero — handy for rolling
        up counters like ``pages_read`` from leaf spans.
        """
        acc = 0.0
        for span in self.walk():
            value = span.attrs.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            acc += value
        return acc

    # -- export --------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict: name, duration, attrs, children (recursive)."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        """Human-readable tree, one line per span."""
        pad = "  " * indent
        attrs = " ".join(f"{k}={_fmt(v)}" for k, v in self.attrs.items())
        line = f"{pad}{self.name} [{self.seconds * 1000.0:.3f} ms]"
        if attrs:
            line += f" {attrs}"
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Span({self.name!r}, {self.seconds * 1000.0:.3f}ms, "
                f"{len(self.children)} children)")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class Tracer:
    """Collects the span tree(s) of one traced operation.

    Typical use::

        tracer = Tracer()
        with tracer.activate():
            engine.execute(query)        # instrumented code records spans
        print(tracer.render())
        json_blob = tracer.to_json()

    ``sink`` (see :class:`repro.trace.TraceSink`) receives the finished
    tracer when ``activate()`` exits, feeding span aggregates into a
    :class:`~repro.service.MetricsRegistry`.

    Thread-safe: spans may be opened concurrently from many worker
    threads (see :func:`traced`); attachment is serialized on one lock.
    """

    def __init__(self, sink: Optional["SupportsObserve"] = None) -> None:
        self.roots: List[Span] = []
        self.sink = sink
        self.spans_started = 0
        self._lock = threading.Lock()

    # -- span lifecycle ------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span of the context's current span.

        The span becomes the context-local current span for the duration
        of the ``with`` block, so nested instrumented calls attach below
        it.
        """
        span = Span(name, attrs)
        parent = _SPAN.get()
        with self._lock:
            (parent.children if parent is not None
             else self.roots).append(span)
            self.spans_started += 1
        token = _SPAN.set(span)
        try:
            yield span
        finally:
            span.ended = time.perf_counter()
            _SPAN.reset(token)

    def record(self, name: str, seconds: float = 0.0,
               parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Attach a span under an explicit parent, outside any ``with``.

        Used when stages do not nest lexically — the searcher's bands
        interleave across sub-queries, so each ``desks.band`` names its
        ``desks.subquery`` as ``parent`` and has ``ended`` stamped once
        its scan returns — or when the code measured a stage itself and
        passes ``seconds``.  ``parent`` defaults to the context's current
        span, else a new root.
        """
        span = Span(name, attrs)
        span.ended = span.started + max(0.0, seconds)
        if parent is None:
            parent = _SPAN.get()
        with self._lock:
            (parent.children if parent is not None
             else self.roots).append(span)
            self.spans_started += 1
        return span

    # -- activation ----------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Make this tracer current for the context of the ``with`` block.

        On exit the sink (if any) observes the finished tracer.  Nesting
        a second tracer inside an active one shadows the outer tracer for
        the inner block.
        """
        token = _TRACER.set(self)
        try:
            yield self
        finally:
            _TRACER.reset(token)
            if self.sink is not None:
                self.sink.observe(self)

    # -- introspection / export ---------------------------------------------

    @property
    def root(self) -> Optional[Span]:
        """The first root span (the usual single-operation case)."""
        return self.roots[0] if self.roots else None

    def walk(self) -> Iterator[Span]:
        """Every span recorded, depth-first across all roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> Optional[Span]:
        """First span named ``name`` across all roots."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def find_all(self, name: str) -> List[Span]:
        """Every span named ``name`` across all roots."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict with every root span tree."""
        return {"spans": [root.to_dict() for root in self.roots]}

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The whole trace as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def render(self) -> str:
        """Human-readable tree of every root span."""
        return "\n".join(root.render() for root in self.roots)


class SupportsObserve:
    """Structural type for tracer sinks (``observe(tracer)``)."""

    def observe(self, tracer: Tracer) -> None:  # pragma: no cover
        """Consume one finished tracer."""
        raise NotImplementedError


def traced(name: str, fn: Callable, *,
           record_queue_wait: bool = False, **attrs: Any) -> Callable:
    """Wrap ``fn`` to run under the *caller's* trace context elsewhere.

    Thread pools run submitted callables in a fresh context, which would
    orphan their spans.  ``traced`` captures the submitting context (the
    active tracer and current span) and returns a wrapper that, invoked
    on any thread, opens a span named ``name`` under that captured parent
    and runs ``fn`` inside it.  With no active tracer it returns ``fn``
    unchanged — zero overhead on the untraced path.

    ``record_queue_wait=True`` annotates the span with
    ``queue_wait_seconds``: the gap between wrapping (enqueue) and
    execution start — the time the work sat in the pool's queue.
    """
    tracer = _TRACER.get()
    if tracer is None:
        return fn
    ctx = contextvars.copy_context()
    enqueued = time.perf_counter()

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        def call() -> Any:
            with tracer.span(name, **attrs) as span:
                if record_queue_wait:
                    span.annotate(
                        queue_wait_seconds=span.started - enqueued)
                return fn(*args, **kwargs)
        return ctx.run(call)

    return wrapper

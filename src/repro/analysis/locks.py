"""Runtime lock-order tracking: a deadlock detector for the threaded core.

Four subsystems take locks (buffer pool, result cache, metrics registry,
mutable index) and two more coordinate over them (engine, replica sets).
None of them may ever acquire those locks in conflicting orders — a cycle
in the "held A while acquiring B" graph is a latent deadlock that only
fires under the right interleaving, which tests rarely produce.

This module makes the order *observable*.  :func:`make_lock` is the one
lock factory the concurrent modules use:

* **Detection off** (the default): it returns a plain
  ``threading.Lock``/``RLock`` — the production object, zero wrapper,
  zero per-acquire cost.  This mirrors :mod:`repro.trace`'s
  disabled-path contract (and is even cheaper: the check happens once at
  lock *creation*, not per operation).
* **Detection on** (``DESKS_LOCK_TRACKING=1`` in the environment, or
  :func:`enable_lock_tracking` from tests): it returns a
  :class:`TrackedLock` that records, per thread, which named locks were
  held at every acquisition, building a directed *acquisition graph*.

:meth:`LockTracker.report` then answers the two questions that matter:
is the graph cycle-free (no lock inversions anywhere), and what stack
acquired each edge (so a violation points at code, not at a graph).

Locks are named by *role*, not by instance — every ``BufferPool`` lock is
``storage.buffer_pool`` — because deadlock discipline is a property of
code paths, not of objects: if *any* pool lock is taken while *any*
cache lock is held somewhere, the reverse order anywhere else is a bug.
"""

from __future__ import annotations

import os
import threading
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

try:
    from typing import Protocol
except ImportError:  # pragma: no cover - py < 3.8 fallback
    Protocol = object  # type: ignore[assignment]

ENV_FLAG = "DESKS_LOCK_TRACKING"


class LockLike(Protocol):
    """Structural type of what :func:`make_lock` returns.

    Both raw ``threading`` locks and :class:`TrackedLock` satisfy it, so
    instrumented modules type against the factory, not a concrete class.
    """

    def acquire(self, blocking: bool = ...,
                timeout: float = ...) -> bool: ...  # pragma: no cover

    def release(self) -> None: ...  # pragma: no cover

    def __enter__(self) -> bool: ...  # pragma: no cover

    def __exit__(self, *exc: object) -> object: ...  # pragma: no cover


@dataclass
class LockEdge:
    """One observed "held ``src`` while acquiring ``dst``" relation."""

    src: str
    dst: str
    count: int = 0
    threads: Set[int] = field(default_factory=set)
    #: Trimmed stack of the first acquisition that created the edge.
    stack: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form for reports."""
        return {"src": self.src, "dst": self.dst, "count": self.count,
                "threads": len(self.threads), "stack": list(self.stack)}


@dataclass
class LockOrderReport:
    """The verdict over one tracked run."""

    edges: List[LockEdge]
    cycles: List[List[str]]
    inversions: List[Tuple[str, str]]
    acquisitions: int

    @property
    def clean(self) -> bool:
        """True when the acquisition graph is cycle-free."""
        return not self.cycles and not self.inversions

    def render(self) -> str:
        """Human-readable report: edges, then any cycles with stacks."""
        lines = [f"lock acquisitions: {self.acquisitions}, "
                 f"distinct order edges: {len(self.edges)}"]
        for edge in sorted(self.edges, key=lambda e: (e.src, e.dst)):
            lines.append(f"  {edge.src} -> {edge.dst} "
                         f"(x{edge.count}, {len(edge.threads)} thread(s))")
        if self.clean:
            lines.append("no lock-order cycles detected")
            return "\n".join(lines)
        for pair in self.inversions:
            lines.append(f"INVERSION: {pair[0]} <-> {pair[1]}")
        for cycle in self.cycles:
            lines.append("CYCLE: " + " -> ".join(cycle + cycle[:1]))
        by_key = {(e.src, e.dst): e for e in self.edges}
        shown = set()
        for cycle in self.cycles:
            ring = cycle + cycle[:1]
            for src, dst in zip(ring, ring[1:]):
                edge = by_key.get((src, dst))
                if edge is None or (src, dst) in shown:
                    continue
                shown.add((src, dst))
                lines.append(f"  first `{src}` -> `{dst}` acquisition:")
                lines.extend(f"    {frame}" for frame in edge.stack)
        return "\n".join(lines)


class LockTracker:
    """Collects the per-thread acquisition graph from tracked locks.

    Thread-safe; its own synchronisation uses a raw ``threading.Lock``
    (tracking the tracker's lock would recurse).
    """

    def __init__(self, stack_depth: int = 6) -> None:
        self.stack_depth = stack_depth
        self._held = threading.local()
        self._edges: Dict[Tuple[str, str], LockEdge] = {}
        self._acquisitions = 0
        self._mutex = threading.Lock()

    # -- hooks called by TrackedLock -----------------------------------------

    def _stack(self) -> List[Tuple["TrackedLock", int]]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def on_acquire(self, lock: "TrackedLock") -> None:
        """Record that the current thread now holds ``lock``."""
        stack = self._stack()
        held_names = []
        for i, (held, depth) in enumerate(stack):
            if held is lock:
                # Reentrant re-acquire: deepen, no new edge (an RLock
                # nesting on itself is not an ordering event).
                stack[i] = (held, depth + 1)
                return
            held_names.append(held.name)
        thread_id = threading.get_ident()
        if held_names:
            frames = [
                f"{f.filename}:{f.lineno} in {f.name}: {f.line}"
                for f in traceback.extract_stack(limit=self.stack_depth + 2)
                [:-2]
            ]
            with self._mutex:
                self._acquisitions += 1
                for src in held_names:
                    if src == lock.name:
                        continue  # same role re-entered via another instance
                    key = (src, lock.name)
                    edge = self._edges.get(key)
                    if edge is None:
                        edge = self._edges[key] = LockEdge(
                            src, lock.name, stack=frames)
                    edge.count += 1
                    edge.threads.add(thread_id)
        else:
            with self._mutex:
                self._acquisitions += 1
        stack.append((lock, 1))

    def on_release(self, lock: "TrackedLock") -> None:
        """Record that the current thread released ``lock`` once."""
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            held, depth = stack[i]
            if held is lock:
                if depth > 1:
                    stack[i] = (held, depth - 1)
                else:
                    del stack[i]
                return
        # Release without a recorded acquire: either the lock was taken
        # before tracking was enabled or acquire/release crossed threads.
        # Neither is an ordering fact, so it is ignored rather than raised.

    def held_roles(self) -> Tuple[str, ...]:
        """Roles of the locks the *current thread* holds right now.

        The write sanitizer (:mod:`repro.analysis.shared`) calls this on
        every tracked attribute mutation: an empty tuple there means a
        shared object was written with no ``make_lock`` role held.
        """
        return tuple(lock.name for lock, _ in self._stack())

    # -- analysis ------------------------------------------------------------

    def edges(self) -> List[LockEdge]:
        """A snapshot of the acquisition graph's edges."""
        with self._mutex:
            return [LockEdge(e.src, e.dst, e.count, set(e.threads),
                             list(e.stack))
                    for e in self._edges.values()]

    def report(self) -> LockOrderReport:
        """Cycle/inversion analysis over everything observed so far."""
        edges = self.edges()
        graph: Dict[str, Set[str]] = {}
        for edge in edges:
            graph.setdefault(edge.src, set()).add(edge.dst)
            graph.setdefault(edge.dst, set())
        inversions = sorted(
            (a, b) for a in graph for b in graph[a]
            if a < b and a in graph.get(b, set()))
        cycles = _find_cycles(graph)
        with self._mutex:
            acquisitions = self._acquisitions
        return LockOrderReport(edges, cycles, inversions, acquisitions)


def _find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Elementary cycles via DFS; each reported once, rotated canonical."""
    cycles: Set[Tuple[str, ...]] = set()
    for start in graph:
        path: List[str] = []
        on_path: Set[str] = set()

        def dfs(node: str) -> None:
            path.append(node)
            on_path.add(node)
            for succ in sorted(graph.get(node, ())):
                if succ == start:
                    cycles.add(_canonical(path))
                elif succ not in on_path and succ > start:
                    # Only walk nodes > start: every cycle is found from
                    # its smallest member exactly once.
                    dfs(succ)
            path.pop()
            on_path.discard(node)

        dfs(start)
    return sorted(list(c) for c in cycles)


def _canonical(path: List[str]) -> Tuple[str, ...]:
    smallest = min(range(len(path)), key=lambda i: path[i])
    return tuple(path[smallest:] + path[:smallest])


class TrackedLock:
    """Drop-in ``Lock``/``RLock`` that reports acquisitions to a tracker.

    Supports the full lock protocol (``acquire``/``release``, context
    manager, ``blocking``/``timeout``), so instrumented modules behave
    identically with tracking on — just slower, which is why production
    runs get raw locks from :func:`make_lock` instead.
    """

    __slots__ = ("name", "_inner", "_tracker")

    def __init__(self, name: str, tracker: LockTracker,
                 reentrant: bool = False) -> None:
        self.name = name
        self._inner = (threading.RLock() if reentrant
                       else threading.Lock())
        self._tracker = tracker

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying lock; records the ordering on success."""
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._tracker.on_acquire(self)
        return acquired

    def release(self) -> None:
        """Release the underlying lock (tracker first: still held here)."""
        self._tracker.on_release(self)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrackedLock({self.name!r})"


# -- global switch -------------------------------------------------------------

_tracker: Optional[LockTracker] = None


def lock_tracking_enabled() -> bool:
    """True when :func:`make_lock` currently returns tracked locks."""
    return _tracker is not None


def get_lock_tracker() -> Optional[LockTracker]:
    """The active tracker, or ``None`` when tracking is off."""
    return _tracker


def enable_lock_tracking(
        tracker: Optional[LockTracker] = None) -> LockTracker:
    """Switch :func:`make_lock` to tracked locks; returns the tracker.

    Affects locks created *after* the call — enable tracking before
    constructing the engines/pools under test.  Idempotent when already
    enabled (keeps the existing tracker unless a new one is passed).
    """
    global _tracker
    if tracker is not None:
        _tracker = tracker
    elif _tracker is None:
        _tracker = LockTracker()
    return _tracker


def disable_lock_tracking() -> None:
    """Back to raw locks for subsequently created locks."""
    global _tracker
    _tracker = None


def make_lock(name: str, *, reentrant: bool = False) -> LockLike:
    """The project lock factory: raw lock normally, tracked under the flag.

    ``name`` is the lock's *role* (e.g. ``"storage.buffer_pool"``); see
    the module docstring for why roles, not instances, are the graph
    nodes.  ``reentrant=True`` yields an RLock either way.
    """
    if _tracker is None:
        return threading.RLock() if reentrant else threading.Lock()
    return TrackedLock(name, _tracker, reentrant=reentrant)


if os.environ.get(ENV_FLAG, "").strip() not in ("", "0", "false"):
    enable_lock_tracking()

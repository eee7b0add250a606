"""Typed logical plans for DQL statements.

A plan is a frozen dataclass describing *what* to run, independent of
*where* it runs (that binding is :mod:`repro.lang.executor`'s job).
Three statement forms, three plan types:

* :class:`SelectPlan` — one direction-aware top-k search (the paper's
  ``q = <(x, y); [alpha, beta]; K; k>`` plus the library's extensions:
  match mode, pruning mode, a radius cap, a deadline);
* :class:`ExplainPlan` — a wrapped :class:`SelectPlan` to be explained
  rather than answered;
* :class:`ShowPlan` — the ``SHOW METRICS`` / ``SHOW SHARDS`` escape
  hatch into the bound backend's operational state.

Validation happens at construction: keywords are canonicalized through
:mod:`repro.text` (the exact normalization POI descriptions get, so a
query keyword can never miss its indexed form), and direction bounds
are validated by building a :class:`~repro.geometry.DirectionInterval`
— the one sanctioned angle-normalization path (lint rule DAL001).

The direction bounds are *stored* exactly as written, not normalized in
place: ``render()`` emits fields via ``repr`` so ``parse(render(plan))``
reproduces every float bit-for-bit, and re-normalizing ``lower + (upper
- lower)`` is not a float identity (it can move ``upper`` by an ulp and
break that round-trip).  Normalization still governs *execution* — the
derived :meth:`SelectPlan.interval` and :meth:`SelectPlan.query` go
through :mod:`repro.geometry` — so two spellings of the same sector
build equal :class:`~repro.core.DirectionalQuery` objects even when
their plans render differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Tuple, Union

from ..core import DirectionalQuery, MatchMode, PruningMode
from ..geometry import DirectionInterval, Point, interval_from_optional
from ..text import keyword_set


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def canonical_keywords(text_or_keywords: Union[str, Iterable[str]],
                       ) -> Tuple[str, ...]:
    """Canonicalize keywords exactly as POI descriptions are tokenized.

    Accepts a raw description string (``"Sushi & Cafe"``) or an iterable
    of keywords; returns the sorted, deduplicated, lower-cased keyword
    tuple.  Raises ``ValueError`` when nothing usable survives (all
    stop-words, punctuation, or non-ASCII text).
    """
    if isinstance(text_or_keywords, str):
        text = text_or_keywords
    else:
        text = " ".join(str(k) for k in text_or_keywords)
    keywords = keyword_set(text)
    if not keywords:
        raise ValueError(
            f"no usable keywords in {text!r} (keywords are lower-case "
            "ASCII words; stop-words and punctuation are dropped)")
    return tuple(sorted(keywords))


@dataclass(frozen=True)
class SelectPlan:
    """The logical plan of one ``SELECT`` statement."""

    k: int
    x: float
    y: float
    keywords: Tuple[str, ...]
    #: Direction bounds in radians, exactly as written; ``None`` means
    #: no ``HEADING`` clause (full circle).
    alpha: Optional[float] = None
    beta: Optional[float] = None
    match_mode: MatchMode = MatchMode.ALL
    #: Keep only answers within this distance of the query location.
    within: Optional[float] = None
    #: Cooperative deadline for the bound backend, in milliseconds.
    timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if int(self.k) != self.k or self.k <= 0:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "x", _require_finite("x", self.x))
        object.__setattr__(self, "y", _require_finite("y", self.y))
        if (self.alpha is None) != (self.beta is None):
            raise ValueError("HEADING needs both alpha and beta bounds")
        if self.alpha is not None and self.beta is not None:
            alpha = _require_finite("alpha", self.alpha)
            beta = _require_finite("beta", self.beta)
            DirectionInterval(alpha, beta)  # validates ordering and width
            object.__setattr__(self, "alpha", alpha)
            object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "keywords",
                           canonical_keywords(self.keywords))
        if not isinstance(self.match_mode, MatchMode):
            raise ValueError(f"bad match mode {self.match_mode!r}")
        if self.within is not None:
            within = _require_finite("WITHIN radius", self.within)
            if within <= 0.0:
                raise ValueError(
                    f"WITHIN radius must be positive, got {within!r}")
            object.__setattr__(self, "within", within)
        if self.timeout_ms is not None:
            timeout = _require_finite("TIMEOUT", self.timeout_ms)
            if timeout <= 0.0:
                raise ValueError(
                    f"TIMEOUT must be positive milliseconds, got {timeout!r}")
            object.__setattr__(self, "timeout_ms", timeout)

    # -- derived, normalized forms ------------------------------------------

    def interval(self) -> DirectionInterval:
        """The normalized direction interval (full circle when unset)."""
        return interval_from_optional(self.alpha, self.beta)

    def query(self) -> DirectionalQuery:
        """The executable :class:`~repro.core.DirectionalQuery`.

        Memoized: the plan is frozen, so the derived query is built once
        and shared — on the hot statement path (the executor's plan
        cache) this turns per-request query construction into one
        attribute read.
        """
        memo = self.__dict__.get("_query")
        if memo is None:
            memo = DirectionalQuery(Point(self.x, self.y), self.interval(),
                                    frozenset(self.keywords), self.k,
                                    self.match_mode)
            object.__setattr__(self, "_query", memo)
        return memo

    def timeout_seconds(self) -> Optional[float]:
        """The ``TIMEOUT`` clause in seconds (``None`` when absent)."""
        if self.timeout_ms is None:
            return None
        return self.timeout_ms / 1000.0

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """The canonical statement text; ``parse(render(p)) == p``.

        Fields render via ``repr`` (floats round-trip exactly) and
        default clauses are omitted, so rendering is deterministic: one
        plan, one spelling.  Memoized like :meth:`query` — every
        executed statement's envelope echoes the canonical text, so the
        hot path must not re-format floats per request.
        """
        memo = self.__dict__.get("_render")
        if memo is not None:
            return memo
        parts = [f"SELECT {self.k} NEAR ({self.x!r}, {self.y!r})"]
        if self.alpha is not None:
            parts.append(f"HEADING [{self.alpha!r}, {self.beta!r}]")
        parts.append(f"MATCHING '{' '.join(self.keywords)}'")
        if self.match_mode is not MatchMode.ALL:
            parts.append(f"MATCH {self.match_mode.name}")
        if self.within is not None:
            parts.append(f"WITHIN {self.within!r}")
        if self.timeout_ms is not None:
            parts.append(f"TIMEOUT {self.timeout_ms!r}")
        rendered = " ".join(parts)
        object.__setattr__(self, "_render", rendered)
        return rendered

    def describe(self) -> List[str]:
        """The logical plan tree as indented text lines."""
        interval = self.interval()
        if interval.is_full:
            heading = "full circle"
        else:
            heading = (f"[{interval.lower:.6f}, {interval.upper:.6f}] rad "
                       f"(width {interval.width:.6f})")
        lines = [
            f"select k={self.k} match={self.match_mode.value}",
            f"  location: ({self.x!r}, {self.y!r})",
            f"  heading: {heading}",
            f"  keywords: {' '.join(self.keywords)}",
        ]
        if self.within is not None:
            lines.append(f"  within: {self.within!r}")
        if self.timeout_ms is not None:
            lines.append(f"  timeout: {self.timeout_ms!r} ms")
        for quadrant, piece in self.query().basic_subqueries():
            lines.append(f"  subquery quadrant={quadrant} "
                         f"interval=[{piece.lower:.6f}, {piece.upper:.6f}]")
        return lines


@dataclass(frozen=True)
class ExplainPlan:
    """``EXPLAIN <select>``: explain the wrapped plan, don't answer it.

    ``mode`` is the pruning mode the explained search runs under: it
    changes effort, never answers, so only ``EXPLAIN`` takes a ``MODE``.
    """

    target: SelectPlan
    mode: PruningMode = PruningMode.RD

    def __post_init__(self) -> None:
        if not isinstance(self.target, SelectPlan):
            raise ValueError("EXPLAIN wraps a SELECT statement")
        if not isinstance(self.mode, PruningMode):
            raise ValueError(f"bad pruning mode {self.mode!r}")

    def render(self) -> str:
        """Canonical statement text."""
        if self.mode is PruningMode.RD:
            return f"EXPLAIN {self.target.render()}"
        return f"EXPLAIN {self.target.render()} MODE {self.mode.name}"


#: Legal ``SHOW`` targets.
SHOW_TARGETS = ("METRICS", "SHARDS")


@dataclass(frozen=True)
class ShowPlan:
    """``SHOW METRICS`` / ``SHOW SHARDS``: operational state escape hatch."""

    target: str = field(default="METRICS")

    def __post_init__(self) -> None:
        target = str(self.target).upper()
        if target not in SHOW_TARGETS:
            raise ValueError(
                f"SHOW target must be one of {', '.join(SHOW_TARGETS)}; "
                f"got {self.target!r}")
        object.__setattr__(self, "target", target)

    def render(self) -> str:
        """Canonical statement text."""
        return f"SHOW {self.target}"


#: Any parsed DQL statement.
Plan = Union[SelectPlan, ExplainPlan, ShowPlan]


def plan_from_query(query: DirectionalQuery) -> SelectPlan:
    """Lift an existing :class:`~repro.core.DirectionalQuery` into a plan.

    The inverse direction of :meth:`SelectPlan.query`: benchmarks and the
    equivalence suite use it to run an API-built workload through the
    language layer verbatim.
    """
    if query.interval.is_full:
        alpha = beta = None
    else:
        alpha, beta = query.interval.lower, query.interval.upper
    return SelectPlan(
        k=query.k, x=query.location.x, y=query.location.y,
        keywords=tuple(sorted(query.keywords)),
        alpha=alpha, beta=beta, match_mode=query.match_mode)

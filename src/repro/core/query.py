"""The direction-aware spatial keyword query type.

The paper's query is ``q = <(q.x, q.y); [alpha, beta]; K; k>``: a location,
a direction interval, a conjunctive keyword set, and a result cardinality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import FrozenSet, Iterable, List, Tuple

from ..geometry import TWO_PI, DirectionInterval, Point

#: Decimal places kept when canonicalizing angles.  Directions come out of
#: ``atan2`` with a few ULPs of noise; ten decimals (~1e-10 rad) is far below
#: any meaningful angular width yet collapses that noise so that two
#: mathematically equal intervals produce one cache key.
_ANGLE_DECIMALS = 10


class MatchMode(Enum):
    """Keyword semantics of a query.

    The paper's queries are conjunctive (``ALL``: a POI must contain every
    keyword).  ``ANY`` — a POI matching at least one keyword — is a
    library extension; everything (index, baselines, oracle) supports both.
    """

    ALL = "all"
    ANY = "any"


@dataclass(frozen=True)
class DirectionalQuery:
    """A direction-aware spatial keyword query."""

    location: Point
    interval: DirectionInterval
    keywords: FrozenSet[str]
    k: int = 10
    match_mode: MatchMode = MatchMode.ALL

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if not self.keywords:
            raise ValueError("a query needs at least one keyword")

    @classmethod
    def make(cls, x: float, y: float, alpha: float, beta: float,
             keywords: Iterable[str], k: int = 10,
             match_mode: MatchMode = MatchMode.ALL) -> "DirectionalQuery":
        """Convenience constructor from raw values."""
        return cls(Point(x, y), DirectionInterval(alpha, beta),
                   frozenset(keywords), k, match_mode)

    @classmethod
    def undirected(cls, x: float, y: float, keywords: Iterable[str],
                   k: int = 10,
                   match_mode: MatchMode = MatchMode.ALL,
                   ) -> "DirectionalQuery":
        """A query with no direction constraint (full circle)."""
        return cls(Point(x, y), DirectionInterval.full(),
                   frozenset(keywords), k, match_mode)

    def with_interval(self, interval: DirectionInterval,
                      ) -> "DirectionalQuery":
        """Same query, different direction interval (incremental updates)."""
        return DirectionalQuery(self.location, interval, self.keywords,
                                self.k, self.match_mode)

    def keywords_match(self, poi_keywords: FrozenSet[str]) -> bool:
        """Keyword predicate under this query's match mode."""
        if self.match_mode is MatchMode.ALL:
            return self.keywords <= poi_keywords
        return not self.keywords.isdisjoint(poi_keywords)

    def basic_subqueries(self) -> List[Tuple[int, DirectionInterval]]:
        """Quadrant decomposition of the interval (paper Sec. IV-B).

        Returns ``(quadrant, piece)`` pairs; each piece is a *basic* query
        answered against the anchor corner of that quadrant.
        """
        return self.interval.decompose_quadrants()

    def accepts_direction(self, theta: float) -> bool:
        """True when a POI at direction ``theta`` satisfies the constraint."""
        return self.interval.contains(theta)

    def matches(self, location: Point, keywords: FrozenSet[str]) -> bool:
        """Full predicate check for one POI (used in verification/oracles)."""
        if not self.keywords_match(keywords):
            return False
        if location.coincides(self.location):
            return True
        return self.accepts_direction(self.location.direction_to(location))

    def canonical_key(self) -> Tuple:
        """A stable, hashable identity for answer caching and batch dedupe.

        Two queries with the same answer set map to the same key even when
        they were built differently: keywords become a sorted tuple, the
        interval is normalized to a ``(lower in [0, 2*pi), width)`` pair
        rounded to collapse float noise, and every full-circle interval
        collapses to the same representation regardless of where its bounds
        sit.  The location is keyed on its exact coordinates.
        """
        loc = (self.location.x, self.location.y)
        if self.interval.is_full:
            arc = (0.0, round(TWO_PI, _ANGLE_DECIMALS))
        else:
            arc = (round(self.interval.lower, _ANGLE_DECIMALS),
                   round(self.interval.width, _ANGLE_DECIMALS))
        return (loc, arc, tuple(sorted(self.keywords)), self.k,
                self.match_mode.value)

    @property
    def cache_key(self) -> Tuple:
        """:meth:`canonical_key`, memoized on the frozen query."""
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = self.canonical_key()
            object.__setattr__(self, "_cache_key", key)
        return key


@dataclass(frozen=True)
class ResultEntry:
    """One answer POI with its distance to the query."""

    poi_id: int
    distance: float

    def __lt__(self, other: "ResultEntry") -> bool:
        return (self.distance, self.poi_id) < (other.distance, other.poi_id)


@dataclass
class QueryResult:
    """The answer list plus the search-effort counters that produced it.

    ``partial`` is set when a deadline expired mid-search: the entries are
    all genuine answers (every one was verified against the query
    predicate), but they are only the best found *so far* — POIs nearer
    than ``kth_distance`` may exist in regions the search never reached.
    """

    entries: List[ResultEntry] = field(default_factory=list)
    partial: bool = False

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def poi_ids(self) -> List[int]:
        """Answer POI ids, nearest first."""
        return [e.poi_id for e in self.entries]

    def distances(self) -> List[float]:
        """Answer distances, non-decreasing."""
        return [e.distance for e in self.entries]

    @property
    def kth_distance(self) -> float:
        """Distance of the farthest returned answer (``inf`` when empty)."""
        return self.entries[-1].distance if self.entries else float("inf")

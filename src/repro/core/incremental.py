"""Incremental re-querying when the user changes direction (paper Sec. V).

Mobile users sweep or widen their search direction; answering each new
query from scratch wastes the work of the previous one.  The paper caches
the previous query's k answers and supports two updates:

* **increase** — the interval widens to ``[alpha' <= alpha, beta' >= beta]``
  (two-finger spread).  Every old answer remains an answer, and the old
  ``d_k`` upper-bounds the new one, so only the two new wedges
  ``[alpha', alpha]`` and ``[beta, beta']`` need searching, seeded with the
  cached answers.
* **move** — the interval rotates by ``delta`` (compass turn).  Cached
  answers inside the overlap are kept; the newly swept wedge is searched;
  if that already yields k answers within the old ``d_k`` the overlap needs
  no re-examination, otherwise the query is answered from scratch (the
  paper's fallback for large rotations).

Every search here is :meth:`DesksSearcher.search_regions`: a seeded ``d_k``
saves work only where the search prunes by it, and the posting walk of
:meth:`DesksSearcher.search` prunes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..geometry import (ANGLE_EPS, TWO_PI, DirectionInterval,
                        normalize_angle)
from ..storage import SearchStats
from .query import DirectionalQuery, QueryResult, ResultEntry
from .search import DesksSearcher, PruningMode


@dataclass
class CachedAnswer:
    """The previous query and its verified top-k answers."""

    query: DirectionalQuery
    entries: List[ResultEntry]

    @property
    def kth_distance(self) -> float:
        return self.entries[-1].distance if self.entries else float("inf")

    @property
    def is_complete(self) -> bool:
        """True when the cache holds a full k answers.

        A cache with fewer than k answers means the old region is exhausted;
        the incremental shortcuts below assume ``d_k`` is meaningful, so an
        incomplete cache forces a fresh search.
        """
        return len(self.entries) >= self.query.k


class IncrementalSearcher:
    """A DESKS searcher that reuses the previous answer across updates."""

    def __init__(self, searcher: DesksSearcher,
                 mode: PruningMode = PruningMode.RD) -> None:
        self.searcher = searcher
        self.mode = mode
        self._cache: Optional[CachedAnswer] = None

    # -- base query ------------------------------------------------------------

    def initial_search(self, query: DirectionalQuery,
                       stats: Optional[SearchStats] = None) -> QueryResult:
        """Answer ``query`` from scratch and prime the cache."""
        result = self.searcher.search_regions(query, self.mode, stats)
        self._cache = CachedAnswer(query, list(result.entries))
        return result

    @property
    def cached(self) -> Optional[CachedAnswer]:
        return self._cache

    # -- Sec. V-A: increasing the direction ---------------------------------------

    def increase_direction(self, new_interval: DirectionInterval,
                           stats: Optional[SearchStats] = None,
                           ) -> QueryResult:
        """Re-answer with a widened interval, reusing cached answers."""
        cache = self._require_cache()
        old = cache.query.interval
        grow_lower, grow_upper = _widening_of(old, new_interval)
        if grow_lower is None:
            raise ValueError(
                f"{new_interval} does not contain the cached interval {old}")
        new_query = cache.query.with_interval(new_interval)
        if not cache.is_complete or new_interval.is_full and old.is_full:
            return self.initial_search(new_query, stats)

        entries = list(cache.entries)
        for wedge in _wedges(old, grow_lower, grow_upper):
            wedge_query = new_query.with_interval(wedge)
            partial = self.searcher.search_regions(
                wedge_query, self.mode, stats, seed_entries=entries)
            entries = list(partial.entries)
        result = QueryResult(entries)
        self._cache = CachedAnswer(new_query, list(entries))
        return result

    # -- Sec. V-B: moving the direction ------------------------------------------

    def move_direction(self, delta: float,
                       stats: Optional[SearchStats] = None) -> QueryResult:
        """Re-answer with the interval rotated by ``delta`` radians."""
        cache = self._require_cache()
        old = cache.query.interval
        new_interval = old.rotate(delta)
        new_query = cache.query.with_interval(new_interval)
        width = old.width
        if (abs(delta) >= width - ANGLE_EPS or not cache.is_complete
                or old.is_full):
            # No usable overlap (or no usable bound): from scratch.
            return self.initial_search(new_query, stats)

        location = cache.query.location
        retained = [
            e for e in cache.entries
            if self._entry_in_interval(e, location, new_interval)]
        # The newly swept wedge: [beta, beta+delta] when rotating CCW,
        # [alpha+delta, alpha] when rotating CW.
        if delta >= 0.0:
            wedge = DirectionInterval(old.upper, old.upper + delta)
        else:
            wedge = DirectionInterval(old.lower + delta, old.lower)
        wedge_result = self.searcher.search_regions(
            new_query.with_interval(wedge), self.mode, stats,
            seed_entries=retained)
        merged = list(wedge_result.entries)
        d_k_old = cache.kth_distance
        complete = (len(merged) >= new_query.k
                    and merged[-1].distance <= d_k_old + ANGLE_EPS)
        if complete:
            # Everything in the overlap nearer than d_k_old was cached, and
            # the merged top-k sits within d_k_old: nothing was missed.
            result = QueryResult(merged)
        else:
            # POIs in the overlap at distance >= d_k_old were never seen by
            # the old query; re-examine the overlap (paper Sec. V-B).  The
            # wedge is already fully answered inside ``merged``, so only
            # the overlap interval needs searching, seeded with ``merged``
            # for a tight d_k from the start.
            if delta >= 0.0:
                overlap = DirectionInterval(old.lower + delta, old.upper)
            else:
                overlap = DirectionInterval(old.lower, old.upper + delta)
            overlap_result = self.searcher.search_regions(
                new_query.with_interval(overlap), self.mode, stats,
                seed_entries=merged)
            result = QueryResult(list(overlap_result.entries))
        self._cache = CachedAnswer(new_query, list(result.entries))
        return result

    # -- extension: moving the *location* ------------------------------------------
    #
    # The paper's footnote excludes moving queries (changing locations);
    # we add the natural extension: cached answers are re-scored from the
    # new location and seed the collector, so a short hop starts with a
    # nearly-tight d_k instead of infinity.  Exactness is unconditional —
    # seeding only prunes, never skips.

    def move_location(self, new_x: float, new_y: float,
                      stats: Optional[SearchStats] = None) -> QueryResult:
        """Re-answer after the user moved, reusing cached answers as seeds."""
        from ..geometry import Point

        cache = self._require_cache()
        new_location = Point(new_x, new_y)
        new_query = DirectionalQuery(new_location, cache.query.interval,
                                     cache.query.keywords, cache.query.k)
        collection = self.searcher.index.collection
        seeds = []
        for entry in cache.entries:
            poi = collection[entry.poi_id]
            if new_query.matches(poi.location, poi.keywords):
                seeds.append(ResultEntry(
                    entry.poi_id, new_location.distance_to(poi.location)))
        result = self.searcher.search_regions(new_query, self.mode, stats,
                                      seed_entries=seeds)
        self._cache = CachedAnswer(new_query, list(result.entries))
        return result

    # -- internals ---------------------------------------------------------------

    def _require_cache(self) -> CachedAnswer:
        if self._cache is None:
            raise RuntimeError(
                "no cached query; call initial_search() first")
        return self._cache

    def _entry_in_interval(self, entry: ResultEntry, location,
                           interval: DirectionInterval) -> bool:
        poi_location = self.searcher.index.collection.location(entry.poi_id)
        if poi_location.coincides(location):
            return True
        return interval.contains(location.direction_to(poi_location))


def _widening_of(old: DirectionInterval, new: DirectionInterval):
    """How far ``new`` extends ``old`` on each side; ``(None, None)`` if it
    is not a widening."""
    if new.is_full:
        # Any interval widens to full; split the growth evenly.
        grow = TWO_PI - old.width
        return (grow / 2.0, grow / 2.0)
    grow_lower = normalize_angle(old.lower - new.lower)
    if grow_lower > TWO_PI - ANGLE_EPS:
        grow_lower = 0.0
    grow_upper = new.width - old.width - grow_lower
    if grow_upper < -ANGLE_EPS:
        return (None, None)
    return (grow_lower, max(grow_upper, 0.0))


def _wedges(old: DirectionInterval, grow_lower: float,
            grow_upper: float) -> List[DirectionInterval]:
    """The new angular wedges created by widening ``old``."""
    wedges = []
    if grow_lower > ANGLE_EPS:
        wedges.append(DirectionInterval(old.lower - grow_lower, old.lower))
    if grow_upper > ANGLE_EPS:
        wedges.append(DirectionInterval(old.upper, old.upper + grow_upper))
    return wedges

"""LRU result cache with generation-based invalidation.

Keys are :meth:`repro.core.DirectionalQuery.canonical_key` values, so two
queries that differ only in representation (keyword order, an interval
written ``[0, 2*pi)`` vs ``[θ, θ+2*pi)``, float noise in the bounds) share
one entry.  The key holds the exact query location, so the cache is
answer-preserving: a hit is the answer a search would have produced.

**Invalidation contract.**  Every entry is tagged with the data
*generation* it was computed under (see
:attr:`repro.core.MutableDesksIndex.generation`).  A lookup passes the
current generation; any entry with an older tag is treated as a miss and
dropped on sight.  The engine additionally subscribes to the index's
mutation callbacks to purge eagerly, but correctness never depends on the
callback being delivered: the lookup-time generation check alone makes
serving a stale answer impossible.

Partial (deadline-truncated) results are never admitted — a later request
with a healthier budget must not inherit a degraded answer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from ..core import DirectionalQuery, QueryResult


@dataclass
class CacheStats:
    """Counters describing cache effectiveness (snapshot-copied on read)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups, hit or miss."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 when nothing was looked up yet."""
        total = self.lookups
        return self.hits / total if total else 0.0


class ResultCache:
    """Thread-safe LRU cache of :class:`QueryResult`\\ s.

    ``capacity`` bounds the number of resident entries.  All operations
    are O(1) and serialised by one lock.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        # canonical key -> (generation, result); recency order, MRU last.
        self._entries: "OrderedDict[Hashable, Tuple[int, QueryResult]]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()

    # -- keying -------------------------------------------------------------

    def key_for(self, query: DirectionalQuery) -> Hashable:
        """The cache key this cache derives from ``query``."""
        return query.canonical_key()

    # -- lookup / admission -------------------------------------------------

    def get(self, query: DirectionalQuery,
            generation: int = 0) -> Optional[QueryResult]:
        """The cached result for ``query`` at ``generation``, else None.

        An entry computed under an older generation is *never* returned;
        it is dropped and counted as an invalidation plus a miss.
        """
        key = self.key_for(query)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.misses += 1
                return None
            cached_generation, result = entry
            if cached_generation != generation:
                del self._entries[key]
                self._stats.invalidations += 1
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return result

    def put(self, query: DirectionalQuery, result: QueryResult,
            generation: int = 0) -> bool:
        """Admit ``result`` (computed under ``generation``); LRU-evicts.

        Returns False without caching when the result is partial, or when
        an entry computed under a *newer* generation already sits at the
        key (late writer after an update raced past this one).
        """
        if result.partial:
            return False
        key = self.key_for(query)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing[0] > generation:
                return False
            while len(self._entries) >= self.capacity and key not in \
                    self._entries:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
            self._entries[key] = (generation, result)
            self._entries.move_to_end(key)
            self._stats.insertions += 1
            return True

    # -- invalidation -------------------------------------------------------

    def invalidate_older_than(self, generation: int) -> int:
        """Drop every entry computed before ``generation``; returns count.

        Wired to :meth:`repro.core.MutableDesksIndex.subscribe` so an
        insert/delete purges the cache eagerly instead of leaving stale
        entries to be discovered lookup by lookup.
        """
        with self._lock:
            stale = [key for key, (gen, _) in self._entries.items()
                     if gen < generation]
            for key in stale:
                del self._entries[key]
            self._stats.invalidations += len(stale)
            return len(stale)

    def clear(self) -> None:
        """Drop everything (counted as invalidations)."""
        with self._lock:
            self._stats.invalidations += len(self._entries)
            self._entries.clear()

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """A point-in-time copy of the cache counters."""
        with self._lock:
            return CacheStats(self._stats.hits, self._stats.misses,
                              self._stats.insertions, self._stats.evictions,
                              self._stats.invalidations)

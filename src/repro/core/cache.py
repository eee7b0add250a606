"""The answer cache: a bounded LRU map from a query's canonical key to its
complete answer.

A :class:`~repro.core.MutableDesksIndex` gives each static snapshot one
and hands the next snapshot an empty :meth:`AnswerCache.successor`; a
:class:`~repro.service.QueryEngine` serves from its index's.  A
cache lives exactly as long as the data its answers came from, so nothing
is ever invalidated in place.  The index copies the retiring entries out
before the successor empties them, and admits one into the next cache
only once its merge with the retired delta has made it the next
snapshot's answer.  Partial (deadline-cut) answers are never admitted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Hashable, Optional

from .query import QueryResult


@dataclass
class CacheStats:
    """Counters of one cache and its successors; ``invalidations`` counts
    entries discarded with their snapshot or by :meth:`AnswerCache.clear`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, 0.0 before the first lookup."""
        return self.hits / self.lookups if self.lookups else 0.0


class AnswerCache:
    """Thread-safe LRU of canonical key -> complete :class:`QueryResult`,
    at most ``capacity`` entries (a new capacity applies from the next
    admission)."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, QueryResult]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()

    def get(self, key: Hashable, alone: bool = True,
            ) -> Optional[QueryResult]:
        """The answer at ``key``, else None.  With ``alone=False`` (a hit
        still to be merged with pending writes) a hit counts as a miss, so
        ``hits`` counts the requests this cache answered by itself."""
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            if result is not None and alone:
                self._stats.hits += 1
            else:
                self._stats.misses += 1
            return result

    def hit(self, key: Hashable) -> Optional[QueryResult]:
        """The answer at ``key``, counted as a hit; None, counted as
        nothing, when there is none (the :meth:`get` that follows counts
        the miss)."""
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
            return result

    def put(self, key: Hashable, result: QueryResult) -> bool:
        """Admit a complete ``result``, evicting the least recently used;
        False (nothing cached) for a partial one."""
        if result.partial:
            return False
        with self._lock:
            if key not in self._entries:
                while len(self._entries) >= self.capacity:
                    self._entries.popitem(last=False)
                    self._stats.evictions += 1
            self._entries[key] = result
            self._entries.move_to_end(key)
            return True

    def successor(self) -> "AnswerCache":
        """An empty cache for the next data snapshot, sharing this one's
        capacity, lock and counters; this one's entries count as
        invalidations.  A read that raced the rebuild can still admit its
        answer here, where no later read looks."""
        self.clear()
        heir = AnswerCache(self.capacity)
        heir._lock, heir._stats = self._lock, self._stats
        return heir

    def clear(self) -> None:
        """Drop everything (counted as invalidations)."""
        with self._lock:
            self._stats.invalidations += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters."""
        with self._lock:
            return replace(self._stats)

"""Dynamic updates — the paper's declared future work.

The DESKS structure is built by global sorts (distance bands, direction
wedges) and densely packed posting lists, so in-place insertion would
shift every slice behind the insertion point.  We instead use the standard
main-plus-delta design databases reach for in this situation:

* inserts land in an unindexed **delta buffer**, scanned linearly at query
  time (cheap while small);
* deletes become **tombstones**, filtered during verification;
* when the delta grows past ``rebuild_threshold`` (a fraction of the
  indexed size), the static index is rebuilt to absorb it.

Queries remain exact at every moment; amortised insert cost is O(1) plus
the periodic rebuild, the classic LSM-style trade.

A rebuild does not re-intern the data it already has: the survivors'
collection is derived from the old one (:meth:`POICollection.derive`),
sharing every POI, term-id set and vocabulary entry before the first
deleted static POI.  Only the changed suffix and the delta are renumbered
and interned, so that part of a compaction costs the suffix plus the
delta, not the whole vocabulary; the index build on top of it is the one
numpy pass every build runs.

For the serving layer (:mod:`repro.service`) the index additionally keeps a
monotonically increasing **generation** counter, bumped by every successful
insert, delete, and rebuild.  A result cache tags each cached answer with
the generation it was computed under and refuses to serve it once the
counter has moved — the invalidation contract that makes caching safe over
a mutating index.  ``subscribe()`` registers callbacks fired (with the new
generation) after each mutation, so caches can also purge eagerly.

Updates are serialised by an internal lock; queries take a consistent
snapshot of ``(searcher, memo, delta, tombstones)`` and the count of
tombstones on static POIs under that lock and then run lock-free, so
concurrent readers never block each other and a rebuild mid-query simply
means that query answers against the pre-rebuild (still exact) state.
``get()``, ``live_pois()`` and ``len()`` read under the lock too, so a
rebuild never lands between their reads.

Every write bumps the generation, so under a steady write stream the
result cache above rarely holds an answer long enough to serve it.  The
static index itself only changes at a rebuild, though, so each static
index carries a **snapshot memo**: its own complete answers, keyed by the
query it was actually asked (``k`` already inflated by the tombstones)
and the pruning mode, at most :data:`SNAPSHOT_MEMO_CAPACITY` of them.  A
read whose static query is memoized skips the indexed search and pays
only the tombstone filter, the delta scan and the merge.  The memo is
created empty with its static index and discarded with it at the next
rebuild, so nothing ever has to invalidate it.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..datasets import POI, POICollection, check_finite
from ..storage import SearchStats
from ..trace.spans import current_tracer
from .index import DesksIndex
from .query import DirectionalQuery, QueryResult, ResultEntry
from .search import DesksSearcher, PruningMode, SupportsExpired

#: Answers one static index memoizes before it forgets its oldest (FIFO).
SNAPSHOT_MEMO_CAPACITY = 1024


class MutableDesksIndex:
    """A DESKS index that supports insert/delete with exact answers."""

    def __init__(self, collection: POICollection,
                 num_bands: Optional[int] = None,
                 num_wedges: Optional[int] = None,
                 rebuild_threshold: float = 0.25) -> None:
        self._init_state(num_bands, num_wedges, rebuild_threshold)
        self._build(collection)

    def _init_state(self, num_bands: Optional[int],
                    num_wedges: Optional[int],
                    rebuild_threshold: float) -> None:
        """Everything both constructors set before the static index."""
        if not 0.0 < rebuild_threshold <= 1.0:
            raise ValueError(
                f"rebuild_threshold must be in (0, 1]: {rebuild_threshold}")
        self._num_bands = num_bands
        self._num_wedges = num_wedges
        self.rebuild_threshold = rebuild_threshold
        self._delta: List[POI] = []
        self._deleted: Set[int] = set()
        # Tombstones inside the static id range: what the static search's
        # k must be inflated by (see search).
        self._buried = 0
        self.rebuild_count = 0
        self._generation = 0
        self._listeners: List[Callable[[int], None]] = []
        self._lock = threading.RLock()

    def _build(self, collection: POICollection) -> None:
        self._adopt_static(DesksIndex(collection, self._num_bands,
                                      self._num_wedges))

    def _adopt_static(self, index: DesksIndex) -> None:
        """Install ``index`` as the static index, with an empty memo."""
        self._index = index
        self._searcher = DesksSearcher(index)
        self._memo: Dict[Tuple, List[ResultEntry]] = {}

    @classmethod
    def from_static(cls, index: DesksIndex,
                    rebuild_threshold: float = 0.25) -> "MutableDesksIndex":
        """Adopt an already-built static index (e.g. one loaded from disk)
        without paying the four global sorts a fresh build costs."""
        instance = cls.__new__(cls)
        instance._init_state(index.num_bands, index.num_wedges,
                             rebuild_threshold)
        instance._adopt_static(index)
        return instance

    # -- state -----------------------------------------------------------

    @property
    def collection(self) -> POICollection:
        """The currently indexed (static) collection."""
        return self._index.collection

    @property
    def num_pending(self) -> int:
        """Inserts waiting in the delta buffer."""
        return len(self._delta)

    @property
    def io_stats(self):
        """The current static index's I/O counters (resets on rebuild)."""
        return self._index.io_stats

    @property
    def static_index(self) -> DesksIndex:
        """The current static index (what :func:`~repro.core.save_index`
        persists after :meth:`compact`)."""
        return self._index

    @property
    def generation(self) -> int:
        """Monotonic mutation counter; bumped by insert/delete/rebuild.

        Two searches bracketed by equal generations saw the same data, so
        any answer computed at generation ``g`` may be served from a cache
        while ``generation == g`` still holds.
        """
        return self._generation

    def subscribe(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked (with the new generation) after
        every mutation.  Callbacks run on the mutating thread and must be
        cheap and non-raising; they exist so result caches can invalidate
        eagerly instead of only on their next lookup."""
        with self._lock:
            self._listeners.append(listener)

    def _bump_generation(self) -> None:
        # Caller holds self._lock.
        self._generation += 1
        for listener in self._listeners:
            listener(self._generation)

    def __len__(self) -> int:
        with self._lock:
            return (len(self.collection) + len(self._delta)
                    - len(self._deleted))

    # -- updates -------------------------------------------------------------

    def _next_id(self) -> int:
        """The id the next insert gets.  Caller holds ``self._lock``."""
        return len(self.collection) + len(self._delta)

    def insert(self, x: float, y: float, keywords: Iterable[str]) -> int:
        """Insert a POI; returns its (stable) id.

        Delta ids continue the static collection's id space, so ids remain
        unique across rebuilds within this wrapper.  A non-finite ``x`` or
        ``y`` is a ``ValueError`` and changes nothing.
        """
        with self._lock:
            poi_id = self._next_id()
            check_finite(poi_id, x, y)
            self._delta.append(POI.make(poi_id, x, y, keywords))
            if len(self._delta) > self.rebuild_threshold * max(
                    len(self.collection), 1):
                self._rebuild()
            self._bump_generation()
            return poi_id

    def delete(self, poi_id: int) -> bool:
        """Tombstone a POI; returns False when the id is unknown/deleted."""
        with self._lock:
            if poi_id in self._deleted:
                return False
            total = len(self.collection) + len(self._delta)
            if not 0 <= poi_id < total:
                return False
            self._deleted.add(poi_id)
            self._buried += poi_id < len(self.collection)
            # Tombstones inflate the static index's effective k (see
            # search); absorb them once they pile up, like the insert path.
            if (len(self._deleted) > self.rebuild_threshold
                    * max(len(self.collection), 1) and len(self) > 0):
                self._rebuild()
            self._bump_generation()
            return True

    def compact(self) -> bool:
        """Absorb the delta buffer and tombstones into the static index
        now (checkpointing uses this so a snapshot of the static index
        captures the full visible state).  Returns True when a rebuild
        actually ran.  Counts as a mutation: ids may be re-densified and
        the generation is bumped, exactly as for a threshold rebuild.

        With no live POI left there is nothing to build a static index
        from: it returns False and leaves the delta and tombstones as they
        are, like the threshold rebuild on delete."""
        with self._lock:
            if (not self._delta and not self._deleted) or len(self) == 0:
                return False
            self._rebuild()
            self._bump_generation()
            return True

    def _rebuild(self) -> None:
        """Merge delta and tombstones into a fresh static index."""
        # Caller holds self._lock.  The survivors' collection is derived
        # from the old one: everything before the first static tombstone
        # is shared, and only the suffix after it plus the live delta is
        # renumbered and interned.  It equals POICollection(live_pois())
        # field by field, which recovery from a checkpoint relies on.
        # Rebuilding re-densifies ids: previously returned ids become
        # invalid after a rebuild, which callers can detect via
        # ``rebuild_count`` (documented contract of the delta design).
        collection = self.collection.derive(self._deleted, self._delta)
        self._delta = []
        self._deleted = set()
        self._buried = 0
        self.rebuild_count += 1
        self._build(collection)

    # -- queries ------------------------------------------------------------------

    def search(self, query: DirectionalQuery,
               mode: PruningMode = PruningMode.RD,
               stats: Optional[SearchStats] = None,
               deadline: Optional[SupportsExpired] = None) -> QueryResult:
        """Exact top-k over static index + delta buffer - tombstones.

        Safe to call from many threads at once: the method snapshots the
        searcher, its memo, the delta, the tombstones and how many of
        them lie on static POIs under the update lock, then runs against
        those references; an answer computed on one static index can
        therefore never land in the next one's memo.
        The static query (``k`` inflated by the tombstones it may bury)
        is answered from the memo when this static index has answered it
        before, and by the indexed search otherwise; a complete answer of
        the indexed search is then memoized.  ``deadline`` is forwarded
        to the indexed search; an expired deadline yields
        ``partial=True`` (the delta scan is a cheap linear pass and always
        completes), and a partial answer is never memoized.  A memo hit
        is complete whatever the deadline, like a result-cache hit.

        Under an active :class:`repro.trace.Tracer` the static part is a
        ``desks.search`` tree or, on a memo hit, one counter-free
        ``desks.memo`` span, and the delta scan records a ``desks.delta``
        span; ``stats`` counts the work actually done, so a memo hit adds
        only the delta POIs.
        """
        with self._lock:
            searcher = self._searcher
            memo = self._memo
            delta = self._delta
            deleted = set(self._deleted) if self._deleted else self._deleted
            buried = self._buried
        # Tombstones may knock answers out of the static top-k; ask the
        # static index for enough extras to guarantee k live results.  Only
        # a tombstone inside its id range can: one on a delta POI buries
        # nothing the static search could return.  delete() counts those
        # as they land (``_buried``), so a read need not count them.
        if buried:
            query_static = DirectionalQuery(query.location, query.interval,
                                            query.keywords, query.k + buried,
                                            query.match_mode)
        else:
            query_static = query
        key = (query_static.canonical_key(), mode)
        tracer = current_tracer()
        entries = memo.get(key)
        partial = False
        if entries is None:
            indexed = searcher.search(query_static, mode, stats,
                                      deadline=deadline)
            entries, partial = indexed.entries, indexed.partial
            if not partial:
                with self._lock:
                    if len(memo) >= SNAPSHOT_MEMO_CAPACITY:
                        del memo[next(iter(memo))]
                    memo[key] = entries
        elif tracer is not None:
            tracer.record("desks.memo", mode=mode.name, k=query_static.k,
                          results=len(entries))
        merged = [e for e in entries if e.poi_id not in deleted]
        if tracer is not None:
            tick = time.perf_counter()
        # len(delta) is captured once: concurrent inserts appending to the
        # same list are simply not part of this query's snapshot.
        pending = delta[:len(delta)]
        examined = 0
        for poi in pending:
            if poi.poi_id in deleted:
                continue
            examined += 1
            if not query.matches(poi.location, poi.keywords):
                continue
            merged.append(ResultEntry(
                poi.poi_id, query.location.distance_to(poi.location)))
        if stats is not None:
            stats.pois_examined += examined
        if tracer is not None:
            # The delta scan's share of SearchStats, so span totals still
            # reconcile while inserts are pending.
            tracer.record("desks.delta", seconds=time.perf_counter() - tick,
                          pois_fetched=examined,
                          tombstones_skipped=len(pending) - examined)
        merged.sort()
        return QueryResult(merged[:query.k], partial=partial)

    def live_pois(self) -> List[POI]:
        """All currently visible POIs (static + delta, minus tombstones)."""
        with self._lock:
            deleted = self._deleted
            out = [p for p in self.collection if p.poi_id not in deleted]
            out.extend(p for p in self._delta if p.poi_id not in deleted)
            return out

    def get(self, poi_id: int) -> POI:
        """Look up a POI by id (static or delta); raises on deleted ids."""
        with self._lock:
            if poi_id in self._deleted:
                raise KeyError(f"poi {poi_id} is deleted")
            collection = self.collection
            if 0 <= poi_id < len(collection):
                return collection[poi_id]
            delta_pos = poi_id - len(collection)
            if 0 <= delta_pos < len(self._delta):
                return self._delta[delta_pos]
            raise KeyError(f"unknown poi id {poi_id}")

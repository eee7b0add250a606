"""Dynamic updates — the paper's declared future work.

The DESKS structure is built by global sorts (distance bands, direction
wedges) and densely packed posting lists, so in-place insertion would
shift every slice behind the insertion point.  We instead use the standard
main-plus-delta design databases reach for in this situation:

* inserts land in a **delta buffer** with keyword postings of its own, so
  a read visits only the pending POIs that can match: the shortest of its
  keywords' lists under ``ALL``, their union under ``ANY``;
* deletes become **tombstones**, filtered during verification;
* when the delta grows past ``rebuild_threshold`` (a fraction of the
  indexed size), the static index is rebuilt to absorb it.

Queries remain exact at every moment; amortised insert cost is O(1) plus
the periodic rebuild, the classic LSM-style trade.

A rebuild does not redo the work it already has, and does no layout work
until something needs it.  The survivors' collection is derived from the
old one (:meth:`POICollection.derive`), sharing every POI, term-id set
and vocabulary entry before the first deleted static POI; that, the
carry below and resetting the delta are all a rebuild pays.  The next
static index is laid out by the first read that misses both caches (or
the first call of :attr:`~MutableDesksIndex.static_index`: a save, a
checkpoint, EXPLAIN), once per snapshot, from the *last built*
snapshot's orders (``DesksIndex._rebuildable``): the kept POIs' polar
coordinates and (POI, term) pairs are reused, and the distance and
direction sorts start from the old orders, which timsort takes as
presorted runs.  A chain of rebuilds with no build between them builds
once, keeping the shortest of their kept prefixes, and holds one
:class:`~repro.core.index.Seed` of orders, never a retired index.  A
build then costs the changed suffix plus the delta, a few linear passes
and the per-anchor keyword layout, not the four global sorts; a moved
MBR (new frames) or a loaded previous index (no distance order) sorts
afresh, and the result is the fresh build's either way.

Updates are serialised by an internal lock and bump a **generation**
counter (data on responses and on the wire).  A read snapshots the
static snapshot, the answer cache, the postings, the next id and the
tombstones under the lock and then runs lock-free: tombstones are copied
on write, posting lists only grow and a read skips ids past its bound,
and a rebuild mid-read leaves it answering the pre-rebuild (still exact)
state.  A read that builds its snapshot's index holds that snapshot's
own lock, never the update lock, so writers go on meanwhile.
``get()``, ``live_pois()`` and ``len()`` read under the lock too.

Each static snapshot carries an :class:`~repro.core.cache.AnswerCache`
of its complete answers, keyed by the canonical key and the count of
tombstones on static POIs (what the static ``k`` is inflated by).  A
cached static answer skips the indexed search; the tombstone filter,
the delta walk and the merge still run.  A rebuild hands the next
snapshot an empty successor, so nothing ever has to invalidate it, and
keeps a one-level *carry* beside it: the retiring cache's answers at its
tombstone count, with the postings, tombstones and id bound they were
merged against.  That merge is the exact top-k over the POIs the rebuild
keeps, and renumbering its ids the way the rebuild does (minus the
tombstones below) is the next static index's answer bit for bit.  So the
next snapshot's first read of a carried query with no static tombstone
yet runs the merge instead of the indexed search and caches the result;
the rebuild after drops the carry.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, \
    Set, Tuple

from ..datasets import POI, POICollection, check_finite
from ..storage import IOStats, SearchStats
from ..trace.spans import Tracer, current_tracer
from .cache import AnswerCache
from .index import DesksIndex, Seed
from .query import DirectionalQuery, MatchMode, QueryResult, ResultEntry
from .search import DesksSearcher, PruningMode, SupportsExpired

#: Answers one static snapshot caches before it forgets the least recently
#: used, unless a :class:`~repro.service.QueryEngine` bounds it.
SNAPSHOT_MEMO_CAPACITY = 1024


class MutableDesksIndex:
    """A DESKS index that supports insert/delete with exact answers."""

    #: What searches each static snapshot, made once per snapshot as its
    #: index is built or adopted.
    _searcher_class = DesksSearcher

    def __init__(self, collection: POICollection,
                 num_bands: Optional[int] = None,
                 num_wedges: Optional[int] = None,
                 rebuild_threshold: float = 0.25) -> None:
        self._init_state(rebuild_threshold)
        self._snapshot = _Snapshot.of(
            DesksIndex._rebuildable(collection, num_bands, num_wedges),
            self._searcher_class, (num_bands, num_wedges))

    def _init_state(self, rebuild_threshold: float) -> None:
        """Everything both constructors set before the static index."""
        if not 0.0 < rebuild_threshold <= 1.0:
            raise ValueError(
                f"rebuild_threshold must be in (0, 1]: {rebuild_threshold}")
        self.rebuild_threshold = rebuild_threshold
        self._delta: List[POI] = []
        # keyword -> pending POIs carrying it, in id order.
        self._postings: Dict[str, List[POI]] = {}
        # Replaced, never mutated: a read holds it without a copy.
        self._deleted: Set[int] = set()
        # Tombstones inside the static id range: what the static search's
        # k must be inflated by (see read).
        self._buried = 0
        self.rebuild_count = 0
        self._generation = 0
        self._cache = AnswerCache(SNAPSHOT_MEMO_CAPACITY)
        # The retired snapshot's answers, until the next rebuild.
        self._carry: Optional[_Carry] = None
        self._lock = threading.RLock()

    @classmethod
    def from_static(cls, index: DesksIndex,
                    rebuild_threshold: float = 0.25) -> "MutableDesksIndex":
        """Adopt an already-built static index (e.g. one loaded from disk)
        without paying the four global sorts a fresh build costs."""
        instance = cls.__new__(cls)
        instance._init_state(rebuild_threshold)
        instance._snapshot = _Snapshot.of(
            index, cls._searcher_class, (index.num_bands, index.num_wedges))
        return instance

    # -- state -----------------------------------------------------------

    @property
    def collection(self) -> POICollection:
        """The currently indexed (static) collection."""
        return self._snapshot.collection

    @property
    def num_pending(self) -> int:
        """Inserts waiting in the delta buffer."""
        return len(self._delta)

    @property
    def io_stats(self) -> IOStats:
        """The current static snapshot's I/O counters: one object from
        the rebuild that makes the snapshot (fresh counters) to the next,
        whether or not its index is built yet; reading them builds
        nothing."""
        return self._snapshot.io_stats

    @property
    def static_index(self) -> DesksIndex:
        """The current static index (what :func:`~repro.core.save_index`
        persists after :meth:`compact`), built now if no read has needed
        it since the last rebuild."""
        return self._snapshot.searcher().index

    @property
    def cache(self) -> AnswerCache:
        """The current static snapshot's answer cache (its counters and
        capacity carry over to the next snapshot's)."""
        return self._cache

    @property
    def generation(self) -> int:
        """Monotonic mutation counter; bumped by insert/delete/rebuild."""
        return self._generation

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
            poi = POI.make(poi_id, x, y, keywords)
            self._delta.append(poi)
            for word in poi.keywords:
                self._postings.setdefault(word, []).append(poi)
            if len(self._delta) > self.rebuild_threshold * max(
                    len(self.collection), 1):
                self._rebuild()
            self._generation += 1
            return poi_id

    def delete(self, poi_id: int) -> bool:
        """Tombstone a POI; returns False when the id is unknown/deleted."""
        with self._lock:
            if poi_id in self._deleted:
                return False
            total = len(self.collection) + len(self._delta)
            if not 0 <= poi_id < total:
                return False
            self._deleted = self._deleted | {poi_id}
            self._buried += poi_id < len(self.collection)
            # Tombstones inflate the static index's effective k (see
            # read); absorb them once they pile up, like the insert path.
            if (len(self._deleted) > self.rebuild_threshold
                    * max(len(self.collection), 1) and len(self) > 0):
                self._rebuild()
            self._generation += 1
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
            self._generation += 1
            return True

    def _rebuild(self) -> None:
        """Merge delta and tombstones into the next static snapshot, whose
        index is laid out when something first needs it."""
        # Caller holds self._lock.  The survivors' collection is derived
        # from the old one: everything before the first static tombstone
        # is shared, and only the suffix after it plus the live delta is
        # renumbered and interned.  It equals POICollection(live_pois())
        # field by field, which recovery from a checkpoint relies on.
        # Rebuilding re-densifies ids: previously returned ids become
        # invalid after a rebuild, which callers can detect via
        # ``rebuild_count`` (documented contract of the delta design).
        snapshot = self._snapshot
        keep = snapshot.collection.kept_prefix(self._deleted)
        collection = snapshot.collection.derive(self._deleted, self._delta)
        self._carry = _Carry.of(self._cache, self._buried, self._postings,
                                self._deleted, self._next_id())
        self._delta = []
        self._postings = {}
        self._deleted = set()
        self._buried = 0
        self.rebuild_count += 1
        self._snapshot = snapshot.successor(collection, keep)
        self._cache = self._cache.successor()

    # -- queries ------------------------------------------------------------------

    def search(self, query: DirectionalQuery,
               mode: PruningMode = PruningMode.RD,
               stats: Optional[SearchStats] = None,
               deadline: Optional[SupportsExpired] = None) -> QueryResult:
        """Exact top-k over static index + delta buffer - tombstones."""
        return self.read(query, mode, stats, deadline)[0]

    def cached(self, query: DirectionalQuery) -> Optional[QueryResult]:
        """The snapshot cache's answer to ``query`` when it answers alone
        (nothing pending, no tombstone), counted as a hit; else None,
        counted as nothing: the :meth:`read` that follows counts.  What a
        serving engine asks before it pays for a search's bookkeeping."""
        with self._lock:
            if self._delta or self._deleted:
                return None
            cache = self._cache
        return cache.hit((query.cache_key, 0))

    def read(self, query: DirectionalQuery,
             mode: PruningMode = PruningMode.RD,
             stats: Optional[SearchStats] = None,
             deadline: Optional[SupportsExpired] = None,
             ) -> Tuple[QueryResult, bool]:
        """:meth:`search`'s answer, and whether the snapshot's answer cache
        gave it alone (nothing pending to merge in).

        Safe from many threads: an answer computed on one static index can
        never land in the next one's cache.  ``deadline`` reaches only the
        indexed search (a cut one is ``partial`` and never cached; a cached
        one is complete whatever the deadline).  A miss the carry of the
        last rebuild answers is a miss all the same (``cached`` False):
        it pays the retired snapshot's delta walk, not a search.  A miss
        of both on a snapshot whose index is not built yet builds it
        first, under the snapshot's lock, not the update lock.  Traced,
        that build is a counter-free ``desks.build`` span, and the static
        part is a ``desks.search`` tree or, when cached, a counter-free
        ``desks.memo`` span; when carried, a ``desks.memo`` span and a
        childless ``desks.search`` span that counts the carried walk (it
        computed this index's static answer).  The walk of this
        snapshot's delta is a ``desks.delta`` span; ``stats`` counts only
        the work done.
        """
        with self._lock:
            snapshot = self._snapshot
            cache = self._cache
            postings = self._postings
            bound = self._next_id()
            deleted = self._deleted
            buried = self._buried
            carry = self._carry
            alone = not self._delta and not deleted
        tracer = current_tracer()
        # Tombstones may knock answers out of the static top-k; ask the
        # static index for enough extras to guarantee k live results.  Only
        # a tombstone inside its id range can: one on a delta POI buries
        # nothing the static search could return.  delete() counts those
        # as they land (``_buried``), so a read need not count them.
        key = (query.cache_key, buried)
        static = cache.get(key, alone)
        hit = static is not None
        if not hit and not buried and carry is not None:
            static = carry.answers.get(query.cache_key)
        if static is not None and tracer is not None:
            tracer.record("desks.memo", mode=mode.name,
                          k=query.k + buried, results=len(static))
        if static is None:
            query_static = query if not buried else DirectionalQuery(
                query.location, query.interval, query.keywords,
                query.k + buried, query.match_mode)
            static = snapshot.searcher().search(query_static, mode, stats,
                                                deadline=deadline)
            cache.put(key, static)
        elif not hit:
            static = carry.follow(query, static, stats, tracer)
            cache.put(key, static)
        if alone and tracer is None:
            return static, hit
        return (QueryResult(_merge(query, static, deleted, postings, bound,
                                   stats, tracer),
                            partial=static.partial),
                hit and alone)

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


class _Snapshot:
    """One static snapshot: its collection from the rebuild that makes
    it, its index and searcher from the first thing that needs them.
    ``shape`` is the ``(num_bands, num_wedges)`` every build is asked
    for (``None`` follows the collection's size).

    A snapshot made by a rebuild holds the :class:`~repro.core.index.
    Seed` of the last *built* snapshot and the shortest kept prefix of
    the chain of rebuilds since (a chain of ``derive`` keeps the minimum
    of their kept prefixes), never an index; its build drops the seed.
    The index is built once, under this snapshot's own lock."""

    def __init__(self, collection: POICollection, searcher_class: type,
                 shape: Tuple[Optional[int], Optional[int]],
                 io_stats: IOStats, seed: Optional[Seed] = None,
                 keep: int = 0, compactions: int = 0) -> None:
        self.collection = collection
        self.io_stats = io_stats
        self._searcher_class = searcher_class
        self._searcher: Optional[DesksSearcher] = None
        self._shape = shape
        self._seed = seed
        self._keep = keep
        #: Rebuilds since the last built snapshot: what one build absorbs.
        self._compactions = compactions
        self._lock = threading.Lock()

    @classmethod
    def of(cls, index: DesksIndex, searcher_class: type,
           shape: Tuple[Optional[int], Optional[int]]) -> "_Snapshot":
        """A snapshot of an index built already."""
        snapshot = cls(index.collection, searcher_class, shape,
                       index.io_stats)
        snapshot._searcher = searcher_class(index)
        return snapshot

    def successor(self, collection: POICollection,
                  keep: int) -> "_Snapshot":
        """The snapshot of ``collection``, derived from this one's with
        its first ``keep`` POIs shared: to be built from this snapshot's
        index if it has one, else from the seed this one holds."""
        # The seed before the searcher: a build publishes its searcher
        # before it drops the seed, so a searcher still missing here
        # means the seed read was this snapshot's own.
        seed = self._seed
        searcher = self._searcher
        if searcher is not None:
            seed, compactions = searcher.index._seed(), 1
        else:
            compactions = self._compactions + 1
            keep = min(keep, self._keep)
        # Nothing kept, nothing to sort from: hold no seed.
        return _Snapshot(collection, self._searcher_class, self._shape,
                         IOStats(), seed if keep else None, keep,
                         compactions)

    def searcher(self) -> DesksSearcher:
        """The searcher of this snapshot's index, built on first call."""
        searcher = self._searcher
        if searcher is None:
            with self._lock:
                searcher = self._searcher
                if searcher is None:
                    searcher = self._searcher = self._build()
                    self._seed = None
        return searcher

    def _build(self) -> DesksSearcher:
        """Lay the index out (caller holds ``self._lock``)."""
        started = time.perf_counter()
        index = DesksIndex._rebuildable(self.collection, *self._shape,
                                        self._seed, self._keep)
        # The counters the snapshot has handed out since its rebuild.
        index.io_stats = self.io_stats
        searcher = self._searcher_class(index)
        tracer = current_tracer()
        if tracer is not None:
            tracer.record("desks.build",
                          seconds=time.perf_counter() - started,
                          keep=self._keep, compactions=self._compactions)
        return searcher


class _Carry(NamedTuple):
    """What a rebuild keeps of the retiring snapshot: its complete answers
    at its tombstone count (canonical key -> static answer) and the state
    they were merged against.  No reference to the retired index."""

    answers: Dict[Hashable, QueryResult]
    postings: Dict[str, List[POI]]
    deleted: Set[int]
    bound: int
    #: ``deleted`` in order: a kept POI's new id is its old id minus the
    #: tombstones below it, as :meth:`POICollection.derive` numbers them.
    tombstones: List[int]

    @classmethod
    def of(cls, cache: AnswerCache, buried: int,
           postings: Dict[str, List[POI]], deleted: Set[int],
           bound: int) -> "_Carry":
        """The carry of a snapshot whose cache is ``cache``, taken before
        :meth:`AnswerCache.successor` empties it."""
        with cache._lock:
            answers = {key: result for (key, inflation), result
                       in cache._entries.items() if inflation == buried}
        return cls(answers, postings, deleted, bound, sorted(deleted))

    def follow(self, query: DirectionalQuery, static: QueryResult,
               stats: Optional[SearchStats],
               tracer: Optional[Tracer]) -> QueryResult:
        """The retired snapshot's exact answer to ``query``, from its
        cached ``static`` one, numbered as the rebuild numbered the POIs:
        the next static index's answer."""
        tombstones = self.tombstones
        return QueryResult([
            ResultEntry(entry.poi_id - bisect_left(tombstones, entry.poi_id),
                        entry.distance)
            for entry in _merge(query, static, self.deleted, self.postings,
                                self.bound, stats, tracer, "desks.search")])


def _merge(query: DirectionalQuery, static: QueryResult, deleted: Set[int],
           postings: Dict[str, List[POI]], bound: int,
           stats: Optional[SearchStats], tracer: Optional[Tracer],
           span: str = "desks.delta") -> List[ResultEntry]:
    """The top ``query.k`` of ``static``'s entries minus tombstones and the
    pending POIs below ``bound`` that match, in (distance, id) order.

    The walk adds its POIs to ``stats.pois_examined`` and, traced,
    records them on a ``span`` span, so span totals reconcile."""
    merged = [e for e in static.entries if e.poi_id not in deleted]
    if tracer is not None:
        tick = time.perf_counter()
    examined = skipped = 0
    for poi in _delta_candidates(query, postings):
        poi_id = poi.poi_id
        if poi_id >= bound:
            continue        # inserted after the snapshot being read
        if poi_id in deleted:
            skipped += 1
            continue
        examined += 1
        if query.matches(poi.location, poi.keywords):
            merged.append(ResultEntry(
                poi_id, query.location.distance_to(poi.location)))
    if stats is not None:
        stats.pois_examined += examined
    if tracer is not None:
        tracer.record(span, seconds=time.perf_counter() - tick,
                      pois_fetched=examined, tombstones_skipped=skipped)
    merged.sort()
    return merged[:query.k]


def _delta_candidates(query: DirectionalQuery,
                      postings: Dict[str, List[POI]]) -> Iterable[POI]:
    """The pending POIs that can match ``query``'s keywords: the shortest
    of its keywords' lists under ``ALL`` (empty when one keyword has no
    pending POI), the union of them, each POI once, under ``ANY``."""
    lists = [postings.get(word, ()) for word in query.keywords]
    if query.match_mode is MatchMode.ALL:
        return min(lists, key=len)
    lists = [found for found in lists if found]
    if len(lists) <= 1:
        return lists[0] if lists else ()
    return {poi.poi_id: poi for found in lists for poi in found}.values()

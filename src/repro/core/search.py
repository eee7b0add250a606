"""DESKS query processing — Algorithms 1 and 2 of the paper, and when to
skip them.

**The region search** (:meth:`DesksSearcher.search_regions`) is the
paper's algorithm.  One engine answers both the basic query (Algorithm 1,
interval within one quadrant) and the general query (Algorithm 2): the
interval is decomposed into per-quadrant basic sub-queries, and a single
priority queue of ``(MINDIST, band)`` entries — spanning all
participating anchors — drives a best-first scan sharing one top-k
collector, exactly as Algorithm 2's region queue ``Q_R`` does.

**The posting walk** is ours.  The region lists, the ``MINDIST`` ranking
and the wedge-by-wedge scan pay for themselves when a keyword fills the
sub-regions and are pure overhead when it does not, so
:meth:`DesksSearcher.search` first asks how many postings it would have
to read — the rarest keyword's document frequency under ``ALL``, the sum
of the keywords' frequencies under ``ANY`` — and when that is at most the
number of sub-regions one anchor has (``N x M``) it reads those POI
lists whole from one anchor's keyword store and verifies every holder
(keyword predicate, direction, distance) through the same top-k
collector.  Otherwise it runs the region search.  The choice is made from
the query and the index alone; nothing selects it from outside, and both
paths return ``sorted((distance, poi_id))[:k]`` of the matching POIs.

The three pruning configurations evaluated in the paper's Section VI-B map
onto two switches.  They switch pruning *inside* the region search; the
posting walk prunes nothing and ignores them, and the answers never
depend on them:

========== ===================== =========================
mode        region pruning         direction pruning
            (Lemma 1 + Eq. 4)      (Lemmas 2-4 + Table I)
========== ===================== =========================
``R``       on                     off
``D``       off                    on
``RD``      on                     on
========== ===================== =========================
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..storage import SearchStats
from ..text import intersect_sorted, union_sorted
from ..trace.spans import Span, Tracer, current_tracer
from .index import POIS_PER_SUBREGION, AnchorIndex, DesksIndex
from .mindist import (
    BasicQueryGeometry,
    band_mindist,
    basic_geometry,
    subregion_mindist,
)
from .query import DirectionalQuery, MatchMode, QueryResult, ResultEntry
from .regions import Band

INF = math.inf

#: Counters every scanned ``desks.band`` span carries (zero until recorded).
_BAND_COUNTERS = ("subregions_kept", "subregions_window_pruned",
                  "subregions_mindist_pruned", "subregions_examined",
                  "mindist_evaluations", "pois_fetched", "pois_verified",
                  "pages_read")
#: The band counters that roll up, same-named, into the ``desks.search`` root.
_ROOT_SUMS = ("pages_read", "pois_fetched", "pois_verified",
              "subregions_examined", "mindist_evaluations")
#: What a ``desks.postings`` span rolls up into the root.
_POSTING_SUMS = ("pages_read", "pois_fetched", "pois_verified")


class SupportsExpired:
    """Structural type for cooperative deadlines.

    Anything with an ``expired() -> bool`` method works (duck-typed; this
    class exists for documentation and isinstance-free annotation).  The
    canonical implementation is :class:`repro.service.Deadline` — core
    stays import-free of the serving layer.
    """

    def expired(self) -> bool:  # pragma: no cover - interface only
        raise NotImplementedError


class PruningMode(Enum):
    """Which pruning techniques the search applies (paper Sec. VI-B)."""

    R = "region"
    D = "direction"
    RD = "region+direction"

    @property
    def region(self) -> bool:
        return self in (PruningMode.R, PruningMode.RD)

    @property
    def direction(self) -> bool:
        return self in (PruningMode.D, PruningMode.RD)


class _TopK:
    """Bounded max-heap collecting the k nearest verified answers.

    Answers are ordered by ``(distance, poi_id)`` — the exhaustive scan's
    order — so a tie at the k-th distance goes to the lower id whichever
    scanner met it first.  A tie swap leaves ``kth_distance`` unchanged,
    hence every pruning decision too.
    """

    def __init__(self, k: int,
                 seed: Optional[Iterable[ResultEntry]] = None) -> None:
        self.k = k
        self._heap: List[Tuple[float, int]] = []  # (-distance, -poi_id)
        self._best: Dict[int, float] = {}
        if seed is not None:
            for entry in seed:
                self.add(entry.poi_id, entry.distance)

    @property
    def kth_distance(self) -> float:
        """Current pruning threshold ``d_k`` (``inf`` until k answers)."""
        if len(self._heap) < self.k:
            return INF
        return -self._heap[0][0]

    def add(self, poi_id: int, distance: float) -> None:
        if poi_id in self._best:
            return  # complex-query pieces can rediscover boundary POIs
        item = (-distance, -poi_id)
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, item)
        elif item > self._heap[0]:
            evicted = heapq.heappushpop(self._heap, item)
            del self._best[-evicted[1]]
        else:
            return
        self._best[poi_id] = distance

    def entries(self) -> List[ResultEntry]:
        return sorted(ResultEntry(pid, dist)
                      for pid, dist in self._best.items())


@dataclass
class _Subquery:
    """Per-anchor state of one basic sub-query."""

    quadrant: int
    #: The anchor's index image; the driver reads only ``.regions`` and
    #: ``.frame``, the rest belongs to the scanner that supplied it.
    anchor: object
    geometry: BasicQueryGeometry
    #: Sub-region gids containing *all* query keywords (sorted).
    candidate_gids: List[int]
    #: The scanner's keyword postings for this anchor.
    postings: object
    #: Direction bounds per band are cached (Eqs. 5-6 are pure in the band).
    _bounds_cache: Dict[int, Tuple[float, float]] = field(
        default_factory=dict)
    #: This sub-query's ``desks.subquery`` span while a tracer is active.
    span: Optional[Span] = None

    def band_bounds(self, band: Band) -> Tuple[float, float]:
        cached = self._bounds_cache.get(band.index)
        if cached is None:
            cached = self.geometry.band_direction_bounds(band.outer_radius)
            self._bounds_cache[band.index] = cached
        return cached


class DesksSearcher:
    """Answers direction-aware spatial keyword queries over a DesksIndex.

    The access-path choice, the posting walk and the best-first driver
    (Algorithm 2's region queue, Lemma 1, FINDCANDREGIONS) are the only
    ones in the repository.  What a subclass may replace is the region
    search's scanner seam — ``_resolve_terms``, ``_anchor``, ``_postings``
    and ``_scan_wedge`` (FINDCANDPOIS): here posting lists read through
    the page store, in :mod:`repro.kernel.search` slices of the columnar
    snapshot.
    """

    def __init__(self, index: DesksIndex) -> None:
        self.index = index
        self._collection = index.collection

    # -- public API -----------------------------------------------------------

    def search(self, query: DirectionalQuery,
               mode: PruningMode = PruningMode.RD,
               stats: Optional[SearchStats] = None,
               seed_entries: Optional[Iterable[ResultEntry]] = None,
               deadline: Optional["SupportsExpired"] = None) -> QueryResult:
        """The k nearest POIs satisfying keyword and direction constraints.

        Answers are ordered by ``(distance, poi_id)``, ties at the k-th
        distance included.  A query whose keywords have no more postings
        to read than one anchor has sub-regions is answered by verifying
        those postings (:meth:`_posting_plan`); every other query by
        :meth:`search_regions`.  The answers are the same either way.

        ``seed_entries`` pre-populates the top-k collector — the incremental
        algorithms of Section V pass cached answers here so ``d_k`` starts
        tight.

        ``deadline`` is any object with an ``expired() -> bool`` method
        (e.g. :class:`repro.service.Deadline`).  The best-first scan checks
        it cooperatively between bands and between sub-regions, the posting
        walk once per sub-region's worth of POIs; on expiry the search
        stops and returns the best answers found so far with
        ``partial=True`` instead of raising — graceful degradation for the
        serving layer.  Every returned entry is still a verified answer.

        When a :class:`repro.trace.Tracer` is active in the calling context
        the search records a ``desks.search`` span tree as it goes — one
        ``desks.postings`` stage, or the region search's prepare /
        sub-query / band / wedge stages with page-read and pruning
        attribution; the root totals reconcile with
        :class:`~repro.storage.SearchStats` / ``IOStats`` on either path,
        partial results included.  With no active tracer the only cost is
        one ``ContextVar`` lookup.
        """
        return self._search(query, mode, stats, seed_entries, deadline, True)

    def search_regions(self, query: DirectionalQuery,
                       mode: PruningMode = PruningMode.RD,
                       stats: Optional[SearchStats] = None,
                       seed_entries: Optional[Iterable[ResultEntry]] = None,
                       deadline: Optional["SupportsExpired"] = None,
                       ) -> QueryResult:
        """Algorithms 1-2 whatever the keywords' frequencies.

        The paper's algorithm under its own name: what :meth:`search` runs
        for popular keywords, what the posting walk is tested against, and
        what the paper-figure drivers time.  Same arguments, answers,
        deadline behaviour and span tree as :meth:`search`.
        """
        return self._search(query, mode, stats, seed_entries, deadline, False)

    def _search(self, query: DirectionalQuery, mode: PruningMode,
                stats: Optional[SearchStats],
                seed_entries: Optional[Iterable[ResultEntry]],
                deadline: Optional["SupportsExpired"],
                posting_first: bool) -> QueryResult:
        """Open the ``desks.search`` root when traced, then search."""
        tracer = current_tracer()
        if tracer is None:
            return self._search_impl(query, mode, stats, seed_entries,
                                     deadline, posting_first)
        with tracer.span("desks.search", mode=mode.name, k=query.k,
                         results=0, partial=False, terminated_early=False,
                         bands_scanned=0, bands_skipped_lemma1=0,
                         pages_read=0, pois_fetched=0, pois_verified=0,
                         subregions_examined=0, subregions_pruned=0,
                         mindist_evaluations=0) as root:
            result = self._search_impl(query, mode, stats, seed_entries,
                                       deadline, posting_first, tracer, root)
            root.annotate(results=len(result), partial=result.partial)
        return result

    def _search_impl(self, query: DirectionalQuery,
                     mode: PruningMode,
                     stats: Optional[SearchStats],
                     seed_entries: Optional[Iterable[ResultEntry]],
                     deadline: Optional["SupportsExpired"],
                     posting_first: bool,
                     tracer: Optional[Tracer] = None,
                     root: Optional[Span] = None) -> QueryResult:
        """The search body; ``root`` is the open ``desks.search`` span."""
        collector = _TopK(query.k, seed=seed_entries)
        conjunctive = query.match_mode is MatchMode.ALL
        term_ids = self._resolve_terms(query.keywords, conjunctive)
        if posting_first and term_ids is not None:
            plan = self._posting_plan(term_ids, conjunctive)
            if plan is not None:
                completed = self._walk_postings(
                    query, term_ids, plan, collector, stats, deadline,
                    tracer, root)
                return QueryResult(collector.entries(),
                                   partial=not completed)
        if tracer is not None:
            io = self.index.io_stats
            pages_before = io.logical_reads
            prepare = tracer.record("desks.prepare", parent=root,
                                    pages_read=0, subqueries=0)
        if term_ids is None:
            return QueryResult(collector.entries())
        subqueries = self._prepare_subqueries(query, term_ids)
        if tracer is not None:
            prepare.ended = time.perf_counter()
            pages = io.logical_reads - pages_before
            prepare.annotate(pages_read=pages, subqueries=len(subqueries))
            root.add("pages_read", pages)
        completed = self._run(query, subqueries, collector, mode, stats,
                              deadline, tracer, root)
        return QueryResult(collector.entries(), partial=not completed)

    def search_basic(self, query: DirectionalQuery,
                     mode: PruningMode = PruningMode.RD,
                     stats: Optional[SearchStats] = None) -> QueryResult:
        """Algorithm 1: requires the interval to fit in one quadrant."""
        pieces = query.basic_subqueries()
        if len(pieces) != 1:
            raise ValueError(
                "search_basic() needs a single-quadrant interval; got "
                f"{len(pieces)} pieces — use search() for complex queries")
        return self.search_regions(query, mode, stats)

    # -- the posting walk ---------------------------------------------------------

    def _posting_plan(self, term_ids: Collection[int], conjunctive: bool,
                      ) -> Optional[Tuple[AnchorIndex, Collection[int]]]:
        """The access-path choice: ``(anchor, terms whose POI lists to
        read)`` when verifying those lists is the cheaper plan, else
        ``None`` (run the region search).

        Under ``ALL`` every answer holds the rarest keyword, so its list
        alone is read and the cost is its document frequency; under ``ANY``
        every keyword's list is read and the cost is their sum.  That is
        weighed against ``N x M``, the sub-regions an anchor is built with
        — what the region search may have to intersect, rank and scan
        before it reaches the same POIs, four anchors over for a full
        circle.  Every anchor's store holds every posting, so the first
        built one serves.
        """
        frequency = self._collection.vocabulary.doc_frequency
        if conjunctive:
            rarest = min(term_ids, key=frequency)
            terms, postings = (rarest,), frequency(rarest)
        else:
            terms, postings = term_ids, sum(map(frequency, term_ids))
        index = self.index
        if postings > index.num_bands * index.num_wedges:
            return None
        anchor = next(filter(None, index.anchors), None)
        if anchor is None:
            return None
        return anchor, terms

    def _walk_postings(self, query: DirectionalQuery,
                       term_ids: Collection[int],
                       plan: Tuple[AnchorIndex, Collection[int]],
                       collector: _TopK, stats: Optional[SearchStats],
                       deadline: Optional["SupportsExpired"],
                       tracer: Optional[Tracer],
                       root: Optional[Span]) -> bool:
        """Answer from whole POI lists; False when the deadline cut in.

        Every holder of the keyword predicate is direction- and
        distance-tested — there is no ``d_k`` to stop at, which is the
        trade: a few more POIs examined than the region search would, none
        of its region machinery.  ``SearchStats`` counts those POIs as the
        wedge scan does, and no region or sub-region.
        """
        anchor, terms = plan
        span = None
        if tracer is not None:
            io = self.index.io_stats
            pages_before = io.logical_reads
            span = tracer.record(
                "desks.postings", parent=root, lists=0, postings=0,
                subregions_per_anchor=(self.index.num_bands
                                       * self.index.num_wedges),
                pois_fetched=0, pois_verified=0, pages_read=0)
        views = map(anchor.store.term_postings, terms)
        lists = [view.pois() for view in views if view is not None]
        candidates = (lists[0] if len(lists) == 1
                      else list(set().union(*lists)))
        if query.match_mode is MatchMode.ALL and len(term_ids) > 1:
            required = frozenset(term_ids)
            held = self._collection.term_ids
            candidates = [poi_id for poi_id in candidates
                          if required <= held(poi_id)]
        completed = True
        # The region search looks at the clock between sub-regions; so
        # does the walk, a sub-region being ~POIS_PER_SUBREGION POIs.
        for start in range(0, len(candidates), POIS_PER_SUBREGION):
            if deadline is not None and deadline.expired():
                completed = False
                break
            self._verify_pois(
                query, candidates[start:start + POIS_PER_SUBREGION],
                collector, stats, span)
        if span is not None:
            span.ended = time.perf_counter()
            span.annotate(lists=len(lists), postings=sum(map(len, lists)),
                          pages_read=io.logical_reads - pages_before)
            for key in _POSTING_SUMS:
                root.add(key, span.attrs[key])
        return completed

    # -- Algorithm 2 ------------------------------------------------------------

    def _prepare_subqueries(self, query: DirectionalQuery,
                            term_ids: Iterable[int]) -> List[_Subquery]:
        conjunctive = query.match_mode is MatchMode.ALL
        subqueries: List[_Subquery] = []
        for quadrant, piece in query.basic_subqueries():
            anchor = self._anchor(quadrant)
            found = self._postings(anchor, term_ids, conjunctive)
            if found is None:
                continue
            gids, postings = found
            geometry = basic_geometry(
                anchor.frame, query.location,
                anchor.frame.basic_interval(piece))
            subqueries.append(_Subquery(quadrant, anchor, geometry,
                                         gids, postings))
        return subqueries

    def _run(self, query: DirectionalQuery, subqueries: List[_Subquery],
             collector: _TopK, mode: PruningMode,
             stats: Optional[SearchStats],
             deadline: Optional["SupportsExpired"] = None,
             tracer: Optional[Tracer] = None,
             root: Optional[Span] = None) -> bool:
        """Drive the band queue to exhaustion; False when a deadline cut in.

        Bands of different sub-queries interleave in the queue, so spans
        are attached with an explicit parent: sub-queries under ``root``,
        bands under their sub-query.
        """
        heap: List[Tuple[float, int, int, _Subquery]] = []
        seq = 0

        def push_band(sub: _Subquery, band_idx: int) -> None:
            nonlocal seq
            bands = sub.anchor.regions.bands
            if band_idx >= len(bands):
                return
            heapq.heappush(
                heap,
                (self._band_priority(sub, bands[band_idx], mode),
                 seq, band_idx, sub))
            seq += 1

        for sub in subqueries:
            start = self._initial_band(sub, mode)
            if tracer is not None:
                sub.span = tracer.record(
                    "desks.subquery", parent=root, quadrant=sub.quadrant,
                    interval_lower=sub.geometry.alpha,
                    interval_upper=sub.geometry.beta, start_band=start,
                    candidate_subregions=len(sub.candidate_gids))
                root.add("bands_skipped_lemma1", start)
            push_band(sub, start)

        while heap:
            if deadline is not None and deadline.expired():
                return False
            priority, _, band_idx, sub = heapq.heappop(heap)
            if priority is INF:
                continue
            if mode.region and priority >= collector.kth_distance:
                # Lemma 1 / Eq. 4 termination: every remaining band is at
                # least this far; no answer can improve the top-k.
                if tracer is not None:
                    tracer.record("desks.band", parent=sub.span,
                                  quadrant=sub.quadrant, band_index=band_idx,
                                  priority=priority, action="terminated")
                    root.annotate(terminated_early=True)
                break
            if stats is not None:
                stats.regions_examined += 1
            band = sub.anchor.regions.bands[band_idx]
            span = None
            if tracer is not None:
                io = self.index.io_stats
                pages_before = io.logical_reads
                span = tracer.record(
                    "desks.band", parent=sub.span, quadrant=sub.quadrant,
                    band_index=band_idx, priority=priority, action="scanned",
                    **dict.fromkeys(_BAND_COUNTERS, 0))
            completed = self._scan_band(query, sub, band, collector, mode,
                                        stats, deadline, tracer, span)
            if span is not None:
                span.ended = time.perf_counter()
                span.annotate(pages_read=io.logical_reads - pages_before)
                sub.span.ended += span.seconds
                root.add("bands_scanned")
                for key in _ROOT_SUMS:
                    root.add(key, span.attrs[key])
                root.add("subregions_pruned",
                         span.attrs["subregions_window_pruned"]
                         + span.attrs["subregions_mindist_pruned"])
            if not completed:
                return False
            push_band(sub, band_idx + 1)
        return True

    def _initial_band(self, sub: _Subquery, mode: PruningMode) -> int:
        """Lemma 1: bands strictly inside the query's radius are skipped."""
        if mode.region and sub.geometry.inside_rect:
            return sub.anchor.regions.band_of_distance(sub.geometry.qd)
        return 0

    def _band_priority(self, sub: _Subquery, band: Band,
                       mode: PruningMode) -> float:
        """Queue key for a band: Eq. 4 under region pruning, else scan order.

        Without region pruning the paper's DESKS+D examines bands in index
        order with no distance-based skipping; encoding the band index as
        the priority reproduces that while reusing the one queue.
        """
        if mode.region:
            return band_mindist(sub.geometry, band.inner_radius,
                                band.outer_radius)
        return float(band.index)

    # -- FindCandRegions ----------------------------------------------------------

    def _scan_band(self, query: DirectionalQuery, sub: _Subquery, band: Band,
                   collector: _TopK, mode: PruningMode,
                   stats: Optional[SearchStats],
                   deadline: Optional["SupportsExpired"] = None,
                   tracer: Optional[Tracer] = None,
                   span: Optional[Span] = None) -> bool:
        """Scan one band's sub-regions; False when the deadline cut in.

        ``span`` is the band's open ``desks.band`` span (``None`` untraced).
        """
        candidates = self._candidate_subregions(sub, band, collector, mode,
                                                stats, span)
        for position, (mindist, subregion_gid) in enumerate(candidates):
            if mode.direction and mindist >= collector.kth_distance:
                # Candidates are MINDIST-sorted (Alg. 1 line 9): the whole
                # tail is cut by the tightened d_k bound, i.e. MINDIST-pruned.
                if span is not None:
                    span.add("subregions_mindist_pruned",
                             len(candidates) - position)
                break
            if deadline is not None and deadline.expired():
                return False
            if span is None:
                self._scan_wedge(query, sub, band, subregion_gid, collector,
                                 stats)
                continue
            io = self.index.io_stats
            pages_before = io.logical_reads
            wedge = tracer.record("desks.wedge", parent=span,
                                  gid=subregion_gid, mindist=mindist,
                                  pois_fetched=0, pois_verified=0)
            self._scan_wedge(query, sub, band, subregion_gid, collector,
                             stats, wedge)
            wedge.ended = time.perf_counter()
            wedge.annotate(pages_read=io.logical_reads - pages_before)
            span.add("subregions_kept")
            span.add("pois_fetched", wedge.attrs["pois_fetched"])
            span.add("pois_verified", wedge.attrs["pois_verified"])
        return True

    def _candidate_subregions(self, sub: _Subquery, band: Band,
                              collector: _TopK, mode: PruningMode,
                              stats: Optional[SearchStats],
                              span: Optional[Span] = None,
                              ) -> List[Tuple[float, int]]:
        """FINDCANDREGIONS: keyword-bearing sub-regions surviving pruning."""
        regions = sub.anchor.regions
        geo = sub.geometry
        first_gid = band.first_gid
        end_gid = first_gid + len(band.subregions)
        if mode.direction:
            tau_lo, tau_hi = sub.band_bounds(band)
            lo_idx, hi_idx = regions.candidate_wedge_range(band, tau_lo,
                                                           tau_hi)
            gid_lo, gid_hi = first_gid + lo_idx, first_gid + hi_idx
        else:
            gid_lo, gid_hi = first_gid, end_gid
        selected = _slice_sorted(sub.candidate_gids, gid_lo, gid_hi)
        if span is not None:
            # What SearchStats counts below, deadline cuts included.
            span.annotate(subregions_examined=len(selected))
            if mode.direction:
                in_band = len(_slice_sorted(sub.candidate_gids, first_gid,
                                            end_gid))
                span.annotate(
                    subregions_window_pruned=in_band - len(selected),
                    mindist_evaluations=len(selected),
                    tau_lower=tau_lo, tau_upper=tau_hi,
                    wedge_window=[lo_idx, hi_idx])
        out: List[Tuple[float, int]] = []
        pruned = 0
        for gid in selected:
            if stats is not None:
                stats.subregions_examined += 1
            if mode.direction:
                wedge = regions.subregions[gid]
                mindist = subregion_mindist(
                    geo, band.inner_radius, band.outer_radius,
                    wedge.theta_lo, wedge.theta_hi)
                if mindist >= collector.kth_distance:
                    pruned += 1
                    continue
            else:
                mindist = 0.0  # +R treats the band as one opaque region
            out.append((mindist, gid))
        if span is not None:
            span.annotate(subregions_mindist_pruned=pruned)
        out.sort()
        return out

    # -- the scanner seam: keyword postings + FindCandPOIs ------------------------

    def _resolve_terms(self, keywords: FrozenSet[str],
                       conjunctive: bool) -> Optional[Collection[int]]:
        """Term ids of the query keywords; ``None`` when nothing can match."""
        return self._collection.query_term_ids(keywords,
                                               require_all=conjunctive)

    def _anchor(self, quadrant: int) -> AnchorIndex:
        return self.index.anchor_index(quadrant)

    def _postings(self, anchor: AnchorIndex, term_ids: Iterable[int],
                  conjunctive: bool) -> Optional[Tuple[List[int], object]]:
        """``(candidate gids, postings)`` of ``term_ids`` under ``anchor``.

        ``None`` when no sub-region of the anchor can hold an answer.
        """
        postings = []
        for term_id in term_ids:
            view = anchor.store.term_postings(term_id)
            if view is None:
                if conjunctive:
                    return None
                continue  # ANY: a missing keyword just contributes nothing
            postings.append(view)
        if not postings:
            return None
        # The paper's L^R_K: sub-regions containing every keyword
        # (ALL), or at least one keyword (ANY extension).
        region_lists = [list(v.region_gids) for v in postings]
        gids = (intersect_sorted(region_lists) if conjunctive
                else union_sorted(region_lists))
        return (gids, postings) if gids else None

    def _scan_wedge(self, query: DirectionalQuery, sub: _Subquery,
                    band: Band, gid: int, collector: _TopK,
                    stats: Optional[SearchStats],
                    span: Optional[Span] = None) -> None:
        """FINDCANDPOIS: combine POI lists, verify direction + distance.

        ``span`` is the wedge's open ``desks.wedge`` span (``None``
        untraced); the scanner counts ``pois_fetched`` / ``pois_verified``
        on it.
        """
        lists = [view.pois_in(gid) for view in sub.postings]
        if query.match_mode is MatchMode.ALL:
            lists.sort(key=len)
            if not lists or not lists[0]:
                return
            survivors = set(lists[0])
            for other in lists[1:]:
                survivors.intersection_update(other)
                if not survivors:
                    return
        else:
            survivors = set()
            for other in lists:
                survivors.update(other)
            if not survivors:
                return
        self._verify_pois(query, survivors, collector, stats, span)

    def _verify_pois(self, query: DirectionalQuery,
                     poi_ids: Collection[int],
                     collector: _TopK, stats: Optional[SearchStats],
                     span: Optional[Span] = None) -> None:
        """Direction- and distance-test POIs that satisfy the keyword
        predicate, offering the survivors to the collector.  ``span``
        counts them as ``pois_fetched`` / ``pois_verified``."""
        location = query.location
        if span is not None:
            span.add("pois_fetched", len(poi_ids))
        for poi_id in poi_ids:
            if stats is not None:
                stats.pois_examined += 1
                stats.distance_computations += 1
            poi_location = self._collection.location(poi_id)
            if not poi_location.coincides(location):
                theta = location.direction_to(poi_location)
                if not query.interval.contains(theta):
                    continue
            if stats is not None:
                stats.candidates_verified += 1
            if span is not None:
                span.add("pois_verified")
            distance = location.distance_to(poi_location)
            if distance <= collector.kth_distance:
                collector.add(poi_id, distance)


def _slice_sorted(values: Sequence[int], lo: int, hi: int) -> Sequence[int]:
    """Elements of sorted ``values`` in ``[lo, hi)``."""
    start = bisect_left(values, lo)
    end = bisect_left(values, hi, start)
    return values[start:end]

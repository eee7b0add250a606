"""Grid-file baseline: uniform cells with per-cell inverted lists.

The survey literature's other mainstream spatial-keyword family (besides
R-tree hybrids) partitions space into a uniform grid and attaches an
inverted list to each cell.  A top-k query expands cells best-first by
``MINDIST(q, cell)``; keyword filtering intersects the cell's lists;
direction is verified per POI (and optionally pruned per cell with the
same exact subtended-arc test the other baselines can use).

Included as an extra comparator: it shares DESKS's "textual pruning at
spatial-bucket granularity" idea but its buckets ignore both distance
*rings* and *direction*, which is exactly what the DESKS structure adds.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..core.query import (
    DirectionalQuery,
    MatchMode,
    QueryResult,
    ResultEntry,
)
from ..datasets import POICollection
from ..geometry import MBR, direction_overlaps_mbr
from ..storage import SearchStats
from ..text import intersect_sorted, union_sorted


class GridIndex:
    """Uniform grid with per-cell keyword inverted lists."""

    name = "grid"

    def __init__(self, collection: POICollection,
                 target_pois_per_cell: float = 16.0) -> None:
        if target_pois_per_cell <= 0:
            raise ValueError(
                f"target_pois_per_cell must be positive: "
                f"{target_pois_per_cell}")
        self.collection = collection
        started = time.perf_counter()
        n = len(collection)
        self.cells_per_side = max(
            1, int(math.sqrt(n / target_pois_per_cell)))
        mbr = collection.mbr
        # Degenerate extents (collinear datasets) still need positive cell
        # sizes for the coordinate->cell arithmetic.
        self._cell_w = max(mbr.width / self.cells_per_side, 1e-12)
        self._cell_h = max(mbr.height / self.cells_per_side, 1e-12)
        self._origin_x = mbr.min_x
        self._origin_y = mbr.min_y
        #: cell id -> poi ids (sorted), and cell id -> term -> poi ids.
        self._cell_pois: Dict[int, List[int]] = {}
        self._cell_terms: Dict[int, Dict[int, List[int]]] = {}
        for poi in collection:
            cell = self._cell_of(poi.location.x, poi.location.y)
            self._cell_pois.setdefault(cell, []).append(poi.poi_id)
            terms = self._cell_terms.setdefault(cell, {})
            for term_id in collection.term_id_sets[poi.poi_id]:
                terms.setdefault(term_id, []).append(poi.poi_id)
        self.build_seconds = time.perf_counter() - started

    # -- geometry ------------------------------------------------------------

    def _cell_of(self, x: float, y: float) -> int:
        col = min(int((x - self._origin_x) / self._cell_w),
                  self.cells_per_side - 1)
        row = min(int((y - self._origin_y) / self._cell_h),
                  self.cells_per_side - 1)
        return max(row, 0) * self.cells_per_side + max(col, 0)

    def cell_mbr(self, cell: int) -> MBR:
        """The rectangle of a cell id."""
        row, col = divmod(cell, self.cells_per_side)
        x0 = self._origin_x + col * self._cell_w
        y0 = self._origin_y + row * self._cell_h
        return MBR(x0, y0, x0 + self._cell_w, y0 + self._cell_h)

    # -- size ---------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """4 B per posting + 8 B per (cell, term) directory entry."""
        postings = sum(len(pois) for terms in self._cell_terms.values()
                       for pois in terms.values())
        headers = sum(len(terms) for terms in self._cell_terms.values())
        return 4 * postings + 8 * headers + 16 * len(self._cell_pois)

    # -- search ------------------------------------------------------------------

    def search(self, query: DirectionalQuery,
               stats: Optional[SearchStats] = None,
               prune_direction: bool = False) -> QueryResult:
        """Best-first cell expansion; same verification as the baselines."""
        term_ids = self.collection.query_term_ids(
            query.keywords,
            require_all=query.match_mode is MatchMode.ALL)
        if term_ids is None:
            return QueryResult([])
        out: List[ResultEntry] = []
        for poi_id, distance in self._candidates(query, term_ids, stats,
                                                 prune_direction):
            poi = self.collection[poi_id]
            if stats is not None:
                stats.candidates_verified += 1
            if not query.matches(poi.location, poi.keywords):
                continue
            out.append(ResultEntry(poi_id, distance))
            if len(out) == query.k:
                break
        return QueryResult(out)

    def _candidates(self, query: DirectionalQuery,
                    term_ids: FrozenSet[int],
                    stats: Optional[SearchStats],
                    prune_direction: bool,
                    ) -> Iterator[Tuple[int, float]]:
        """POIs in distance order, cell by cell, keyword-filtered."""
        q = query.location
        conjunctive = query.match_mode is MatchMode.ALL
        # Heap entries: (distance, tiebreak, kind, payload) where kind is
        # "cell" (payload = cell id, distance = MINDIST) or "poi"
        # (payload = poi id, distance exact).
        heap: List[Tuple[float, int, str, int]] = []
        counter = 0
        for cell in self._cell_pois:
            box = self.cell_mbr(cell)
            if prune_direction and not direction_overlaps_mbr(
                    q, query.interval, box):
                continue
            heapq.heappush(
                heap, (box.min_distance_to_point(q), counter, "cell", cell))
            counter += 1
        while heap:
            distance, _, kind, payload = heapq.heappop(heap)
            if kind == "poi":
                yield payload, distance
                continue
            if stats is not None:
                stats.nodes_examined += 1
            terms = self._cell_terms.get(payload, {})
            lists = [terms.get(t, []) for t in term_ids]
            if conjunctive:
                matching = intersect_sorted(lists)
            else:
                matching = union_sorted(lists)
            for poi_id in matching:
                if stats is not None:
                    stats.pois_examined += 1
                    stats.distance_computations += 1
                d = q.distance_to(self.collection.location(poi_id))
                heapq.heappush(heap, (d, counter, "poi", poi_id))
                counter += 1

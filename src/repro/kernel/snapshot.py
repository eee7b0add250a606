"""The frozen columnar image of a DesksIndex.

The object-path index stores POIs behind keyword stores and per-POI
``Point`` objects; the hot loop pays one attribute walk per POI.  The
snapshot lays the same data out as parallel arrays, position-indexed by
each anchor's ``poi_order`` (band-major, direction-sorted — the paper's
``LP_k`` sort key), so one wedge of one band is one contiguous slice
everywhere:

========================  =======  ==============================================
array                     dtype    invariant
========================  =======  ==============================================
``AnchorColumns.xs``      float64  world x of the POI at each position
``AnchorColumns.ys``      float64  world y of the POI at each position
``AnchorColumns.poi_ids`` int64    ``poi_order`` itself: position -> POI id
``AnchorColumns.sub_starts`` int64 ``num_subregions + 1`` slice bounds; wedge
                                   ``gid`` spans ``[sub_starts[gid],
                                   sub_starts[gid + 1])``
``TermColumns.positions`` int64    sorted positions of the keyword's POIs (the
                                   id runs: contiguous per wedge by construction)
``TermColumns.region_gids`` int64  sorted unique wedge gids containing the term
========================  =======  ==============================================

Coordinates are **world** coordinates, not canonical-frame ones, so the
kernel's ``xs[pos] - q.x`` is the same IEEE subtraction the object path
performs in ``Point.distance_to`` / ``direction_to`` — the root of the
bit-exactness guarantee.

Only ``xs`` and ``ys`` are made here (one gather each per anchor).
``poi_ids`` and ``sub_starts`` are the anchor's own
:class:`~repro.core.regions.AnchorRegions` arrays, both ``TermColumns``
fields are slices of the memory store's
:class:`~repro.core.stores.TermLayout` (the one vectorised pass that
also feeds the object path's posting lists), and the cheap geometry
(``bands``, ``subregions``, ``candidate_wedge_range``) is referenced
from ``AnchorRegions`` as before — shared, not copied.

The snapshot is frozen: it images the index at compile time and never
observes later mutations, which is why the service layer refuses to
pair it with a ``MutableDesksIndex``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional

import numpy as np

from ..core.index import DesksIndex
from ..core.regions import AnchorRegions
from ..core.stores import TermLayout, TermPairs
from ..geometry import CanonicalFrame


@dataclass(frozen=True)
class TermColumns:
    """One keyword's id runs inside one anchor's positional layout."""

    #: Sorted positions (into ``poi_order``) of the POIs carrying the term.
    positions: "np.ndarray"
    #: Sorted unique gids of the wedges containing at least one such POI.
    region_gids: "np.ndarray"


class _TermColumnsView(Mapping):
    """``term id -> TermColumns``, cut from a :class:`TermLayout` on demand.

    Both columns of a term are slices of the layout's flat arrays (no
    copy); the small ``TermColumns`` holding them is made on first use
    and kept.
    """

    __slots__ = ("_layout", "_columns")

    def __init__(self, layout: TermLayout) -> None:
        self._layout = layout
        self._columns: Dict[int, TermColumns] = {}

    def __getitem__(self, term_id: int) -> TermColumns:
        columns = self._columns.get(term_id)
        if columns is None:
            layout = self._layout
            region_gids, _, positions = layout.term_arrays(
                layout.pairs.slot_of[term_id])
            columns = self._columns.setdefault(
                term_id, TermColumns(positions, region_gids))
        return columns

    def __iter__(self) -> Iterator[int]:
        return iter(self._layout.pairs.slot_of)

    def __len__(self) -> int:
        return len(self._layout.pairs.slot_of)

    @property
    def nbytes(self) -> int:
        """Bytes of every term's two columns."""
        return self._layout.positions.nbytes + self._layout.region_gids.nbytes


class AnchorColumns:
    """Struct-of-arrays image of one anchor corner (see module docstring)."""

    __slots__ = ("quadrant", "frame", "regions", "xs", "ys", "poi_ids",
                 "sub_starts", "terms")

    def __init__(self, quadrant: int, frame: CanonicalFrame,
                 regions: AnchorRegions, xs: "np.ndarray", ys: "np.ndarray",
                 poi_ids: "np.ndarray", sub_starts: "np.ndarray",
                 terms: _TermColumnsView) -> None:
        self.quadrant = quadrant
        self.frame = frame
        self.regions = regions
        self.xs = xs
        self.ys = ys
        self.poi_ids = poi_ids
        self.sub_starts = sub_starts
        self.terms = terms

    @property
    def nbytes(self) -> int:
        """Bytes held by this anchor's arrays (term columns included)."""
        return (self.xs.nbytes + self.ys.nbytes + self.poi_ids.nbytes
                + self.sub_starts.nbytes + self.terms.nbytes)


class ColumnarSnapshot:
    """A frozen, position-indexed image of every built anchor."""

    def __init__(self, index: DesksIndex) -> None:
        tick = time.perf_counter()
        self.index = index
        self.collection = index.collection
        count = len(self.collection)
        world_x = np.fromiter((poi.location.x for poi in self.collection),
                              dtype=np.float64, count=count)
        world_y = np.fromiter((poi.location.y for poi in self.collection),
                              dtype=np.float64, count=count)
        term_pairs: Optional[TermPairs] = None
        self.anchors: List[Optional[AnchorColumns]] = [None] * 4
        for quadrant, anchor in enumerate(index.anchors):
            if anchor is None:
                continue
            regions = anchor.regions
            # A memory store's layout is shared as it is; a disk-backed
            # store keeps none, so the same pass lays one out here.
            layout = getattr(anchor.store, "layout", None)
            if layout is None:
                if term_pairs is None:
                    term_pairs = TermPairs([self.collection.term_ids(poi_id)
                                            for poi_id in range(count)])
                layout = TermLayout(regions, term_pairs)
            order = regions.order_array
            self.anchors[quadrant] = AnchorColumns(
                quadrant, anchor.frame, regions, world_x[order],
                world_y[order], order, regions.sub_starts,
                _TermColumnsView(layout))
        self.build_seconds = time.perf_counter() - tick

    @classmethod
    def from_index(cls, index: DesksIndex) -> "ColumnarSnapshot":
        """Compile ``index`` into a snapshot (alias for the constructor)."""
        return cls(index)

    def anchor_columns(self, quadrant: int) -> AnchorColumns:
        """The columnar image for ``quadrant``; raises if it wasn't built."""
        columns = self.anchors[quadrant]
        if columns is None:
            raise ValueError(
                f"anchor {quadrant} was not built for this index")
        return columns

    @property
    def nbytes(self) -> int:
        """Total bytes held by the snapshot's arrays."""
        return sum(columns.nbytes for columns in self.anchors
                   if columns is not None)

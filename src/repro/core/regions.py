"""The direction-aware region structure of one anchor corner.

This is the paper's Section II-B index, built in the anchor's canonical
frame (:mod:`repro.geometry.frames`):

1. sort POIs by distance to the anchor and cut them into ``N`` distance
   *bands* ``R_1..R_N`` (quarter concentric rings); POIs with equal distance
   never straddle a band boundary;
2. inside each band, sort POIs by direction to the anchor and cut them into
   ``M`` angular *sub-regions* ``R_i1..R_iM``; equal directions never
   straddle a sub-region boundary.

The resulting ``poi_order`` — band-major, direction-sorted — is the sort key
for every keyword posting list, which is what makes the paper's
pointer-sliced inverted lists possible.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..geometry import HALF_PI, CanonicalFrame, Point
from ..storage import (
    decode_floats,
    decode_uint_list,
    encode_floats,
    encode_uint_list,
)


@dataclass
class Subregion:
    """One angular sub-region ``R_ij`` of a band.

    ``theta_lo`` is the minimal POI direction inside it (the paper's
    ``theta_{ij-1}``); ``theta_hi`` is the next sub-region's ``theta_lo``
    (``theta_ij``), or ``pi/2`` for the band's last sub-region.  ``start``
    and ``end`` slice the anchor's ``poi_order``.
    """

    gid: int
    band_index: int
    theta_lo: float
    theta_hi: float
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class Band:
    """One distance band ``R_i`` with its angular sub-regions."""

    index: int
    inner_radius: float
    outer_radius: float
    subregions: List[Subregion] = field(default_factory=list)

    @property
    def size(self) -> int:
        return sum(s.size for s in self.subregions)

    @property
    def first_gid(self) -> int:
        return self.subregions[0].gid

    @property
    def theta_breaks(self) -> List[float]:
        """Sub-region lower directions, for binary searching."""
        return [s.theta_lo for s in self.subregions]


class AnchorRegions:
    """Bands, sub-regions, and the canonical per-POI polar coordinates."""

    def __init__(self, frame: CanonicalFrame,
                 locations: Sequence[Point],
                 num_bands: int, num_wedges: int) -> None:
        if num_bands <= 0 or num_wedges <= 0:
            raise ValueError(
                f"need positive band/wedge counts, got {num_bands}/"
                f"{num_wedges}")
        self.frame = frame
        self.num_bands_requested = num_bands
        self.num_wedges_requested = num_wedges

        self.distances, self.thetas = _polar_coordinates(frame, locations)
        by_distance = np.argsort(self.distances, kind="stable")
        sorted_distances = self.distances[by_distance]
        band_cuts = _cuts_with_ties(sorted_distances, num_bands)

        order = np.empty(len(locations), dtype=np.int64)
        self.bands: List[Band] = []
        self.subregions: List[Subregion] = []
        for band_index, (lo, hi) in enumerate(zip(band_cuts, band_cuts[1:])):
            inner = float(sorted_distances[lo])
            band = Band(band_index, inner, math.inf)
            if self.bands:
                self.bands[-1].outer_radius = inner
            chunk = by_distance[lo:hi]
            # Stable, like the distance sort: equal directions keep their
            # distance order, so the layout is a function of the data alone.
            by_theta = chunk[np.argsort(self.thetas[chunk], kind="stable")]
            order[lo:hi] = by_theta
            sorted_thetas = self.thetas[by_theta]
            wedge_cuts = _cuts_with_ties(sorted_thetas, num_wedges)
            for start, end in zip(wedge_cuts, wedge_cuts[1:]):
                sub = Subregion(
                    gid=len(self.subregions),
                    band_index=band_index,
                    theta_lo=float(sorted_thetas[start]),
                    theta_hi=HALF_PI,
                    start=lo + start,
                    end=lo + end,
                )
                if band.subregions:
                    band.subregions[-1].theta_hi = sub.theta_lo
                band.subregions.append(sub)
                self.subregions.append(sub)
            self.bands.append(band)
        # The first band's inner arc is the paper's r_0 (= nearest POI); the
        # last band is unbounded outward (outer_radius stays +inf).
        self._index_positions(order)

    def _index_positions(self, order: "np.ndarray") -> None:
        """Derive every positional lookup from the final ``poi_order``.

        The arrays are what the keyword layout and the columnar snapshot
        gather through; the lists serve scalar indexing, where they beat
        numpy scalars.
        """
        count = order.size
        self.order_array = order
        self.position_array = np.empty(count, dtype=np.int64)
        self.position_array[order] = np.arange(count, dtype=np.int64)
        #: ``num_subregions + 1`` slice bounds: sub-region ``gid`` owns
        #: positions ``[sub_starts[gid], sub_starts[gid + 1])``.
        self.sub_starts = np.zeros(len(self.subregions) + 1, dtype=np.int64)
        self.sub_starts[1:] = [sub.end for sub in self.subregions]
        self.poi_order: List[int] = order.tolist()
        self.position_of: List[int] = self.position_array.tolist()
        self._inner_radii = [b.inner_radius for b in self.bands]

    # -- lookups -----------------------------------------------------------

    @property
    def num_bands(self) -> int:
        return len(self.bands)

    @property
    def num_subregions(self) -> int:
        return len(self.subregions)

    def band_of_distance(self, distance: float) -> int:
        """Index of the band whose radius range holds ``distance``.

        Distances below the first band's inner arc map to band 0 (the query
        then sits inside the inner arc, handled by the MINDIST cases);
        distances beyond every arc map to the last band.
        """
        idx = bisect_right(self._inner_radii, distance) - 1
        return max(idx, 0)

    def band_of_poi(self, poi_id: int) -> int:
        """Band index containing a POI."""
        return self.subregion_of_poi(poi_id).band_index

    def subregion_of_poi(self, poi_id: int) -> Subregion:
        """Sub-region containing a POI (by its position in poi_order)."""
        position = self.position_of[poi_id]
        lo, hi = 0, len(self.subregions) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.subregions[mid].end <= position:
                lo = mid + 1
            else:
                hi = mid
        return self.subregions[lo]

    def candidate_wedge_range(self, band: Band, tau_lo: float,
                              tau_hi: float) -> Tuple[int, int]:
        """Sub-region index range of ``band`` overlapping ``[tau_lo, tau_hi]``.

        Implements Lemma 3/4's binary searches: a sub-region with direction
        range ``[theta_lo, theta_hi)`` is prunable when ``theta_hi <= tau_lo``
        or ``theta_lo > tau_hi``.  Returns a half-open ``(first, last+1)``
        pair into ``band.subregions``.

        The band's *last* sub-region is the exception to the half-open
        convention: its ``theta_hi`` is pinned to ``pi/2`` but POIs at
        exactly ``pi/2`` live inside it, so it is closed at the top and
        must not be pruned by ``theta_hi <= tau_lo``.
        """
        breaks = band.theta_breaks
        # First sub-region whose *upper* bound exceeds tau_lo: since
        # theta_hi[j] == theta_lo[j+1], that is the last j with
        # theta_lo[j] <= tau_lo, except when its theta_hi == tau_lo.
        first = bisect_right(breaks, tau_lo) - 1
        if first < 0:
            first = 0
        elif (band.subregions[first].theta_hi <= tau_lo
              and first + 1 < len(band.subregions)):
            first += 1
        # Last sub-region whose lower bound is <= tau_hi.
        last = bisect_right(breaks, tau_hi) - 1
        if last < first:
            return (first, first)  # empty range
        return (first, last + 1)


    # -- serialization ---------------------------------------------------------

    def to_blob(self) -> bytes:
        """Serialize the region skeleton (not the POI coordinates).

        The per-POI distances/thetas are recomputed on load — they are
        cheap linear passes; what the blob preserves is the result of the
        two expensive global sorts: ``poi_order`` and the band/sub-region
        boundaries.
        """
        parts = [
            encode_uint_list([self.num_bands_requested,
                              self.num_wedges_requested]),
            encode_uint_list(self.poi_order),
            encode_uint_list([len(b.subregions) for b in self.bands]),
            encode_floats([b.inner_radius for b in self.bands]),
            encode_floats([s.theta_lo for s in self.subregions]),
            encode_uint_list([s.size for s in self.subregions]),
        ]
        return b"".join(parts)

    @classmethod
    def from_blob(cls, frame: CanonicalFrame, locations: Sequence[Point],
                  blob: bytes) -> "AnchorRegions":
        """Reconstruct a structure serialized by :meth:`to_blob`."""
        offset = 0
        requested, offset = decode_uint_list(blob, offset)
        poi_order, offset = decode_uint_list(blob, offset)
        band_counts, offset = decode_uint_list(blob, offset)
        inner_radii, offset = decode_floats(blob, offset)
        theta_los, offset = decode_floats(blob, offset)
        sizes, offset = decode_uint_list(blob, offset)
        if len(requested) != 2 or len(band_counts) != len(inner_radii):
            raise ValueError("malformed anchor-regions blob")
        if len(poi_order) != len(locations):
            raise ValueError(
                f"blob indexes {len(poi_order)} POIs but the collection "
                f"has {len(locations)}")
        if sum(band_counts) != len(theta_los) or len(theta_los) != len(sizes):
            raise ValueError("inconsistent sub-region tables in blob")
        if sum(sizes) != len(poi_order):
            raise ValueError("sub-region sizes do not cover the POI order")

        obj = cls.__new__(cls)
        obj.frame = frame
        obj.num_bands_requested, obj.num_wedges_requested = requested
        obj.distances, obj.thetas = _polar_coordinates(frame, locations)
        order = np.asarray(poi_order, dtype=np.int64)
        obj.bands = []
        obj.subregions = []
        cursor = 0
        sub_idx = 0
        for band_index, (count, inner) in enumerate(
                zip(band_counts, inner_radii)):
            band = Band(band_index, inner, math.inf)
            if obj.bands:
                obj.bands[-1].outer_radius = inner
            for _ in range(count):
                sub = Subregion(
                    gid=len(obj.subregions),
                    band_index=band_index,
                    theta_lo=theta_los[sub_idx],
                    theta_hi=HALF_PI,
                    start=cursor,
                    end=cursor + sizes[sub_idx],
                )
                if band.subregions:
                    band.subregions[-1].theta_hi = sub.theta_lo
                band.subregions.append(sub)
                obj.subregions.append(sub)
                cursor = sub.end
                sub_idx += 1
            obj.bands.append(band)
        obj._index_positions(order)
        return obj


def _polar_coordinates(frame: CanonicalFrame, locations: Sequence[Point],
                       ) -> Tuple["np.ndarray", "np.ndarray"]:
    """Per-POI (distance, direction) to the anchor, vectorised.

    A POI exactly on the anchor has no direction; it gets 0, the bottom of
    the quadrant.
    """
    xs = np.fromiter((p.x for p in locations), dtype=float,
                     count=len(locations))
    ys = np.fromiter((p.y for p in locations), dtype=float,
                     count=len(locations))
    cx, cy = frame.to_canonical_xy(xs, ys)
    distances = np.hypot(cx, cy)
    thetas = np.where(distances > 0.0, np.arctan2(cy, cx), 0.0)
    return distances, thetas


def _cuts_with_ties(sorted_keys: "np.ndarray", buckets: int) -> List[int]:
    """Cut points of ~``buckets`` chunks of ``sorted_keys``; equal keys
    stay together.

    The paper's partitioning rule: fill each bucket to the target size, then
    keep absorbing items whose key equals the bucket's last key, so a band
    boundary never falls between equal distances (or a wedge boundary
    between equal directions).  Chunk ``c`` is ``[cuts[c], cuts[c + 1])``.
    """
    n = len(sorted_keys)
    cuts = [0]
    target = max(1, round(n / buckets))
    # A cut may only fall where the key changes: absorbing ties moves it to
    # the first such place at or after the target fill.
    run_starts = (np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1])
                  + 1).tolist()
    while cuts[-1] < n:
        at = bisect_left(run_starts, cuts[-1] + target)
        cuts.append(run_starts[at] if at < len(run_starts) else n)
    return cuts

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
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..geometry import HALF_PI, CanonicalFrame
from ..storage import (
    decode_floats,
    decode_uint_list,
    encode_floats,
    encode_uint_list,
)
from .mindist import BoundaryColumns


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


class AnchorRegions:
    """Bands, sub-regions, and the canonical per-POI polar coordinates."""

    def __init__(self, frame: CanonicalFrame,
                 xs: Sequence[float], ys: Sequence[float],
                 num_bands: int, num_wedges: int) -> None:
        distances, thetas = _polar_coordinates(frame, xs, ys)
        self._lay_out(frame, distances, thetas, num_bands, num_wedges,
                      np.argsort(distances, kind="stable"), None)

    @classmethod
    def following(cls, previous: "Orders", frame: CanonicalFrame,
                  keep: int, xs: Sequence[float], ys: Sequence[float],
                  num_bands: int, num_wedges: int) -> "AnchorRegions":
        """What ``AnchorRegions(frame, ...)`` builds over the first
        ``keep`` POIs of the structure ``previous`` was taken from
        (:meth:`orders`) followed by POIs at ``xs``/``ys`` (ids ``keep``
        on), sorted from ``previous``.

        ``frame`` must be ``previous``'s to the bit
        (:meth:`Orders.can_precede`): the kept POIs' polar coordinates are
        then ``previous``'s, and only the appended ones are computed.  The
        distance sort starts from the kept POIs in their old stable order,
        which timsort takes as one run; equal distances come out in id
        order as in a fresh sort, since every appended id is above every
        kept one.  The direction sort starts from every kept POI in
        (direction, distance rank) order — one stable sort of the old
        band-major ``order_array`` by direction gives it — then the
        appended POIs in distance order.  A direction shared by a kept and
        an appended POI is the one thing that seed cannot place (the
        distance rank decides it), so it falls back to sorting each band.
        """
        tail_distances, tail_thetas = _polar_coordinates(frame, xs, ys)
        distances = np.concatenate((previous.distances[:keep],
                                    tail_distances))
        thetas = np.concatenate((previous.thetas[:keep], tail_thetas))
        old = previous.by_distance
        seed = np.concatenate((old[old < keep],
                               np.arange(keep, distances.size,
                                         dtype=np.int64)))
        by_distance = seed[np.argsort(distances[seed], kind="stable")]
        old = previous.order_array
        old = old[np.argsort(previous.thetas[old], kind="stable")]
        kept = old[old < keep]
        kept_thetas = thetas[kept]
        at = np.searchsorted(kept_thetas, tail_thetas)
        inside = at < kept.size
        if np.any(kept_thetas[at[inside]] == tail_thetas[inside]):
            by_theta = None
        else:
            seed = np.concatenate((kept, by_distance[by_distance >= keep]))
            by_theta = seed[np.argsort(thetas[seed], kind="stable")]
        obj = cls.__new__(cls)
        obj._lay_out(frame, distances, thetas, num_bands, num_wedges,
                     by_distance, by_theta)
        return obj

    def orders(self) -> "Optional[Orders]":
        """What :meth:`following` reads of this structure, or ``None``
        when it kept no distance order (only a mutable index's snapshot
        keeps one: :meth:`~repro.core.DesksIndex._rebuildable`)."""
        if self.by_distance is None:
            return None
        return Orders(self.frame, self.distances, self.thetas,
                      self.by_distance, self.order_array)

    def _lay_out(self, frame: CanonicalFrame, distances: "np.ndarray",
                 thetas: "np.ndarray", num_bands: int, num_wedges: int,
                 by_distance: "np.ndarray",
                 by_theta: "Optional[np.ndarray]") -> None:
        """Cut bands along ``by_distance`` (every id, stable distance
        order) and sub-regions inside each band.  ``by_theta``, when
        given, is every id in (direction, distance rank) order, and each
        band's direction order is its members' subsequence of it;
        otherwise each band is sorted on its own."""
        if num_bands <= 0 or num_wedges <= 0:
            raise ValueError(
                f"need positive band/wedge counts, got {num_bands}/"
                f"{num_wedges}")
        self.frame = frame
        self.num_bands_requested = num_bands
        self.num_wedges_requested = num_wedges
        self.distances, self.thetas = distances, thetas
        #: Every id in stable distance order: where the next build after
        #: an append starts (:meth:`following`).  ``None`` unless the
        #: index is a mutable index's snapshot.
        self.by_distance = by_distance
        sorted_distances = distances[by_distance]
        band_cuts = _cuts_with_ties(sorted_distances, num_bands)

        if by_theta is None:
            order = np.empty(len(distances), dtype=np.int64)
            for lo, hi in zip(band_cuts, band_cuts[1:]):
                chunk = by_distance[lo:hi]
                # Stable, like the distance sort: equal directions keep
                # their distance order, so the layout is a function of the
                # data alone.
                order[lo:hi] = chunk[np.argsort(thetas[chunk], kind="stable")]
        else:
            # A stable sort by band of the global direction order; band
            # numbers fit a small integer type, which numpy radix-sorts.
            band_of = np.empty(len(distances),
                               dtype=np.min_scalar_type(len(band_cuts)))
            band_of[by_distance] = np.repeat(
                np.arange(len(band_cuts) - 1, dtype=band_of.dtype),
                np.diff(band_cuts))
            order = by_theta[np.argsort(band_of[by_theta], kind="stable")]

        self.bands: List[Band] = []
        self.subregions: List[Subregion] = []
        for band_index, (lo, hi) in enumerate(zip(band_cuts, band_cuts[1:])):
            inner = float(sorted_distances[lo])
            band = Band(band_index, inner, math.inf)
            if self.bands:
                self.bands[-1].outer_radius = inner
            sorted_thetas = thetas[order[lo:hi]]
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
        numpy scalars.  Nothing here is saved: a loaded index derives the
        same lookups from the same order and sub-regions.
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
        #: Every sub-region's direction range and its trigonometry, by
        #: gid: what Table I (:func:`~repro.core.mindist.
        #: subregion_mindists`) and the wedge window read.
        self.boundaries = BoundaryColumns.of(
            [sub.theta_lo for sub in self.subregions],
            [sub.theta_hi for sub in self.subregions])

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
        breaks = self.boundaries.theta_lo  # sorted within the band
        first_gid = band.first_gid
        end_gid = first_gid + len(band.subregions)
        # First sub-region whose *upper* bound exceeds tau_lo: since
        # theta_hi[j] == theta_lo[j+1], that is the last j with
        # theta_lo[j] <= tau_lo, except when its theta_hi == tau_lo.
        first = bisect_right(breaks, tau_lo, first_gid, end_gid) - 1 \
            - first_gid
        if first < 0:
            first = 0
        elif (band.subregions[first].theta_hi <= tau_lo
              and first + 1 < len(band.subregions)):
            first += 1
        # Last sub-region whose lower bound is <= tau_hi.
        last = bisect_right(breaks, tau_hi, first_gid, end_gid) - 1 \
            - first_gid
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
    def from_blob(cls, frame: CanonicalFrame, xs: Sequence[float],
                  ys: Sequence[float], blob: bytes) -> "AnchorRegions":
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
        if len(poi_order) != len(xs):
            raise ValueError(
                f"blob indexes {len(poi_order)} POIs but the collection "
                f"has {len(xs)}")
        if sum(band_counts) != len(theta_los) or len(theta_los) != len(sizes):
            raise ValueError("inconsistent sub-region tables in blob")
        if sum(sizes) != len(poi_order):
            raise ValueError("sub-region sizes do not cover the POI order")

        obj = cls.__new__(cls)
        obj.frame = frame
        obj.num_bands_requested, obj.num_wedges_requested = requested
        obj.distances, obj.thetas = _polar_coordinates(frame, xs, ys)
        obj.by_distance = None      # not saved: the next build sorts anew
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


class Orders(NamedTuple):
    """One anchor's orders, without the rest of its structure: what
    :meth:`AnchorRegions.following` reads, and what a mutable index's
    unbuilt snapshot holds of the last built one in place of its index
    (:class:`~repro.core.index.Seed`)."""

    frame: CanonicalFrame
    #: Polar coordinates by POI id.
    distances: "np.ndarray"
    thetas: "np.ndarray"
    #: Every id in stable distance order.
    by_distance: "np.ndarray"
    #: The band-major, direction-minor ``poi_order``.
    order_array: "np.ndarray"

    def can_precede(self, frame: CanonicalFrame) -> bool:
        """Whether :meth:`AnchorRegions.following` may start from these
        orders: ``frame`` is theirs, sign of zero included."""
        return (frame.anchor is self.frame.anchor
                and _bits(frame.mbr) == _bits(self.frame.mbr))


def _polar_coordinates(frame: CanonicalFrame, xs: Sequence[float],
                       ys: Sequence[float],
                       ) -> Tuple["np.ndarray", "np.ndarray"]:
    """Per-POI (distance, direction) to the anchor, vectorised.

    ``xs``/``ys`` are the world coordinates by POI id, as float64 arrays
    (converted here when they are not).  A POI exactly on the anchor has
    no direction; it gets 0, the bottom of the quadrant.
    """
    cx, cy = frame.to_canonical_xy(np.asarray(xs, dtype=np.float64),
                                   np.asarray(ys, dtype=np.float64))
    distances = np.hypot(cx, cy)
    thetas = np.where(distances > 0.0, np.arctan2(cy, cx), 0.0)
    return distances, thetas


def _bits(mbr) -> List[str]:
    """An MBR's four bounds, told apart to the bit (``0.0`` from ``-0.0``)."""
    return [float(v).hex()
            for v in (mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y)]


def _cuts_with_ties(sorted_keys: "np.ndarray", buckets: int) -> List[int]:
    """Cut points of ~``buckets`` chunks of ``sorted_keys``; equal keys
    stay together.

    The paper's partitioning rule: fill each bucket to the target size, then
    keep absorbing items whose key equals the bucket's last key, so a band
    boundary never falls between equal distances (or a wedge boundary
    between equal directions).  Chunk ``c`` is ``[cuts[c], cuts[c + 1])``.
    """
    n = len(sorted_keys)
    target = max(1, round(n / buckets))
    ideal = np.arange(target, n, target)
    if n and np.all(sorted_keys[ideal] != sorted_keys[ideal - 1]):
        return [0, *ideal.tolist(), n]    # no tie at any target fill
    cuts = [0]
    # A cut may only fall where the key changes: absorbing ties moves it to
    # the first such place at or after the target fill.
    run_starts = (np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1])
                  + 1).tolist()
    while cuts[-1] < n:
        at = bisect_left(run_starts, cuts[-1] + target)
        cuts.append(run_starts[at] if at < len(run_starts) else n)
    return cuts

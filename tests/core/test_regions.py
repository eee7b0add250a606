"""Tests for the anchor band/sub-region structure (paper Sec. II-B)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.regions import AnchorRegions, _cuts_with_ties
from repro.geometry import HALF_PI, Anchor, CanonicalFrame, MBR, Point

from .reference_layout import partition_with_ties

RECT = MBR(0.0, 0.0, 100.0, 80.0)
FRAME = CanonicalFrame(Anchor.BOTTOM_LEFT, RECT)


def make_regions(points, n=3, m=4, anchor=Anchor.BOTTOM_LEFT):
    frame = CanonicalFrame(anchor, MBR.from_points(points))
    return AnchorRegions(frame, [p.x for p in points],
                         [p.y for p in points], n, m)


def grid(side=10, step=10.0):
    return [Point(i * step + 1.0, j * step + 1.0)
            for i in range(side) for j in range(side)]


def _partition_with_ties(ordered, buckets, key):
    """The shipped cut (``_cuts_with_ties`` over the sorted key array) as
    chunks of ``ordered``, checked against the reference loop."""
    keys = np.array([key(item) for item in ordered], dtype=float)
    cuts = _cuts_with_ties(keys, buckets)
    chunks = [ordered[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    assert chunks == partition_with_ties(ordered, buckets, key)
    return chunks


class TestPartitionWithTies:
    def test_even_split(self):
        chunks = _partition_with_ties(list(range(10)), 5, key=lambda i: i)
        assert [len(c) for c in chunks] == [2, 2, 2, 2, 2]

    def test_ties_stay_together(self):
        values = [0, 0, 0, 0, 1, 2]
        chunks = _partition_with_ties(list(range(6)), 3,
                                      key=lambda i: values[i])
        # Bucket size 2 would cut between equal keys; ties are absorbed.
        assert chunks[0] == [0, 1, 2, 3]

    def test_single_bucket(self):
        chunks = _partition_with_ties(list(range(5)), 1, key=lambda i: i)
        assert chunks == [[0, 1, 2, 3, 4]]

    def test_more_buckets_than_items(self):
        chunks = _partition_with_ties([0, 1], 10, key=lambda i: i)
        assert chunks == [[0], [1]]

    def test_empty(self):
        assert _partition_with_ties([], 3, key=lambda i: i) == []

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=50),
           st.integers(1, 10))
    def test_partition_properties(self, values, buckets):
        order = sorted(range(len(values)), key=lambda i: values[i])
        chunks = _partition_with_ties(order, buckets,
                                      key=lambda i: values[i])
        # Covers everything exactly once, in order.
        flat = [i for c in chunks for i in c]
        assert flat == order
        # No key value straddles a boundary.
        for a, b in zip(chunks, chunks[1:]):
            assert values[a[-1]] != values[b[0]]


class TestAnchorRegionsStructure:
    def test_counts(self):
        regions = make_regions(grid(), n=4, m=5)
        assert regions.num_bands <= 4
        assert all(len(b.subregions) <= 6 for b in regions.bands)
        assert regions.num_subregions == sum(
            len(b.subregions) for b in regions.bands)

    def test_poi_order_is_permutation(self):
        regions = make_regions(grid())
        assert sorted(regions.poi_order) == list(range(100))
        for poi_id in range(100):
            assert regions.poi_order[regions.position_of[poi_id]] == poi_id

    def test_band_radii_monotone(self):
        regions = make_regions(grid(), n=5)
        radii = [b.inner_radius for b in regions.bands]
        assert radii == sorted(radii)
        for a, b in zip(regions.bands, regions.bands[1:]):
            assert a.outer_radius == pytest.approx(b.inner_radius)
        assert regions.bands[-1].outer_radius == math.inf

    def test_pois_within_band_radii(self):
        regions = make_regions(grid(), n=5)
        for band in regions.bands:
            for sub in band.subregions:
                for pos in range(sub.start, sub.end):
                    d = regions.distances[regions.poi_order[pos]]
                    assert band.inner_radius - 1e-9 <= d
                    if band.outer_radius is not math.inf:
                        assert d < band.outer_radius + 1e-9

    def test_pois_within_subregion_thetas(self):
        regions = make_regions(grid(), n=4, m=6)
        for sub in regions.subregions:
            for pos in range(sub.start, sub.end):
                theta = regions.thetas[regions.poi_order[pos]]
                assert sub.theta_lo - 1e-12 <= theta
                assert theta <= sub.theta_hi + 1e-12

    def test_subregion_theta_chain(self):
        regions = make_regions(grid(), n=3, m=5)
        for band in regions.bands:
            subs = band.subregions
            for a, b in zip(subs, subs[1:]):
                assert a.theta_hi == pytest.approx(b.theta_lo)
            assert subs[-1].theta_hi == pytest.approx(HALF_PI)

    def test_gids_sequential(self):
        regions = make_regions(grid(), n=3, m=4)
        assert [s.gid for s in regions.subregions] == list(
            range(regions.num_subregions))
        # Band gid ranges are contiguous.
        for band in regions.bands:
            gids = [s.gid for s in band.subregions]
            assert gids == list(range(band.first_gid,
                                      band.first_gid + len(gids)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_regions(grid(), n=0)
        with pytest.raises(ValueError):
            make_regions(grid(), m=0)

    def test_all_anchors_quadrant_thetas(self):
        """Canonical thetas must land in [0, pi/2] for every anchor."""
        pts = grid()
        for anchor in Anchor:
            regions = make_regions(pts, anchor=anchor)
            for theta in regions.thetas:
                assert -1e-9 <= theta <= HALF_PI + 1e-9

    def test_poi_on_anchor_gets_theta_zero(self):
        pts = [Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 0.5)]
        regions = make_regions(pts, n=1, m=1)
        assert regions.thetas[0] == 0.0

    def test_all_same_distance_single_band(self):
        # All points at distance 5 from their own MBR's bottom-left (0, 0).
        pts = [Point(0.0, 5.0), Point(3.0, 4.0), Point(4.0, 3.0),
               Point(5.0, 0.0)]
        regions = make_regions(pts, n=3, m=2)
        assert regions.num_bands == 1


class TestLookups:
    def test_band_of_distance(self):
        regions = make_regions(grid(), n=5)
        for band in regions.bands:
            mid = (band.inner_radius
                   + (band.inner_radius + 5.0 if band.outer_radius is math.inf
                      else band.outer_radius)) / 2.0
            assert regions.band_of_distance(mid) == band.index

    def test_band_of_distance_below_first_arc(self):
        regions = make_regions(grid(), n=5)
        assert regions.band_of_distance(0.0) == 0

    def test_band_of_distance_beyond_last(self):
        regions = make_regions(grid(), n=5)
        assert regions.band_of_distance(1e9) == regions.num_bands - 1

    def test_subregion_of_poi(self):
        regions = make_regions(grid(), n=4, m=5)
        for poi_id in range(100):
            sub = regions.subregion_of_poi(poi_id)
            pos = regions.position_of[poi_id]
            assert sub.start <= pos < sub.end

    def test_band_of_poi_matches_distance(self):
        regions = make_regions(grid(), n=4, m=5)
        for poi_id in range(0, 100, 7):
            band_idx = regions.band_of_poi(poi_id)
            band = regions.bands[band_idx]
            d = regions.distances[poi_id]
            assert band.inner_radius - 1e-9 <= d
            if band.outer_radius is not math.inf:
                assert d < band.outer_radius + 1e-9


class TestCandidateWedgeRange:
    def test_full_range(self):
        regions = make_regions(grid(), n=2, m=4)
        band = regions.bands[0]
        lo, hi = regions.candidate_wedge_range(band, 0.0, HALF_PI)
        assert (lo, hi) == (0, len(band.subregions))

    def test_narrow_range(self):
        regions = make_regions(grid(), n=2, m=4)
        band = regions.bands[0]
        target = band.subregions[1]
        mid = (target.theta_lo + target.theta_hi) / 2.0
        lo, hi = regions.candidate_wedge_range(band, mid, mid)
        assert lo <= 1 < hi
        # And the selected range must be minimal: only wedges overlapping.
        for idx in range(lo, hi):
            sub = band.subregions[idx]
            assert sub.theta_lo <= mid
            assert sub.theta_hi >= mid or idx == len(band.subregions) - 1

    def test_range_below_everything(self):
        regions = make_regions(grid(), n=2, m=4)
        band = regions.bands[0]
        first = band.subregions[0]
        if first.theta_lo > 0.01:
            lo, hi = regions.candidate_wedge_range(band, 0.0, 0.0)
            # tau_hi below first theta_lo: empty or first wedge only.
            assert hi - lo <= 1

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, HALF_PI), st.floats(0.0, HALF_PI))
    def test_never_drops_overlapping_wedges(self, a, b):
        tau_lo, tau_hi = min(a, b), max(a, b)
        regions = make_regions(grid(), n=2, m=5)
        for band in regions.bands:
            lo, hi = regions.candidate_wedge_range(band, tau_lo, tau_hi)
            for idx, sub in enumerate(band.subregions):
                overlaps = not (sub.theta_hi <= tau_lo
                                or sub.theta_lo > tau_hi)
                if overlaps:
                    assert lo <= idx < hi

"""Unit and property tests for angle arithmetic and direction intervals."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    HALF_PI,
    TWO_PI,
    DirectionInterval,
    angle_between,
    angle_of,
    interval_from_optional,
    normalize_angle,
    quadrant_of,
    signed_angle,
)

angles = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)
widths = st.floats(min_value=0.0, max_value=TWO_PI,
                   allow_nan=False, allow_infinity=False)


class TestNormalizeAngle:
    def test_identity_in_range(self):
        assert normalize_angle(1.0) == 1.0

    def test_negative_wraps(self):
        assert normalize_angle(-HALF_PI) == pytest.approx(1.5 * math.pi)

    def test_large_positive_wraps(self):
        assert normalize_angle(5 * math.pi) == pytest.approx(math.pi)

    def test_two_pi_maps_to_zero(self):
        assert normalize_angle(TWO_PI) == 0.0

    @given(angles)
    def test_result_in_range(self, theta):
        out = normalize_angle(theta)
        assert 0.0 <= out < TWO_PI

    @given(angles)
    def test_idempotent(self, theta):
        once = normalize_angle(theta)
        assert normalize_angle(once) == once

    @given(angles, st.integers(min_value=-3, max_value=3))
    def test_periodic(self, theta, k):
        # Compare on the circle: theta = -1.3e-15 maps to just below 2*pi,
        # while theta + 6*pi rounds onto a multiple of 2*pi and maps to 0.
        shifted = normalize_angle(theta + k * TWO_PI)
        assert signed_angle(shifted - normalize_angle(theta)) == \
            pytest.approx(0.0, abs=1e-9)


class TestAngleOf:
    def test_east(self):
        assert angle_of(1.0, 0.0) == 0.0

    def test_north(self):
        assert angle_of(0.0, 2.0) == pytest.approx(HALF_PI)

    def test_west(self):
        assert angle_of(-1.0, 0.0) == pytest.approx(math.pi)

    def test_south(self):
        assert angle_of(0.0, -1.0) == pytest.approx(1.5 * math.pi)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            angle_of(0.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=TWO_PI - 1e-9))
    def test_round_trip_unit_vector(self, theta):
        assert angle_of(math.cos(theta), math.sin(theta)) == pytest.approx(
            theta, abs=1e-9)


class TestQuadrantOf:
    @pytest.mark.parametrize("theta,expected", [
        (0.0, 0), (0.3, 0), (HALF_PI, 1), (math.pi - 0.1, 1),
        (math.pi, 2), (1.4 * math.pi, 2), (1.5 * math.pi, 3),
        (TWO_PI - 1e-6, 3),
    ])
    def test_examples(self, theta, expected):
        assert quadrant_of(theta) == expected

    @given(angles)
    def test_consistent_with_bounds(self, theta):
        q = quadrant_of(theta)
        t = normalize_angle(theta)
        assert q * HALF_PI <= t
        assert t < (q + 1) * HALF_PI or q == 3


class TestAngleBetween:
    def test_simple_inside(self):
        assert angle_between(0.5, 0.0, 1.0)

    def test_simple_outside(self):
        assert not angle_between(2.0, 0.0, 1.0)

    def test_wrapping_interval(self):
        # [7pi/4, 9pi/4] crosses the positive x-axis.
        assert angle_between(0.0, 1.75 * math.pi, 2.25 * math.pi)
        assert angle_between(2.2 * math.pi, 1.75 * math.pi, 2.25 * math.pi)
        assert not angle_between(math.pi, 1.75 * math.pi, 2.25 * math.pi)

    def test_full_circle_contains_everything(self):
        assert angle_between(4.1, 0.0, TWO_PI)

    def test_endpoints_inclusive(self):
        assert angle_between(1.0, 1.0, 2.0)
        assert angle_between(2.0, 1.0, 2.0)


class TestDirectionIntervalConstruction:
    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            DirectionInterval(2.0, 1.0)

    def test_rejects_too_wide(self):
        with pytest.raises(ValueError):
            DirectionInterval(0.0, TWO_PI + 0.1)

    def test_normalises_lower(self):
        iv = DirectionInterval(-HALF_PI, 0.0)
        assert iv.lower == pytest.approx(1.5 * math.pi)
        assert iv.width == pytest.approx(HALF_PI)

    def test_full(self):
        assert DirectionInterval.full().is_full

    def test_centered(self):
        iv = DirectionInterval.centered(0.0, math.pi / 3)
        assert iv.contains(0.0)
        assert iv.contains(math.pi / 6 - 1e-9)
        assert iv.contains(-math.pi / 6 + 1e-9)
        assert not iv.contains(math.pi / 2)

    def test_centered_rejects_bad_width(self):
        with pytest.raises(ValueError):
            DirectionInterval.centered(0.0, -0.5)
        with pytest.raises(ValueError):
            DirectionInterval.centered(0.0, TWO_PI + 1.0)

    @given(angles, widths)
    def test_width_preserved(self, lower, width):
        iv = DirectionInterval(lower, lower + width)
        assert iv.width == pytest.approx(width, abs=1e-9)


class TestDirectionIntervalContains:
    @given(angles, widths, angles)
    def test_membership_matches_angle_between(self, lower, width, theta):
        iv = DirectionInterval(lower, lower + width)
        assert iv.contains(theta) == angle_between(theta, iv.lower, iv.upper)

    @given(angles, st.floats(min_value=1e-6, max_value=TWO_PI))
    def test_midpoint_inside(self, lower, width):
        iv = DirectionInterval(lower, lower + width)
        assert iv.contains(iv.midpoint())

    def test_full_contains_all(self):
        iv = DirectionInterval.full()
        for theta in (0.0, 1.0, math.pi, 5.0):
            assert iv.contains(theta)


class TestDirectionIntervalAlgebra:
    def test_widen(self):
        iv = DirectionInterval(1.0, 2.0).widen(0.5, 0.25)
        assert iv.lower == pytest.approx(0.5)
        assert iv.width == pytest.approx(1.75)

    def test_widen_rejects_negative(self):
        with pytest.raises(ValueError):
            DirectionInterval(1.0, 2.0).widen(-0.1, 0.0)

    def test_widen_saturates_at_full(self):
        iv = DirectionInterval(0.0, 6.0).widen(1.0, 1.0)
        assert iv.is_full

    def test_rotate(self):
        iv = DirectionInterval(0.0, 1.0).rotate(HALF_PI)
        assert iv.lower == pytest.approx(HALF_PI)
        assert iv.upper == pytest.approx(HALF_PI + 1.0)

    @given(angles, widths, angles)
    def test_rotate_preserves_width(self, lower, width, delta):
        iv = DirectionInterval(lower, lower + width).rotate(delta)
        assert iv.width == pytest.approx(width, abs=1e-9)

    def test_intersect_disjoint(self):
        a = DirectionInterval(0.0, 1.0)
        b = DirectionInterval(2.0, 3.0)
        assert a.intersect(b) == []

    def test_intersect_nested(self):
        a = DirectionInterval(0.0, 3.0)
        b = DirectionInterval(1.0, 2.0)
        pieces = a.intersect(b)
        assert len(pieces) == 1
        assert pieces[0].lower == pytest.approx(1.0)
        assert pieces[0].upper == pytest.approx(2.0)

    def test_intersect_across_wrap(self):
        a = DirectionInterval(1.75 * math.pi, 2.25 * math.pi)
        b = DirectionInterval(0.0, 1.0)
        pieces = a.intersect(b)
        assert len(pieces) == 1
        assert pieces[0].lower == pytest.approx(0.0)
        assert pieces[0].upper == pytest.approx(0.25 * math.pi)

    def test_intersect_two_pieces(self):
        # Both wide; overlap at both ends.
        a = DirectionInterval(0.0, 1.5 * math.pi)            # [0, 3pi/2]
        b = DirectionInterval(math.pi, math.pi + 1.6 * math.pi)  # wraps
        pieces = a.intersect(b)
        assert len(pieces) == 2

    @given(angles, widths, angles, widths, angles)
    def test_intersection_membership(self, lo1, w1, lo2, w2, theta):
        a = DirectionInterval(lo1, lo1 + w1)
        b = DirectionInterval(lo2, lo2 + w2)
        in_both = a.contains(theta) and b.contains(theta)
        in_pieces = any(p.contains(theta) for p in a.intersect(b))
        # Boundary jitter tolerance: only check strict interior points.
        strict = all(
            min(abs(normalize_angle(theta - e)),
                abs(normalize_angle(e - theta))) > 1e-6
            for e in (a.lower, a.upper, b.lower, b.upper))
        if strict:
            assert in_both == in_pieces

    @given(angles, widths, angles, widths)
    def test_overlaps_agrees_with_intersect(self, lo1, w1, lo2, w2):
        a = DirectionInterval(lo1, lo1 + w1)
        b = DirectionInterval(lo2, lo2 + w2)
        if a.intersect(b):
            assert a.overlaps(b)


class TestDecomposeQuadrants:
    def test_basic_interval_single_piece(self):
        iv = DirectionInterval(0.1, 1.0)
        pieces = iv.decompose_quadrants()
        assert len(pieces) == 1
        q, piece = pieces[0]
        assert q == 0
        assert piece.lower == pytest.approx(0.1)
        assert piece.upper == pytest.approx(1.0)

    def test_two_quadrants(self):
        iv = DirectionInterval(1.0, 2.0)  # spans pi/2
        pieces = iv.decompose_quadrants()
        assert [q for q, _ in pieces] == [0, 1]
        assert pieces[0][1].upper == pytest.approx(HALF_PI)
        assert pieces[1][1].lower == pytest.approx(HALF_PI)

    def test_full_circle_four_pieces(self):
        pieces = DirectionInterval.full().decompose_quadrants()
        assert [q for q, _ in pieces] == [0, 1, 2, 3]
        total = sum(p.width for _, p in pieces)
        assert total == pytest.approx(TWO_PI)

    def test_wrapping_interval(self):
        iv = DirectionInterval(1.75 * math.pi, 2.25 * math.pi)
        pieces = iv.decompose_quadrants()
        quadrants = [q for q, _ in pieces]
        assert set(quadrants) == {3, 0}

    def test_exact_quadrant(self):
        iv = DirectionInterval(HALF_PI, math.pi)
        pieces = iv.decompose_quadrants()
        assert len(pieces) == 1
        assert pieces[0][0] == 1

    @given(angles, st.floats(min_value=1e-3, max_value=TWO_PI))
    def test_pieces_cover_and_stay_in_quadrant(self, lower, width):
        iv = DirectionInterval(lower, lower + width)
        pieces = iv.decompose_quadrants()
        assert 1 <= len(pieces) <= 4
        for q, piece in pieces:
            assert piece.lower >= q * HALF_PI - 1e-9
            assert piece.upper <= (q + 1) * HALF_PI + 1e-9
        # The union of pieces covers the original interval: probe midpoints.
        for frac in (0.01, 0.25, 0.5, 0.75, 0.99):
            theta = iv.lower + frac * iv.width
            assert any(p.contains(theta) for _, p in pieces)

    @given(angles, st.floats(min_value=1e-3, max_value=TWO_PI))
    def test_total_width_at_least_original(self, lower, width):
        # Merging head/tail pieces inside one quadrant may cover extra arc,
        # never less.
        iv = DirectionInterval(lower, lower + width)
        total = sum(p.width for _, p in iv.decompose_quadrants())
        assert total >= iv.width - 1e-9


class TestIntervalFromOptional:
    def test_none_gives_full(self):
        assert interval_from_optional(None, None).is_full
        assert interval_from_optional(1.0, None).is_full

    def test_bounds_given(self):
        iv = interval_from_optional(0.5, 1.5)
        assert iv.lower == pytest.approx(0.5)
        assert iv.upper == pytest.approx(1.5)

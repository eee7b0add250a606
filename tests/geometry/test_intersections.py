"""Tests for the ray-intersection primitives (paper Eqs. 1-3)."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.geometry import (
    HALF_PI,
    Point,
    ray_circle_intersection,
    ray_rectangle_exit,
    ray_ray_distance,
    ray_ray_intersection,
)

inner_coords = st.floats(min_value=0.01, max_value=9.99,
                         allow_nan=False, allow_infinity=False)
quadrant_angles = st.floats(min_value=0.0, max_value=HALF_PI)


class TestRayCircle:
    def test_from_inside_straight_up(self):
        p = ray_circle_intersection(Point(0.0, 0.5), HALF_PI, 2.0)
        assert p is not None
        assert p.x == pytest.approx(0.0, abs=1e-9)
        assert p.y == pytest.approx(2.0)

    def test_on_circle_radius_exact(self):
        q = Point(1.0, 0.0)
        p = ray_circle_intersection(q, HALF_PI, 1.0)
        assert p is not None
        assert math.hypot(p.x, p.y) == pytest.approx(1.0)

    def test_miss_from_outside(self):
        # Pointing away from the circle.
        assert ray_circle_intersection(Point(5.0, 0.0), 0.0, 1.0) is None

    def test_hit_from_outside_takes_near_root(self):
        p = ray_circle_intersection(Point(5.0, 0.0), math.pi, 1.0)
        assert p is not None
        assert p.x == pytest.approx(1.0)
        assert p.y == pytest.approx(0.0, abs=1e-9)

    def test_negative_radius_raises(self):
        with pytest.raises(ValueError):
            ray_circle_intersection(Point(0, 0), 0.0, -1.0)

    @given(inner_coords, inner_coords, quadrant_angles,
           st.floats(min_value=15.0, max_value=50.0))
    def test_result_on_circle_and_on_ray(self, qx, qy, phi, radius):
        q = Point(qx, qy)
        assume(math.hypot(qx, qy) < radius)  # q strictly inside
        p = ray_circle_intersection(q, phi, radius)
        assert p is not None
        assert math.hypot(p.x, p.y) == pytest.approx(radius, rel=1e-9)
        # p - q is parallel to (cos phi, sin phi) and forward.
        dx, dy = p.x - q.x, p.y - q.y
        cross = dx * math.sin(phi) - dy * math.cos(phi)
        dot = dx * math.cos(phi) + dy * math.sin(phi)
        assert abs(cross) < 1e-6 * max(1.0, radius)
        assert dot >= -1e-9


class TestRayRay:
    def test_perpendicular(self):
        # Ray from (1, 0) pointing up meets the 45-degree origin ray at (1,1).
        p = ray_ray_intersection(Point(1.0, 0.0), HALF_PI, math.pi / 4)
        assert p is not None
        assert p.x == pytest.approx(1.0)
        assert p.y == pytest.approx(1.0)

    def test_behind_query_ray_is_none(self):
        # Ray from (2,1) pointing straight down meets the line y=x only at
        # (2,2), which is behind the ray, so no intersection.
        assert ray_ray_intersection(
            Point(2.0, 1.0), 1.5 * math.pi, math.pi / 4) is None

    def test_behind_origin_ray_is_none(self):
        # Query at (-3, 1) pointing down-left: meets the *line* y=x behind
        # the origin ray (negative s), so no intersection.
        assert ray_ray_intersection(
            Point(-3.0, 1.0), math.pi + 0.3, math.pi / 4) is None

    def test_parallel_disjoint_is_none(self):
        assert ray_ray_intersection(Point(0.0, 1.0), 0.0, 0.0) is None

    def test_collinear_returns_query_point(self):
        q = Point(2.0, 2.0)
        p = ray_ray_intersection(q, math.pi / 4, math.pi / 4)
        assert p == q

    @given(inner_coords, inner_coords,
           st.floats(min_value=0.05, max_value=HALF_PI - 0.05))
    def test_result_on_origin_ray(self, qx, qy, theta):
        q = Point(qx, qy)
        q_theta = math.atan2(qy, qx)
        # Aim the query ray from one side of the origin ray towards it.
        phi = theta + HALF_PI if q_theta < theta else theta + 1.5 * math.pi
        p = ray_ray_intersection(q, phi, theta)
        if p is not None and math.hypot(p.x, p.y) > 1e-9:
            assert math.atan2(p.y, p.x) == pytest.approx(theta, abs=1e-6)


class TestRayRayDistance:
    """The column form is the Point form's distance, bit for bit."""

    @staticmethod
    def both(q, phi, theta):
        hit = ray_ray_intersection(q, phi, theta)
        expected = None if hit is None else q.distance_to(hit)
        got = ray_ray_distance(q.x, q.y, math.cos(phi), math.sin(phi),
                               math.cos(theta), math.sin(theta))
        return got, expected

    @pytest.mark.parametrize("q,phi,theta", [
        (Point(1.0, 0.0), HALF_PI, math.pi / 4),       # a hit
        (Point(2.0, 1.0), 1.5 * math.pi, math.pi / 4),  # behind q's ray
        (Point(-3.0, 1.0), math.pi + 0.3, math.pi / 4),  # behind the origin's
        (Point(0.0, 1.0), 0.0, 0.0),                   # parallel, disjoint
        (Point(2.0, 2.0), math.pi / 4, math.pi / 4),   # collinear: q itself
        (Point(0.0, 0.0), 0.7, 0.7),                   # q on the anchor
    ])
    def test_cases(self, q, phi, theta):
        got, expected = self.both(q, phi, theta)
        assert got == expected
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.hex() == expected.hex()

    @given(st.floats(min_value=-20.0, max_value=20.0),
           st.floats(min_value=-20.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           quadrant_angles, st.booleans())
    def test_same_bits(self, qx, qy, phi, theta, parallel):
        if parallel:
            phi = theta
        got, expected = self.both(Point(qx, qy), phi, theta)
        assert (None if got is None else got.hex()) == \
            (None if expected is None else expected.hex())


class TestRayRectangleExit:
    def test_exit_right(self):
        p = ray_rectangle_exit(Point(1.0, 1.0), 0.0, 10.0, 5.0)
        assert p == Point(10.0, 1.0)

    def test_exit_top(self):
        p = ray_rectangle_exit(Point(1.0, 1.0), HALF_PI, 10.0, 5.0)
        assert p is not None
        assert p.x == pytest.approx(1.0)
        assert p.y == pytest.approx(5.0)

    def test_exit_exact_corner(self):
        # Aim at the top-right corner from the origin of a square.
        p = ray_rectangle_exit(Point(0.0, 0.0), math.pi / 4, 4.0, 4.0)
        assert p is not None
        assert p.x == pytest.approx(4.0)
        assert p.y == pytest.approx(4.0)

    def test_outside_pointing_away_is_none(self):
        assert ray_rectangle_exit(Point(-1.0, 1.0), math.pi, 10.0, 5.0) is None

    def test_outside_pointing_in_exits_far_side(self):
        p = ray_rectangle_exit(Point(-1.0, 1.0), 0.0, 10.0, 5.0)
        assert p == Point(10.0, 1.0)

    def test_on_boundary_vertical_ray(self):
        p = ray_rectangle_exit(Point(10.0, 2.0), HALF_PI, 10.0, 5.0)
        assert p is not None
        assert p.y == pytest.approx(5.0)

    @given(inner_coords, inner_coords,
           st.floats(min_value=0.0, max_value=2 * math.pi))
    def test_exit_point_on_boundary(self, qx, qy, phi):
        length, height = 10.0, 10.0
        p = ray_rectangle_exit(Point(qx, qy), phi, length, height)
        assert p is not None
        on_x_edge = abs(p.x) < 1e-6 or abs(p.x - length) < 1e-6
        on_y_edge = abs(p.y) < 1e-6 or abs(p.y - height) < 1e-6
        assert on_x_edge or on_y_edge
        # And inside the closed rectangle.
        assert -1e-6 <= p.x <= length + 1e-6
        assert -1e-6 <= p.y <= height + 1e-6

    @given(inner_coords, inner_coords, quadrant_angles)
    def test_quadrant_exit_matches_eq3(self, qx, qy, phi):
        """For 0<=phi<=pi/2 the exit matches the paper's closed form."""
        length, height = 10.0, 10.0
        q = Point(qx, qy)
        p = ray_rectangle_exit(q, phi, length, height)
        assert p is not None
        corner_dir = math.atan2(height - qy, length - qx)
        if phi > corner_dir + 1e-9:
            assert p.y == pytest.approx(height, abs=1e-6)
        elif phi < corner_dir - 1e-9:
            assert p.x == pytest.approx(length, abs=1e-6)

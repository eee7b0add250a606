"""Tests for MINDIST functions and direction bounds.

The key property for every bound: it must be a *lower bound* on the true
distance from the query to any point of the region that satisfies the
direction constraint — otherwise pruning would drop real answers.  We check
that against dense point sampling of bands and sub-regions.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mindist import (
    BasicQueryGeometry,
    BoundaryColumns,
    annulus_mindist,
    band_mindist,
    basic_geometry,
    polar_point,
    subregion_mindists,
)
from repro.geometry import (
    HALF_PI,
    Anchor,
    CanonicalFrame,
    DirectionInterval,
    MBR,
    Point,
)

from . import reference_verify as reference


def subregion_mindist(g, inner, outer, theta_lo, theta_hi):
    """Table I for one sub-region: a one-gid :func:`subregion_mindists`."""
    kept = subregion_mindists(g, inner, outer, (0,),
                              BoundaryColumns.of((theta_lo,), (theta_hi,)),
                              math.inf)
    return kept[0][0] if kept else math.inf

L, H = 100.0, 80.0

in_x = st.floats(min_value=0.0, max_value=L)
in_y = st.floats(min_value=0.0, max_value=H)
quadrant_angle = st.floats(min_value=0.0, max_value=HALF_PI)


def geo(qx, qy, alpha, beta):
    return BasicQueryGeometry(Point(qx, qy), alpha, beta, L, H)


def sample_band_points(inner, outer, count=120):
    """Dense polar sampling of a band within the rectangle."""
    pts = []
    outer_eff = min(outer, math.hypot(L, H)) if outer != math.inf else \
        math.hypot(L, H)
    steps = int(math.sqrt(count))
    for i in range(steps):
        r = inner + (outer_eff - inner) * (i + 0.5) / steps
        for j in range(steps):
            t = HALF_PI * (j + 0.5) / steps
            p = polar_point(r, t)
            if 0 <= p.x <= L and 0 <= p.y <= H:
                pts.append((p, r, t))
    return pts


class TestPolarAndAnnulus:
    def test_polar_point(self):
        p = polar_point(2.0, HALF_PI)
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(2.0)

    @pytest.mark.parametrize("qd,inner,outer,expect", [
        (5.0, 2.0, 8.0, 0.0),
        (1.0, 2.0, 8.0, 1.0),
        (10.0, 2.0, 8.0, 2.0),
        (10.0, 2.0, math.inf, 0.0),
    ])
    def test_annulus(self, qd, inner, outer, expect):
        assert annulus_mindist(qd, inner, outer) == pytest.approx(expect)


class TestGeometryConstruction:
    def test_inside_flag(self):
        assert geo(10, 10, 0, 1).inside_rect
        assert not geo(-5, 10, 0, 1).inside_rect
        assert not geo(10, 200, 0, 1).inside_rect

    def test_q_theta(self):
        g = geo(10, 10, 0, 1)
        assert g.q_theta == pytest.approx(math.pi / 4)

    def test_q_on_anchor_gets_midpoint_theta(self):
        g = geo(0, 0, 0.2, 0.8)
        assert g.q_theta == pytest.approx(0.5)

    def test_exit_angles_ordered(self):
        g = geo(30, 20, 0.2, 1.2)
        assert g.theta_exit_alpha is not None
        assert g.theta_exit_beta is not None
        assert g.theta_exit_alpha <= g.theta_exit_beta + 1e-9


class TestRegionDirectionBounds:
    def test_brackets_q_theta(self):
        g = geo(40, 30, 0.3, 1.1)
        lo, hi = g.region_direction_bounds()
        assert lo <= g.q_theta <= hi

    def test_outside_rect_unbounded(self):
        g = geo(-10, 30, 0.3, 1.1)
        assert g.region_direction_bounds() == (0.0, HALF_PI)

    @settings(max_examples=60, deadline=None)
    @given(in_x, in_y, quadrant_angle, quadrant_angle)
    def test_lemma2_soundness(self, qx, qy, a, b):
        """No in-sector point's anchor angle may fall outside the bounds."""
        alpha, beta = min(a, b), max(a, b)
        g = geo(qx, qy, alpha, beta)
        lo, hi = g.region_direction_bounds()
        interval = DirectionInterval(alpha, beta)
        q = Point(qx, qy)
        for p, _, theta in sample_band_points(0.0, math.inf, count=150):
            if p == q:
                continue
            if interval.contains(q.direction_to(p)):
                assert lo - 1e-7 <= theta <= hi + 1e-7


class TestBandDirectionBounds:
    def test_tighter_than_region(self):
        g = geo(40, 30, 0.3, 1.1)
        region_lo, region_hi = g.region_direction_bounds()
        band_lo, band_hi = g.band_direction_bounds(60.0)
        assert band_lo >= region_lo - 1e-9
        assert band_hi <= region_hi + 1e-9

    def test_infinite_band_equals_region(self):
        g = geo(40, 30, 0.3, 1.1)
        assert g.band_direction_bounds(math.inf) == \
            g.region_direction_bounds()

    @settings(max_examples=60, deadline=None)
    @given(in_x, in_y, quadrant_angle, quadrant_angle,
           st.floats(min_value=5.0, max_value=150.0))
    def test_lemma4_soundness(self, qx, qy, a, b, outer):
        """In-sector points inside radius ``outer`` stay inside the bounds."""
        alpha, beta = min(a, b), max(a, b)
        g = geo(qx, qy, alpha, beta)
        lo, hi = g.band_direction_bounds(outer)
        interval = DirectionInterval(alpha, beta)
        q = Point(qx, qy)
        for p, r, theta in sample_band_points(0.0, outer, count=150):
            if p == q or r > outer:
                continue
            if interval.contains(q.direction_to(p)):
                assert lo - 1e-7 <= theta <= hi + 1e-7


class TestBandMindist:
    def test_lemma1_infinite_for_inner_bands(self):
        g = geo(50, 40, 0.2, 1.0)
        assert band_mindist(g, 10.0, 30.0) == math.inf

    def test_zero_when_inside(self):
        g = geo(30, 30, 0.2, 1.0)
        qd = math.hypot(30, 30)
        assert band_mindist(g, qd - 5, qd + 5) == 0.0

    def test_radial_case(self):
        g = geo(10, 10, 0.2, 1.2)  # q_theta = pi/4 inside [alpha, beta]
        qd = math.hypot(10, 10)
        assert band_mindist(g, qd + 10, qd + 20) == pytest.approx(10.0)

    def test_outside_rect_uses_annulus(self):
        g = geo(-10, 10, 0.2, 1.2)
        qd = math.hypot(10, 10)
        assert band_mindist(g, qd + 3, math.inf) == pytest.approx(3.0)

    @settings(max_examples=60, deadline=None)
    @given(in_x, in_y, quadrant_angle, quadrant_angle,
           st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=1.0, max_value=60.0))
    def test_is_lower_bound(self, qx, qy, a, b, inner, width):
        alpha, beta = min(a, b), max(a, b)
        outer = inner + width
        g = geo(qx, qy, alpha, beta)
        bound = band_mindist(g, inner, outer)
        interval = DirectionInterval(alpha, beta)
        q = Point(qx, qy)
        for p, _r, _theta in sample_band_points(inner, outer):
            if p == q:
                continue
            if interval.contains(q.direction_to(p)):
                assert q.distance_to(p) >= bound - 1e-6


class TestSubregionMindist:
    def test_zero_when_q_inside_subregion(self):
        g = geo(30, 30, 0.2, 1.2)
        qd, qt = math.hypot(30, 30), math.atan2(30, 30)
        assert subregion_mindist(g, qd - 5, qd + 5, qt - 0.1,
                                 qt + 0.1) == 0.0

    def test_infinite_beyond_band(self):
        g = geo(50, 40, 0.2, 1.0)
        assert subregion_mindist(g, 10.0, 30.0, 0.0, 1.0) == math.inf

    def test_at_least_band_mindist(self):
        g = geo(20, 15, 0.1, 1.3)
        inner, outer = 60.0, 80.0
        band_bound = band_mindist(g, inner, outer)
        for t0, t1 in [(0.0, 0.4), (0.4, 0.9), (0.9, HALF_PI)]:
            assert subregion_mindist(g, inner, outer, t0, t1) >= \
                band_bound - 1e-9

    @settings(max_examples=80, deadline=None)
    @given(in_x, in_y, quadrant_angle, quadrant_angle,
           st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=1.0, max_value=60.0),
           st.floats(min_value=0.0, max_value=HALF_PI),
           st.floats(min_value=0.0, max_value=HALF_PI))
    def test_is_lower_bound(self, qx, qy, a, b, inner, width, t0, t1):
        """Table I must lower-bound distances to in-sector subregion points."""
        alpha, beta = min(a, b), max(a, b)
        theta_lo, theta_hi = min(t0, t1), max(t0, t1)
        outer = inner + width
        g = geo(qx, qy, alpha, beta)
        bound = subregion_mindist(g, inner, outer, theta_lo, theta_hi)
        interval = DirectionInterval(alpha, beta)
        q = Point(qx, qy)
        for p, _r, theta in sample_band_points(inner, outer):
            if p == q or not (theta_lo <= theta <= theta_hi):
                continue
            if interval.contains(q.direction_to(p)):
                assert q.distance_to(p) >= bound - 1e-6


class TestBasicGeometryFactory:
    def test_builds_in_canonical_frame(self):
        rect = MBR(10.0, 20.0, 110.0, 100.0)
        frame = CanonicalFrame(Anchor.TOP_RIGHT, rect)
        interval = DirectionInterval(math.pi + 0.2, math.pi + 0.9)
        g = basic_geometry(frame, Point(60.0, 60.0),
                           frame.basic_interval(interval))
        assert g.inside_rect
        assert 0.0 <= g.alpha <= g.beta <= HALF_PI
        assert g.length == pytest.approx(100.0)
        assert g.height == pytest.approx(80.0)


def dense_subregion_min(q, interval, inner, outer, theta_lo, theta_hi,
                        steps=400):
    """Fine polar sampling of min distance to in-sector sub-region points."""
    best = math.inf
    outer_eff = min(outer, math.hypot(L, H) + 1.0)
    for i in range(steps + 1):
        r = inner + (outer_eff - inner) * i / steps
        for j in range(steps // 8 + 1):
            t = theta_lo + (theta_hi - theta_lo) * j / (steps // 8)
            p = polar_point(r, t)
            if not (0 <= p.x <= L and 0 <= p.y <= H):
                continue
            if p == q:
                return 0.0
            if interval.contains(q.direction_to(p)):
                best = min(best, q.distance_to(p))
    return best


class TestSubregionMindistExactness:
    """Table I gives the *exact* minimum, not just a lower bound.

    Each case below pins one row of Table I with a configuration whose
    true minimum is found by dense sampling; the formula must match it to
    sampling resolution.
    """

    CASES = [
        # (qx, qy, alpha, beta, inner, outer, theta_lo, theta_hi, row)
        (10.0, 4.0, 0.6, 1.2, 30.0, 45.0, 0.8, 1.1, "R<[t_lo,t_hi) radial"),
        (10.0, 4.0, 0.2, 0.5, 30.0, 45.0, 0.8, 1.1, "R<[t_lo,t_hi) alpha"),
        (10.0, 4.0, 1.3, 1.5, 30.0, 45.0, 0.8, 1.1, "R<[t_lo,t_hi) beta"),
        (20.0, 2.0, 0.5, 1.0, 30.0, 45.0, 0.7, 1.0, "R<[0,t_lo) corner"),
        (20.0, 2.0, 0.05, 0.1, 30.0, 45.0, 0.7, 1.0, "R<[0,t_lo) alpha"),
        (20.0, 2.0, 1.3, 1.5, 30.0, 45.0, 0.7, 1.0, "R<[0,t_lo) beta"),
        (3.0, 25.0, 0.6, 1.1, 30.0, 45.0, 0.3, 0.8, "R<[t_hi,pi/2] corner"),
        (3.0, 25.0, 0.1, 0.4, 30.0, 45.0, 0.3, 0.8, "R<[t_hi,pi/2] alpha"),
        (3.0, 25.0, 1.45, 1.55, 30.0, 45.0, 0.3, 0.8, "R<[t_hi,pi/2] beta"),
        (30.0, 5.0, 0.3, 1.2, 25.0, 45.0, 0.6, 1.0, "Ri[0,t_lo)"),
        (5.0, 30.0, 0.3, 1.2, 25.0, 45.0, 0.5, 0.9, "Ri[t_hi,pi/2]"),
        (28.0, 22.0, 0.3, 1.2, 25.0, 45.0, 0.5, 0.9, "Ri inside -> 0"),
    ]

    @pytest.mark.parametrize("qx,qy,alpha,beta,inner,outer,tlo,thi,row",
                             CASES, ids=[c[-1] for c in CASES])
    def test_formula_matches_dense_sampling(self, qx, qy, alpha, beta,
                                            inner, outer, tlo, thi, row):
        g = geo(qx, qy, alpha, beta)
        bound = subregion_mindist(g, inner, outer, tlo, thi)
        interval = DirectionInterval(alpha, beta)
        q = Point(qx, qy)
        sampled = dense_subregion_min(q, interval, inner, outer, tlo, thi)
        if sampled is math.inf:
            # No in-sector point exists in the sub-region: any finite bound
            # is vacuously sound; nothing to compare.
            return
        resolution = (outer - inner) / 50.0
        assert bound <= sampled + 1e-9, f"{row}: not a lower bound"
        assert bound >= sampled - resolution, f"{row}: bound too loose"


@st.composite
def table_one_bands(draw):
    """``(geometry, inner, outer, gids, bounds, kth)`` for one band.

    Biased to Table I's edges: ``q`` on the anchor, outside the rectangle
    or on a sub-region corner; a boundary at ``q_theta`` or one ulp from
    it; ``qd`` at the inner arc or past the outer one; an unbounded last
    band; ``beta`` on a low boundary or ``alpha`` on a high one (the
    parallel-ray branch), or either at ``q_theta``; ``kth`` equal to one
    of the band's MINDISTs.
    """
    lows = sorted(set(draw(st.lists(quadrant_angle, min_size=1,
                                    max_size=6))))
    inner = draw(st.floats(min_value=0.0, max_value=120.0))
    where = draw(st.sampled_from(("inside", "anchor", "outside", "corner")))
    if where == "inside":
        q = Point(draw(in_x), draw(in_y))
    elif where == "anchor":
        q = Point(0.0, 0.0)
    elif where == "outside":
        q = Point(draw(st.sampled_from((-1e-6, -7.5, L + 1e-6, L + 30.0))),
                  draw(in_y))
    else:
        # Exactly the Point(inner * cos, inner * sin) corner Table I builds.
        q = polar_point(inner, draw(st.sampled_from(lows + [HALF_PI])))
    alpha, beta = sorted((draw(quadrant_angle), draw(quadrant_angle)))
    pin = draw(st.sampled_from((None, "beta", "alpha", "q_theta")))
    if pin == "beta":
        beta = draw(st.sampled_from(lows))
        alpha = min(alpha, beta)
    elif pin == "alpha":
        alpha = draw(st.sampled_from(lows[1:] + [HALF_PI]))
        beta = max(alpha, beta)
    g = geo(q.x, q.y, alpha, beta)
    if pin == "q_theta" and 0.0 <= g.q_theta <= HALF_PI and g.qd > 0.0:
        # q on the sector's edge: the radial row's alpha <= q_theta <= beta.
        if draw(st.booleans()):
            alpha, beta = g.q_theta, max(g.q_theta, beta)
        else:
            alpha, beta = min(alpha, g.q_theta), g.q_theta
        g = geo(q.x, q.y, alpha, beta)
    if where != "corner":
        nudge = draw(st.sampled_from((None, 0.0, -math.inf, math.inf)))
        if nudge is not None:
            at = g.q_theta if nudge == 0.0 else math.nextafter(g.q_theta,
                                                               nudge)
            if 0.0 <= at <= HALF_PI:
                lows = sorted(set(lows + [at]))
        if draw(st.booleans()):
            inner = g.qd
    reach = draw(st.sampled_from(("inf", "width", "qd")))
    if reach == "inf":
        outer = math.inf
    elif reach == "width":
        outer = inner + draw(st.floats(min_value=0.5, max_value=150.0))
    else:
        outer = max(inner, g.qd)
    # Leading columns of earlier bands: gids index the columns globally.
    first_gid = draw(st.integers(min_value=0, max_value=3))
    bounds = BoundaryColumns.of([0.0] * first_gid + lows,
                                [0.0] * first_gid + lows[1:] + [HALF_PI])
    band = range(first_gid, first_gid + len(lows))
    gids = sorted(draw(st.sets(st.sampled_from(band), min_size=1)))
    finite = [m for m in (reference.subregion_mindist(
                  g, inner, outer, bounds.theta_lo[gid],
                  bounds.theta_hi[gid]) for gid in gids)
              if m != math.inf]
    kth = draw(st.one_of(
        st.just(math.inf), st.floats(min_value=0.0, max_value=200.0),
        *([st.sampled_from(finite)] if finite else [])))
    return g, inner, outer, gids, bounds, kth


class TestBatchTableOneIsTheScalarOne:
    """:func:`subregion_mindists` is the per-sub-region Table I the search
    ran before (kept in ``reference_verify.py``) bit for bit: the same
    float for every sub-region, the same gids kept below ``kth``."""

    @staticmethod
    def expected(g, inner, outer, gids, bounds, kth):
        out = []
        for gid in gids:
            mindist = reference.subregion_mindist(
                g, inner, outer, bounds.theta_lo[gid], bounds.theta_hi[gid])
            if not mindist >= kth:
                out.append((mindist.hex(), gid))
        return out

    @settings(max_examples=1500, deadline=None)
    @given(table_one_bands())
    def test_same_bits_and_kept_gids(self, case):
        g, inner, outer, gids, bounds, kth = case
        got = subregion_mindists(g, inner, outer, gids, bounds, kth)
        assert [(m.hex(), gid) for m, gid in got] == \
            self.expected(g, inner, outer, gids, bounds, kth)
        for gid in gids:
            lo, hi = bounds.theta_lo[gid], bounds.theta_hi[gid]
            assert subregion_mindist(g, inner, outer, lo, hi).hex() == \
                reference.subregion_mindist(g, inner, outer, lo, hi).hex()

    def test_corner_on_q(self):
        """A query point on a sub-region's inner-arc corner, just inside
        the arc after rounding: the corner-coincides branch, whose 0.0 is
        raised to the annulus bound."""
        hits = 0
        for step in range(1, 200):
            inner, theta = 10.0 + step * 0.37, step * HALF_PI / 200
            q = polar_point(inner, theta)
            g = geo(q.x, q.y, 0.2, 1.2)
            if not g.qd < inner:
                continue
            bounds = BoundaryColumns.of([0.0, theta], [theta, HALF_PI])
            got = subregion_mindists(g, inner, math.inf, [0, 1], bounds,
                                     math.inf)
            assert [(m.hex(), gid) for m, gid in got] == self.expected(
                g, inner, math.inf, [0, 1], bounds, math.inf)
            corner = 1 if g.q_theta < theta else 0
            assert got[corner] == (inner - g.qd, corner)
            hits += 1
        assert hits > 0

"""``in_direction`` is the per-point direction and distance test, bit for bit.

The reference is what the searcher did per POI before the check took a
whole wedge at once: ``Point.coincides``, ``direction_to``,
``DirectionInterval.contains`` and ``distance_to``.  The inputs lean on
where an inlined copy could drift from it: points on an interval's
``lower``/``upper`` ray and one ulp either side, points at the origin,
``-0.0`` offsets, intervals that wrap past 2*pi, widths at and one ulp
around ``2*pi - ANGLE_EPS``, and zero width.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    ANGLE_EPS,
    HALF_PI,
    TWO_PI,
    DirectionInterval,
    Point,
    in_direction,
    normalize_angle,
)

FULL_EDGE = TWO_PI - ANGLE_EPS
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.5, 1e-300, 123.456, -1e6]),
    st.floats(-1e4, 1e4))
LOWERS = st.one_of(
    st.sampled_from([0.0, 1e-17, HALF_PI, math.pi, 3 * HALF_PI,
                     math.nextafter(TWO_PI, 0.0)]),
    st.floats(0.0, TWO_PI, exclude_max=True))
WIDTHS = st.one_of(
    st.sampled_from([0.0, ANGLE_EPS, HALF_PI, math.pi, TWO_PI, FULL_EDGE,
                     math.nextafter(FULL_EDGE, 0.0),
                     math.nextafter(FULL_EDGE, TWO_PI)]),
    st.floats(0.0, TWO_PI))
RADII = st.one_of(st.sampled_from([1e-9, 1.0, 1e3]), st.floats(1e-6, 1e5))


def reference(origin, interval, ids, xs, ys):
    """The per-point loop: keep in-direction points, with distances."""
    kept = []
    for i in ids:
        p = Point(xs[i], ys[i])
        if not p.coincides(origin):
            if not interval.contains(origin.direction_to(p)):
                continue
        kept.append((i, origin.distance_to(p)))
    return kept


def bits(pairs):
    return [(i, distance.hex()) for i, distance in pairs]


def nudge(value, ulps):
    """``value`` moved ``ulps`` (-1, 0 or 1) representable steps."""
    if ulps == 0:
        return value
    return math.nextafter(value, math.inf if ulps > 0 else -math.inf)


def tight(lower, offset):
    """An interval from ``lower`` whose ``upper - lower + ANGLE_EPS`` is
    exactly ``offset`` — the comparison's boundary — or ``None``."""
    width = offset - ANGLE_EPS
    for _ in range(8):
        if width < 0.0:
            return None
        interval = DirectionInterval(lower, lower + width)
        reach = interval.upper - interval.lower + ANGLE_EPS
        if reach == offset:
            return interval
        width = math.nextafter(width, math.inf if reach < offset
                               else -math.inf)
    return None


@st.composite
def cases(draw):
    ox, oy = draw(COORDINATES), draw(COORDINATES)
    lower = draw(LOWERS)
    interval = DirectionInterval(lower, lower + draw(WIDTHS))
    kinds = st.sampled_from(["ray", "ray", "origin", "axis", "free"])
    xs, ys = [], []
    for kind in draw(st.lists(kinds, min_size=1, max_size=24)):
        if kind == "ray":
            # On the lower or upper ray, then 0 or 1 ulp off in x or y.
            angle = draw(st.sampled_from([interval.lower, interval.upper]))
            r = draw(RADII)
            x, y = ox + r * math.cos(angle), oy + r * math.sin(angle)
            x = nudge(x, draw(st.integers(-1, 1)))
            y = nudge(y, draw(st.integers(-1, 1)))
        elif kind == "origin":
            # The origin itself, or its zeros with the other sign.
            x = draw(st.sampled_from([ox, -ox]))
            y = draw(st.sampled_from([oy, -oy]))
        elif kind == "axis":
            # Along an axis through the origin: one offset is a zero.
            r = draw(RADII) * draw(st.sampled_from([1.0, -1.0]))
            x, y = draw(st.sampled_from([(ox, oy + r), (ox + r, oy),
                                         (-ox, oy + r), (ox + r, -oy)]))
        else:
            x, y = draw(COORDINATES), draw(COORDINATES)
        xs.append(x)
        ys.append(y)
    origin = Point(ox, oy)
    if draw(st.booleans()):
        # Move the upper end onto a drawn point's exact boundary.
        p = Point(xs[0], ys[0])
        if not p.coincides(origin):
            offset = normalize_angle(origin.direction_to(p) - interval.lower)
            interval = tight(interval.lower, offset) or interval
    ids = draw(st.permutations(range(len(xs))))
    return origin, interval, ids, xs, ys


@settings(max_examples=600, deadline=None)
@given(cases())
def test_equals_the_per_point_test_bit_for_bit(case):
    origin, interval, ids, xs, ys = case
    assert bits(in_direction(origin, interval, ids, xs, ys)) == \
        bits(reference(origin, interval, ids, xs, ys))


def test_point_at_the_origin_is_kept_at_distance_zero():
    # A zero-width interval whose ray misses both other points.
    hits = in_direction(Point(2.0, 3.0), DirectionInterval(1.0, 1.0),
                        [0, 1, 2], [2.0, 5.0, 2.0], [3.0, 3.0, -1.0])
    assert hits == [(0, 0.0)]


def test_a_point_exactly_at_the_tolerance_edge_is_kept():
    # offset == width + ANGLE_EPS: kept, as by DirectionInterval.contains.
    interval = tight(0.0, math.pi / 4)
    assert interval is not None
    hits = in_direction(Point(0.0, 0.0), interval, [0], [1.0], [1.0])
    assert [i for i, _ in hits] == [0]
    assert interval.contains(Point(0.0, 0.0).direction_to(Point(1.0, 1.0)))


def test_full_circle_keeps_everything_in_ids_order():
    xs, ys = [3.0, -4.0, 0.0], [4.0, 0.0, -2.0]
    hits = in_direction(Point(0.0, 0.0), DirectionInterval.full(),
                        [2, 0, 1], xs, ys)
    assert hits == [(2, 2.0), (0, 5.0), (1, 4.0)]


def test_wrapping_interval():
    # [350 deg, 370 deg] keeps 355 and 5 degrees, drops 180.
    interval = DirectionInterval(math.radians(350), math.radians(370))
    xs = [math.cos(math.radians(d)) for d in (355, 5, 180)]
    ys = [math.sin(math.radians(d)) for d in (355, 5, 180)]
    hits = in_direction(Point(0.0, 0.0), interval, [0, 1, 2], xs, ys)
    assert [i for i, _ in hits] == [0, 1]

"""Circular sectors — the paper's search region ``S_q``.

Given a query ``q`` with direction interval ``[alpha, beta]``, the answer
region is the intersection of the sector centred at ``q`` (radius = maximal
distance from ``q`` to the dataset MBR boundary) with the dataset MBR.  The
sector type below provides the membership test used for verification and by
the brute-force oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .angles import ANGLE_EPS, TWO_PI, DirectionInterval, normalize_angle
from .mbr import MBR
from .point import Point


@dataclass(frozen=True)
class Sector:
    """A circular sector: centre, radius, and a direction interval."""

    center: Point
    radius: float
    interval: DirectionInterval

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError(f"negative sector radius {self.radius!r}")

    def contains(self, p: Point) -> bool:
        """True when ``p`` lies inside the sector.

        The centre itself is considered inside (it has no direction but zero
        distance; the paper's queries never return the query point because
        POIs at distance 0 in the query direction are a measure-zero corner,
        and including the centre keeps the membership test total).
        """
        if p == self.center:
            return True
        if self.center.distance_to(p) > self.radius:
            return False
        return self.interval.contains(self.center.direction_to(p))

    @classmethod
    def covering_mbr(cls, center: Point, interval: DirectionInterval,
                     mbr: MBR) -> "Sector":
        """The paper's ``S_q``: radius = max distance from centre to ``R``.

        With this radius the sector's intersection with ``mbr`` equals the
        full direction-constrained search region ``R_q``.
        """
        return cls(center, mbr.max_distance_to_point(center), interval)

    def search_region_contains(self, p: Point, mbr: MBR) -> bool:
        """Membership in ``R_q`` = sector intersected with the dataset MBR."""
        return mbr.contains_point(p) and self.contains(p)


def in_direction(origin: Point, interval: DirectionInterval,
                 ids: Iterable[int], xs: Sequence[float],
                 ys: Sequence[float]) -> List[Tuple[int, float]]:
    """``(id, distance from origin)`` of every point ``(xs[id], ys[id])``
    whose direction from ``origin`` lies in ``interval``, in ``ids`` order.

    A point at ``origin`` has no direction and is kept, at distance 0.
    This is the per-point test ``interval.contains(origin.direction_to(p))``
    plus ``origin.distance_to(p)`` for a whole batch, bit for bit: the
    same ``atan2``, ``hypot`` and comparisons, inlined.  ``atan2`` lies in
    ``[-pi, pi]`` and ``theta - lower`` in ``(-2pi, 2pi)``, where
    :func:`normalize_angle`'s ``fmod`` is the identity, so only its two
    folds are spelled out.
    """
    ox, oy = origin.x, origin.y
    hypot = math.hypot
    lower = interval.lower
    width = interval.upper - lower
    if width >= TWO_PI - ANGLE_EPS:
        return [(i, hypot(xs[i] - ox, ys[i] - oy)) for i in ids]
    limit = width + ANGLE_EPS
    atan2 = math.atan2
    hits: List[Tuple[int, float]] = []
    for i in ids:
        x = xs[i]
        y = ys[i]
        dx = x - ox
        dy = y - oy
        if x == ox and y == oy:
            hits.append((i, hypot(dx, dy)))
            continue
        theta = atan2(dy, dx)
        if theta < 0.0:
            theta += TWO_PI
        if theta >= TWO_PI:
            theta -= TWO_PI
        offset = theta - lower
        if offset < 0.0:
            offset += TWO_PI
        if offset >= TWO_PI:
            offset -= TWO_PI
        if offset <= limit:
            hits.append((i, hypot(dx, dy)))
    return hits


def subtended_interval(center: Point, mbr: MBR,
                       ) -> Optional[DirectionInterval]:
    """The direction interval an MBR subtends as seen from ``center``.

    ``None`` means every direction (``center`` inside or on the rectangle).
    For a convex shape and an external viewpoint the subtended direction set
    is exactly the minimal arc covering the corner directions — found as the
    complement of the largest angular gap between consecutive corners.
    """
    if mbr.contains_point(center):
        return None
    angles: List[float] = sorted(
        normalize_angle(center.direction_to(corner))
        for corner in mbr.corners())
    largest_gap = TWO_PI - (angles[-1] - angles[0])
    gap_end = 0  # index of the angle *after* the largest gap
    for i in range(1, len(angles)):
        gap = angles[i] - angles[i - 1]
        if gap > largest_gap:
            largest_gap = gap
            gap_end = i
    lower = angles[gap_end]
    width = TWO_PI - largest_gap
    return DirectionInterval(lower, lower + width)


def direction_overlaps_mbr(center: Point, interval: DirectionInterval,
                           mbr: MBR) -> bool:
    """True unless the MBR lies entirely outside the query direction.

    This is the "examine whether each accessed MBR is in the search
    direction" check the paper adds to the baselines (Sec. VI): exact for
    rectangles, because the subtended direction set from an external point
    is a single arc.
    """
    if interval.is_full:
        return True
    subtended = subtended_interval(center, mbr)
    if subtended is None:
        return True
    return interval.overlaps(subtended)


def sector_intersects_mbr(center: Point, interval: DirectionInterval,
                          mbr: MBR, radius: float = math.inf) -> bool:
    """Can the sector ``(center, interval, radius)`` contain a point of
    ``mbr``?

    This is the shard-level pruning test of the scatter-gather layer: a
    shard whose MBR fails it provably holds no answers, the same way
    Lemmas 2-4 discard sub-regions inside one index.  The direction test is
    exact (the subtended direction set of a rectangle seen from an external
    point is a single arc); the radius test uses ``MINDIST`` and is
    *conservative* — the nearest rectangle point may itself be out of
    direction — so the function can return True for an empty intersection
    but never False for a non-empty one, which is the safe side for
    pruning.  A center on or inside the rectangle always intersects
    (distance zero, every direction).
    """
    if radius < 0.0:
        raise ValueError(f"negative sector radius {radius!r}")
    if mbr.contains_point(center):
        return True
    if mbr.min_distance_to_point(center) > radius:
        return False
    return direction_overlaps_mbr(center, interval, mbr)

"""Geometric substrate: points, angles, rectangles, sectors, ray math.

Everything DESKS and the baselines need from plane geometry lives here, in
one place, so the pruning code reads like the paper's formulas.
"""

from .angles import (
    ANGLE_EPS,
    HALF_PI,
    TWO_PI,
    DirectionInterval,
    angle_between,
    angle_of,
    interval_from_optional,
    normalize_angle,
    quadrant_of,
    signed_angle,
    signed_angle_of,
)
from .frames import Anchor, CanonicalFrame, frames_for
from .intersections import (
    ray_circle_intersection,
    ray_ray_distance,
    ray_ray_intersection,
    ray_rectangle_exit,
)
from .mbr import MBR
from .point import ORIGIN, Point
from .sector import (
    Sector,
    direction_overlaps_mbr,
    in_direction,
    sector_intersects_mbr,
    subtended_interval,
)
from .vectorized import (
    arc_contains,
    arc_contains_vectors,
    directions_of,
    normalize_angles,
)

__all__ = [
    "ANGLE_EPS",
    "HALF_PI",
    "TWO_PI",
    "Anchor",
    "CanonicalFrame",
    "DirectionInterval",
    "MBR",
    "ORIGIN",
    "Point",
    "Sector",
    "direction_overlaps_mbr",
    "sector_intersects_mbr",
    "subtended_interval",
    "angle_between",
    "angle_of",
    "arc_contains",
    "arc_contains_vectors",
    "directions_of",
    "frames_for",
    "in_direction",
    "interval_from_optional",
    "normalize_angle",
    "normalize_angles",
    "quadrant_of",
    "ray_circle_intersection",
    "ray_ray_distance",
    "ray_ray_intersection",
    "ray_rectangle_exit",
    "signed_angle",
    "signed_angle_of",
]

"""Ray intersections used by the pruning bounds — the paper's Eqs. 1-3.

All functions work in the *canonical frame*: the anchor corner sits at the
origin, the dataset rectangle is ``[0, L] x [0, H]``, and query directions
satisfy ``0 <= alpha <= beta <= pi/2``.  (:mod:`repro.geometry.frames` maps
the other three anchors onto this frame.)

* :func:`ray_circle_intersection` — Eq. 1: the point ``q_alpha^{r}`` where the
  ray from ``q`` with direction ``phi`` meets the arc of radius ``r`` centred
  at the origin.
* :func:`ray_ray_intersection` — Eq. 2: the point ``q_alpha^{theta}`` where
  the ray from ``q`` meets the ray from the origin with direction ``theta``;
  :func:`ray_ray_distance` is its distance from ``q``, over unit vectors
  the caller computed once.
* :func:`ray_rectangle_exit` — Eq. 3: the point ``q_alpha^{R}`` where the ray
  from ``q`` (inside the rectangle) exits the rectangle boundary.

Each returns ``None`` when no intersection exists in the forward direction of
the ray; the callers translate that into the corresponding pruning case.
"""

from __future__ import annotations

import math
from typing import Optional

from .point import Point

#: Forward-parameter tolerance: a ray "hits" a target even if floating-point
#: error puts the intersection infinitesimally behind the ray origin.
_T_EPS = 1e-12


def ray_circle_intersection(q: Point, phi: float, radius: float,
                            ) -> Optional[Point]:
    """First forward intersection of a ray with a circle about the origin.

    Solves the paper's Eq. 1: the point on the line through ``q`` with
    direction ``phi`` at distance ``radius`` from the origin.  When ``q`` is
    inside the circle there is exactly one forward hit; when outside there
    are zero or two and the nearer one is returned.
    """
    if radius < 0.0:
        raise ValueError(f"negative radius {radius!r}")
    dx = math.cos(phi)
    dy = math.sin(phi)
    # |q + t d|^2 = r^2  =>  t^2 + 2 (q . d) t + (|q|^2 - r^2) = 0, |d| = 1.
    b = q.x * dx + q.y * dy
    c = q.x * q.x + q.y * q.y - radius * radius
    disc = b * b - c
    if disc < 0.0:
        return None
    sqrt_disc = math.sqrt(disc)
    t_near = -b - sqrt_disc
    t_far = -b + sqrt_disc
    t = t_near if t_near >= -_T_EPS else t_far
    if t < -_T_EPS:
        return None
    t = max(t, 0.0)
    return Point(q.x + t * dx, q.y + t * dy)


def ray_ray_intersection(q: Point, phi: float, theta: float,
                         ) -> Optional[Point]:
    """Forward intersection of the ray ``(q, phi)`` with the origin ray.

    Solves the paper's Eq. 2: ``q + t (cos phi, sin phi) =
    s (cos theta, sin theta)`` with ``t, s >= 0``.  Returns ``None`` for
    parallel rays or intersections behind either ray.
    """
    ux, uy = math.cos(phi), math.sin(phi)
    vx, vy = math.cos(theta), math.sin(theta)
    denom = ux * vy - uy * vx  # cross(u, v)
    if abs(denom) < _T_EPS:
        # Parallel rays: collinear overlap degenerates to q itself when q lies
        # on the origin ray; treat everything else as no intersection.
        cross_q = q.x * vy - q.y * vx
        if abs(cross_q) < _T_EPS and q.x * vx + q.y * vy >= -_T_EPS:
            return q
        return None
    # cross(q, v) + t cross(u, v) = 0  from equating the two parametrisations.
    t = (vx * q.y - vy * q.x) / denom
    if t < -_T_EPS:
        return None
    px = q.x + max(t, 0.0) * ux
    py = q.y + max(t, 0.0) * uy
    # Verify the hit is on the forward half of the origin ray.
    if px * vx + py * vy < -_T_EPS:
        return None
    return Point(px, py)


def ray_ray_distance(qx: float, qy: float, ux: float, uy: float,
                     vx: float, vy: float) -> Optional[float]:
    """``q.distance_to(ray_ray_intersection(q, phi, theta))``, bit for bit.

    ``(ux, uy)`` is ``(cos phi, sin phi)`` and ``(vx, vy)`` is
    ``(cos theta, sin theta)``: a caller that meets the same directions
    many times (Table I, one band's sub-region boundaries against one
    query's ``alpha``/``beta``) takes the trigonometry out of its loop.
    The same branches and operations as :func:`ray_ray_intersection`,
    the parallel case's ``q`` itself included (distance ``0.0``), with no
    ``Point`` allocated; ``None`` where it returns ``None``.
    """
    denom = ux * vy - uy * vx
    if abs(denom) < _T_EPS:
        if (abs(qx * vy - qy * vx) < _T_EPS
                and qx * vx + qy * vy >= -_T_EPS):
            return 0.0  # the hit is q itself
        return None
    t = (vx * qy - vy * qx) / denom
    if t < -_T_EPS:
        return None
    px = qx + max(t, 0.0) * ux
    py = qy + max(t, 0.0) * uy
    if px * vx + py * vy < -_T_EPS:
        return None
    return math.hypot(px - qx, py - qy)


def ray_rectangle_exit(q: Point, phi: float, length: float, height: float,
                       ) -> Optional[Point]:
    """Exit point of the ray ``(q, phi)`` from the rectangle ``[0,L]x[0,H]``.

    The paper's Eq. 3 handles the quadrant case (``0 <= phi <= pi/2``: exit
    through the top or right edge depending on ``phi`` versus the direction
    towards the top-right corner).  This implementation is the general
    Liang-Barsky style clip so it also serves queries near the boundary and
    the other quadrants after frame mapping.

    Returns ``None`` when ``q`` is outside the rectangle and the ray never
    enters it.
    """
    dx = math.cos(phi)
    dy = math.sin(phi)
    t_min = 0.0
    t_max = math.inf
    for delta, lo_bound, hi_bound, coord in (
        (dx, 0.0, length, q.x),
        (dy, 0.0, height, q.y),
    ):
        if abs(delta) < _T_EPS:
            if coord < lo_bound - _T_EPS or coord > hi_bound + _T_EPS:
                return None
            continue
        t0 = (lo_bound - coord) / delta
        t1 = (hi_bound - coord) / delta
        if t0 > t1:
            t0, t1 = t1, t0
        t_min = max(t_min, t0)
        t_max = min(t_max, t1)
    if t_max < t_min - _T_EPS or t_max < -_T_EPS:
        return None
    t = max(t_max, 0.0)
    return Point(q.x + t * dx, q.y + t * dy)

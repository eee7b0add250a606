"""MINDIST functions and direction bounds for bands and sub-regions.

Everything here operates in the canonical frame of one anchor: the anchor is
the origin, the dataset rectangle is ``[0, L] x [0, H]``, and the basic
query's direction interval satisfies ``0 <= alpha <= beta <= pi/2``.

* :func:`band_mindist` — the paper's Eq. 4, ``MINDIST(q, R_i)``.
* :func:`subregion_mindists` — the paper's Table I, ``MINDIST(q, R_ij)``,
  for a band's sub-regions in one pass over their
  :class:`BoundaryColumns`.
* :meth:`BasicQueryGeometry.band_direction_bounds` — the tighter per-band
  bounds ``tau_l^{R_i}`` / ``tau_u^{R_i}`` of Eqs. 5-6 (Lemma 4), falling
  back to the region-wide bounds of Lemma 2.

All values are *lower bounds* on true distances: when floating-point
degeneracies make one of the paper's intersection points undefined, the code
falls back to the plain annulus bound, which is always valid — a looser
bound costs work, never correctness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..geometry import (
    HALF_PI,
    DirectionInterval,
    Point,
    ray_circle_intersection,
    ray_ray_distance,
    ray_rectangle_exit,
    signed_angle,
    signed_angle_of,
)

INF = math.inf

#: Slack added to the Lemma 2/4 direction windows before pruning.  POI
#: anchor angles and the query geometry's angles are computed by different
#: code paths (vectorised index build vs. per-query ``math`` calls), so two
#: mathematically equal angles can differ by an ulp — enough for an exact
#: window to drop a POI sitting precisely on its edge (e.g. a POI at the
#: query location).  Widening is always sound here: a looser direction
#: window admits extra sub-regions to *verify*, never wrong answers.
TAU_SLACK = 1e-9


def polar_point(radius: float, theta: float) -> Point:
    """The point at polar coordinates ``(radius, theta)`` about the origin."""
    return Point(radius * math.cos(theta), radius * math.sin(theta))


def annulus_mindist(qd: float, inner: float, outer: float) -> float:
    """Distance from a point at radius ``qd`` to the annulus [inner, outer].

    Direction-free and valid for any query position; the universal fallback
    lower bound.
    """
    if qd < inner:
        return inner - qd
    if outer is not INF and qd > outer:
        return qd - outer
    return 0.0


@dataclass
class BasicQueryGeometry:
    """Cached per-(sub)query geometry: q in canonical coordinates + bounds.

    Built once per basic sub-query; every band and sub-region bound below
    reads from it.  ``inside_rect`` records whether the canonical query point
    lies inside the dataset rectangle — the paper's lemmas assume it does,
    and when it does not we keep only the fallback bounds (documented in
    DESIGN.md).
    """

    q: Point
    alpha: float
    beta: float
    length: float
    height: float

    def __post_init__(self) -> None:
        self.qd = math.hypot(self.q.x, self.q.y)
        if self.qd > 0.0:
            self.q_theta = signed_angle_of(self.q.x, self.q.y)
        else:
            # A query on the anchor has no direction; the midpoint keeps
            # every case formula consistent (all rays leave the origin).
            self.q_theta = (self.alpha + self.beta) / 2.0
        self.inside_rect = (
            -1e-9 <= self.q.x <= self.length + 1e-9
            and -1e-9 <= self.q.y <= self.height + 1e-9)
        # Exit points of the alpha/beta rays through the rectangle boundary
        # (the paper's q_alpha^R and q_beta^R, Eq. 3) and their anchor
        # directions, used by Lemma 2 and as the Eq. 5/6 fallback.
        self._exit_alpha = ray_rectangle_exit(
            self.q, self.alpha, self.length, self.height)
        self._exit_beta = ray_rectangle_exit(
            self.q, self.beta, self.length, self.height)
        self.theta_exit_alpha = _anchor_angle(self._exit_alpha)
        self.theta_exit_beta = _anchor_angle(self._exit_beta)
        # The alpha/beta ray directions, for Table I's boundary rays.
        self.cos_alpha = math.cos(self.alpha)
        self.sin_alpha = math.sin(self.alpha)
        self.cos_beta = math.cos(self.beta)
        self.sin_beta = math.sin(self.beta)

    # -- Lemma 2: region-wide direction bounds ------------------------------

    def region_direction_bounds(self) -> Tuple[float, float]:
        """``(tau_l^R, tau_u^R)``: anchor-angle range of possible answers."""
        if not self.inside_rect:
            return (0.0, HALF_PI)
        lo = self.q_theta
        if self.theta_exit_alpha is not None:
            lo = min(lo, self.theta_exit_alpha)
        hi = self.q_theta
        if self.theta_exit_beta is not None:
            hi = max(hi, self.theta_exit_beta)
        if self.qd <= 0.0:
            # A query at the anchor corner: a POI co-located with it is an
            # answer regardless of direction, but its anchor angle is stored
            # as the atan2(0, 0) = 0 convention — admit it.  (hypot is
            # non-negative, so <= 0 is the exact-zero case without an
            # exact float comparison.)
            lo = 0.0
        return (max(lo - TAU_SLACK, 0.0), min(hi + TAU_SLACK, HALF_PI))

    # -- Eqs. 5-6 / Lemma 4: per-band direction bounds -------------------------

    def band_direction_bounds(self, outer_radius: float,
                              ) -> Tuple[float, float]:
        """``(tau_l^{R_i}, tau_u^{R_i})`` for the band with ``outer_radius``.

        Tighter than Lemma 2 because within the band the alpha/beta rays
        cannot run past the band's outer arc.
        """
        if not self.inside_rect:
            return (0.0, HALF_PI)
        region_lo, region_hi = self.region_direction_bounds()
        if outer_radius is INF:
            return (region_lo, region_hi)

        if self.q_theta <= self.alpha:
            lo = self.q_theta
        else:
            hit = ray_circle_intersection(self.q, self.alpha, outer_radius)
            if hit is not None and self._in_rect(hit):
                lo = _anchor_angle(hit)
                if lo is None:  # hit the origin itself
                    lo = region_lo
                lo = min(lo, self.q_theta)
            else:
                lo = region_lo

        if self.q_theta >= self.beta:
            hi = self.q_theta
        else:
            hit = ray_circle_intersection(self.q, self.beta, outer_radius)
            if hit is not None and self._in_rect(hit):
                hi = _anchor_angle(hit)
                if hi is None:
                    hi = region_hi
                hi = max(hi, self.q_theta)
            else:
                hi = region_hi
        if self.qd <= 0.0:
            lo = 0.0  # anchor-resident POIs carry the theta = 0 convention
        return (max(lo - TAU_SLACK, 0.0), min(hi + TAU_SLACK, HALF_PI))

    def _in_rect(self, p: Point) -> bool:
        return (-1e-9 <= p.x <= self.length + 1e-9
                and -1e-9 <= p.y <= self.height + 1e-9)

    # -- distances to paper intersection points ---------------------------------

    def dist_to_inner_arc_along(self, phi: float, inner: float,
                                ) -> Optional[float]:
        """Distance to ``q_phi^{r_inner}`` (Eq. 1 point), if it exists."""
        hit = ray_circle_intersection(self.q, phi, inner)
        if hit is None:
            return None
        return self.q.distance_to(hit)


def _anchor_angle(p: Optional[Point]) -> Optional[float]:
    """Direction of ``p`` from the origin, ``None`` for the origin/missing."""
    if p is None or (p.x == 0.0 and p.y == 0.0):
        return None
    return signed_angle_of(p.x, p.y)


# -- Eq. 4: MINDIST(q, R_i) ------------------------------------------------------


def band_mindist(geo: BasicQueryGeometry, inner: float,
                 outer: float) -> float:
    """The paper's Eq. 4: least distance from q to an answer in band R_i.

    ``inf`` signals Lemma 1: a band wholly inside the query's radius cannot
    contain answers (valid only for the canonical basic-query setting with
    the query inside the rectangle).
    """
    if not geo.inside_rect:
        return annulus_mindist(geo.qd, inner, outer)
    if geo.qd >= outer:
        return INF  # Lemma 1
    if geo.qd >= inner:
        return 0.0
    # q is inside the inner arc.
    if geo.alpha <= geo.q_theta <= geo.beta:
        return inner - geo.qd
    phi = geo.alpha if geo.q_theta < geo.alpha else geo.beta
    d = geo.dist_to_inner_arc_along(phi, inner)
    if d is None:
        return inner - geo.qd  # fallback lower bound
    return d


# -- Table I: MINDIST(q, R_ij) --------------------------------------------------


class BoundaryColumns(NamedTuple):
    """Sub-region direction boundaries by gid, with their cosines and sines.

    ``theta_lo[gid]``/``theta_hi[gid]`` are sub-region ``gid``'s
    ``theta_{ij-1}``/``theta_ij``; the trigonometry is the ``math.cos`` /
    ``math.sin`` that Table I's corners and boundary rays would otherwise
    recompute on every query.  Plain lists: scalar indexing is what
    :func:`subregion_mindists` does, and lists beat numpy scalars there.
    """

    theta_lo: List[float]
    theta_hi: List[float]
    cos_lo: List[float]
    sin_lo: List[float]
    cos_hi: List[float]
    sin_hi: List[float]

    @classmethod
    def of(cls, theta_lo: Sequence[float],
           theta_hi: Sequence[float]) -> "BoundaryColumns":
        return cls(list(theta_lo), list(theta_hi),
                   [math.cos(t) for t in theta_lo],
                   [math.sin(t) for t in theta_lo],
                   [math.cos(t) for t in theta_hi],
                   [math.sin(t) for t in theta_hi])


def subregion_mindists(geo: BasicQueryGeometry, inner: float, outer: float,
                       gids: Iterable[int], bounds: BoundaryColumns,
                       kth: float) -> List[Tuple[float, int]]:
    """Table I for sub-regions ``gids`` of one band, in one pass.

    ``(MINDIST(q, R_ij), gid)`` for every gid whose bound is below ``kth``
    (Algorithm 1's ``d_k``), in ``gids`` order.  The band's radii decide
    which three of the six rows apply; each sub-region's boundary columns
    pick the row.  Where an intersection point is undefined the row falls
    back to the annulus bound, and every row is raised to it.
    """
    qd = geo.qd
    fallback = annulus_mindist(qd, inner, outer)
    if not geo.inside_rect:
        if fallback >= kth:
            return []
        return [(fallback, gid) for gid in gids]
    if qd >= outer:
        return []  # q in R_i^>, Lemma 1: MINDIST is inf
    theta_lo, theta_hi, cos_lo, sin_lo, cos_hi, sin_hi = bounds
    q = geo.q
    qx, qy, q_theta = q.x, q.y, geo.q_theta
    cos_a, sin_a, cos_b, sin_b = geo.cos_alpha, geo.sin_alpha, \
        geo.cos_beta, geo.sin_beta
    out: List[Tuple[float, int]] = []
    value: Optional[float]
    if qd >= inner:
        # Rows R_i: q inside the band's radius range.
        for gid in gids:
            if q_theta < theta_lo[gid]:
                # Row R_i[0, theta_{ij-1}): reach the low-angle boundary
                # ray along beta (beta <= pi/2 makes this the nearest).
                value = ray_ray_distance(qx, qy, cos_b, sin_b,
                                         cos_lo[gid], sin_lo[gid])
            elif q_theta < theta_hi[gid]:
                value = 0.0  # q is inside R_ij
            else:
                # Row R_i[theta_ij, pi/2]: the high-angle ray along alpha.
                value = ray_ray_distance(qx, qy, cos_a, sin_a,
                                         cos_hi[gid], sin_hi[gid])
            mindist = fallback if value is None else max(value, fallback)
            if mindist >= kth:
                continue
            out.append((mindist, gid))
        return out
    # Rows R_i^<: q inside the inner arc.  What the sector reaches along
    # alpha or beta on the inner arc is the same for the whole band.
    alpha, beta = geo.alpha, geo.beta
    arc_alpha = geo.dist_to_inner_arc_along(alpha, inner)
    arc_beta = geo.dist_to_inner_arc_along(beta, inner)
    if alpha <= q_theta <= beta:
        radial: Optional[float] = inner - qd
    else:
        radial = arc_alpha if q_theta < alpha else arc_beta
    for gid in gids:
        if theta_lo[gid] <= q_theta < theta_hi[gid]:
            # Row R_i^<[theta_{ij-1}, theta_ij): radially below R_ij.
            value = radial
        else:
            # Rows R_i^<[0, theta_{ij-1}) and R_i^<[theta_ij, pi/2]: the
            # nearest corner is the inner arc's low-angle one (the paper's
            # "bottom-right" p_{i-1,j-1}) or its high-angle one
            # ("bottom-left" p_{i-1,j}).  Its direction from q inside
            # [alpha, beta] makes it nearest; a sector aiming below or
            # above it slides along the matching query ray.
            low = q_theta < theta_lo[gid]
            corner = (Point(inner * cos_lo[gid], inner * sin_lo[gid]) if low
                      else Point(inner * cos_hi[gid], inner * sin_hi[gid]))
            if corner.coincides(q):
                value = 0.0
            else:
                # The corner can sit clockwise of the positive x-axis as
                # seen from q (its direction wraps into (3*pi/2, 2*pi));
                # compared raw against alpha in [0, pi/2] that would
                # masquerade as "above beta".  Signed puts it below alpha.
                direction = signed_angle(q.direction_to(corner))
                if direction < alpha:
                    if low:
                        value = arc_alpha
                    else:  # to the high-angle boundary ray along alpha
                        value = ray_ray_distance(qx, qy, cos_a, sin_a,
                                                 cos_hi[gid], sin_hi[gid])
                elif direction > beta:
                    if low:  # to the low-angle boundary ray along beta
                        value = ray_ray_distance(qx, qy, cos_b, sin_b,
                                                 cos_lo[gid], sin_lo[gid])
                    else:
                        value = arc_beta
                else:
                    value = q.distance_to(corner)
        mindist = fallback if value is None else max(value, fallback)
        if mindist >= kth:
            continue
        out.append((mindist, gid))
    return out


def basic_geometry(frame, world_point: Point,
                   canonical_interval: DirectionInterval,
                   ) -> BasicQueryGeometry:
    """Build the cached geometry for a basic sub-query against ``frame``."""
    return BasicQueryGeometry(
        q=frame.to_canonical(world_point),
        alpha=canonical_interval.lower,
        beta=canonical_interval.upper,
        length=frame.length,
        height=frame.height,
    )

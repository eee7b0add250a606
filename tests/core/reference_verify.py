"""The per-POI FINDCANDPOIS loop and the per-sub-region Table I, kept as
the tests' reference.

FINDCANDPOIS: what ``DesksSearcher._scan_wedge`` and ``_verify_pois`` ran
before a wedge's check became one :func:`repro.geometry.in_direction`
call: a ``set()`` of every wedge's keyword holders, then, per POI, its
``Point`` from the collection, ``coincides``, ``direction_to``,
``interval.contains``, ``kth_distance`` and ``distance_to``, with
``SearchStats`` and the span counters bumped one POI at a time.

FINDCANDREGIONS: what ``DesksSearcher._candidate_subregions`` ran before a
band's ranking became one :func:`repro.core.mindist.subregion_mindists`
call: the wedge window bisected over a list of the band's ``theta_lo``
built per call, then, per selected sub-region, the scalar Table I below
(``ray_ray_intersection`` and ``polar_point`` per row, the trigonometry
recomputed each time), ``kth_distance`` read per sub-region and
``SearchStats`` bumped one sub-region at a time.

The shipped searchers must do exactly this work and give exactly these
answers (``test_verify_oracle.py``, and ``test_mindist.py`` for Table I
alone); nothing under ``src/`` imports it.
"""

from bisect import bisect_right

from repro.core import DesksSearcher, MatchMode
from repro.core.mindist import INF, annulus_mindist, polar_point
from repro.core.search import _slice_sorted
from repro.geometry import ray_ray_intersection, signed_angle
from repro.kernel import ColumnarSearcher


# -- Table I, one sub-region at a time ------------------------------------------


def subregion_mindist(geo, inner, outer, theta_lo, theta_hi):
    """The paper's Table I: least distance from q to an answer in R_ij."""
    fallback = annulus_mindist(geo.qd, inner, outer)
    if not geo.inside_rect:
        return fallback
    if geo.qd >= outer:
        return INF  # q in R_i^>, Lemma 1
    if geo.qd < inner:
        value = _mindist_from_inside_inner(geo, inner, theta_lo, theta_hi)
    else:
        value = _mindist_from_within_band(geo, theta_lo, theta_hi)
    if value is None:
        return fallback
    return max(value, fallback)


def dist_to_boundary_ray_along(geo, phi, boundary_theta):
    """Distance to ``q_phi^{theta}`` (Eq. 2 point), if it exists."""
    hit = ray_ray_intersection(geo.q, phi, boundary_theta)
    if hit is None:
        return None
    return geo.q.distance_to(hit)


def _mindist_from_inside_inner(geo, inner, theta_lo, theta_hi):
    """Table I rows for ``q`` inside the inner arc (``R_i^<``)."""
    if geo.q_theta < theta_lo:
        corner = polar_point(inner, theta_lo)
        return _corner_case(
            geo, corner,
            below=lambda: geo.dist_to_inner_arc_along(geo.alpha, inner),
            above=lambda: dist_to_boundary_ray_along(geo, geo.beta,
                                                     theta_lo))
    if geo.q_theta < theta_hi:
        if geo.alpha <= geo.q_theta <= geo.beta:
            return inner - geo.qd
        phi = geo.alpha if geo.q_theta < geo.alpha else geo.beta
        return geo.dist_to_inner_arc_along(phi, inner)
    corner = polar_point(inner, theta_hi)
    return _corner_case(
        geo, corner,
        below=lambda: dist_to_boundary_ray_along(geo, geo.alpha, theta_hi),
        above=lambda: geo.dist_to_inner_arc_along(geo.beta, inner))


def _mindist_from_within_band(geo, theta_lo, theta_hi):
    """Table I rows for ``q`` inside the band's radius range (``R_i``)."""
    if geo.q_theta < theta_lo:
        return dist_to_boundary_ray_along(geo, geo.beta, theta_lo)
    if geo.q_theta < theta_hi:
        return 0.0
    return dist_to_boundary_ray_along(geo, geo.alpha, theta_hi)


def _corner_case(geo, corner, below, above):
    """Shared corner logic of Table I rows 2 and 4."""
    if corner.coincides(geo.q):
        return 0.0
    direction = signed_angle(geo.q.direction_to(corner))
    if direction < geo.alpha:
        return below()
    if direction > geo.beta:
        return above()
    return geo.q.distance_to(corner)


# -- FINDCANDREGIONS, one sub-region at a time ------------------------------------


def candidate_wedge_range(band, tau_lo, tau_hi):
    """Lemma 3/4's window over a per-call list of the band's ``theta_lo``."""
    breaks = [s.theta_lo for s in band.subregions]
    first = bisect_right(breaks, tau_lo) - 1
    if first < 0:
        first = 0
    elif (band.subregions[first].theta_hi <= tau_lo
          and first + 1 < len(band.subregions)):
        first += 1
    last = bisect_right(breaks, tau_hi) - 1
    if last < first:
        return (first, first)
    return (first, last + 1)


def candidate_subregions(self, sub, band, collector, mode, stats,
                         span=None):
    """FINDCANDREGIONS: keyword-bearing sub-regions surviving pruning."""
    regions = sub.anchor.regions
    geo = sub.geometry
    first_gid = band.first_gid
    end_gid = first_gid + len(band.subregions)
    if mode.direction:
        tau_lo, tau_hi = sub.band_bounds(band)
        lo_idx, hi_idx = candidate_wedge_range(band, tau_lo, tau_hi)
        gid_lo, gid_hi = first_gid + lo_idx, first_gid + hi_idx
    else:
        gid_lo, gid_hi = first_gid, end_gid
    selected = _slice_sorted(sub.candidate_gids, gid_lo, gid_hi)
    if span is not None:
        span.annotate(subregions_examined=len(selected))
        if mode.direction:
            in_band = len(_slice_sorted(sub.candidate_gids, first_gid,
                                        end_gid))
            span.annotate(
                subregions_window_pruned=in_band - len(selected),
                mindist_evaluations=len(selected),
                tau_lower=tau_lo, tau_upper=tau_hi,
                wedge_window=[lo_idx, hi_idx])
    out = []
    pruned = 0
    for gid in selected:
        if stats is not None:
            stats.subregions_examined += 1
        if mode.direction:
            wedge = regions.subregions[gid]
            mindist = subregion_mindist(
                geo, band.inner_radius, band.outer_radius,
                wedge.theta_lo, wedge.theta_hi)
            if mindist >= collector.kth_distance:
                pruned += 1
                continue
        else:
            mindist = 0.0
        out.append((mindist, gid))
    if span is not None:
        span.annotate(subregions_mindist_pruned=pruned)
    out.sort()
    return out


# -- FINDCANDPOIS, one POI at a time ------------------------------------------------


def scan_wedge(self, query, sub, band, gid, collector, stats, span=None):
    """FINDCANDPOIS: combine POI lists, verify direction + distance."""
    lists = [view.pois_in(gid) for view in sub.postings]
    if query.match_mode is MatchMode.ALL:
        lists.sort(key=len)
        if not lists or not lists[0]:
            return
        survivors = set(lists[0])
        for other in lists[1:]:
            survivors.intersection_update(other)
            if not survivors:
                return
    else:
        survivors = set()
        for other in lists:
            survivors.update(other)
        if not survivors:
            return
    self._verify_pois(query, survivors, collector, stats, span)


def verify_pois(self, query, poi_ids, collector, stats, span=None):
    """Direction- and distance-test POIs one at a time."""
    location = query.location
    if span is not None:
        span.add("pois_fetched", len(poi_ids))
    for poi_id in poi_ids:
        if stats is not None:
            stats.pois_examined += 1
            stats.distance_computations += 1
        poi_location = self._collection.location(poi_id)
        if not poi_location.coincides(location):
            theta = location.direction_to(poi_location)
            if not query.interval.contains(theta):
                continue
        if stats is not None:
            stats.candidates_verified += 1
        if span is not None:
            span.add("pois_verified")
        distance = location.distance_to(poi_location)
        if distance <= collector.kth_distance:
            collector.add(poi_id, distance)


class ReferenceSearcher(DesksSearcher):
    """The object searcher with the per-sub-region ranking and the per-POI
    wedge scan and posting walk."""

    _candidate_subregions = candidate_subregions
    _scan_wedge = scan_wedge
    _verify_pois = verify_pois


class ReferenceColumnarSearcher(ColumnarSearcher):
    """The columnar searcher with the per-sub-region ranking and the
    per-POI posting walk; its wedge scan is its own, vectorised one either
    way."""

    _candidate_subregions = candidate_subregions
    _verify_pois = verify_pois

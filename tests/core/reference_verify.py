"""The per-POI FINDCANDPOIS loop, kept as the tests' reference.

This is what ``DesksSearcher._scan_wedge`` and ``_verify_pois`` ran before
a wedge's check became one :func:`repro.geometry.in_direction` call: a
``set()`` of every wedge's keyword holders, then, per POI, its ``Point``
from the collection, ``coincides``, ``direction_to``,
``interval.contains``, ``kth_distance`` and ``distance_to``, with
``SearchStats`` and the span counters bumped one POI at a time.  The
shipped searchers must do exactly this work and give exactly these answers
(``test_verify_oracle.py``); nothing under ``src/`` imports it.
"""

from repro.core import DesksSearcher, MatchMode
from repro.kernel import ColumnarSearcher


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
    """The object searcher with the per-POI wedge scan and posting walk."""

    _scan_wedge = scan_wedge
    _verify_pois = verify_pois


class ReferenceColumnarSearcher(ColumnarSearcher):
    """The columnar searcher with the per-POI posting walk; its wedge
    scan is its own, vectorised one either way."""

    _verify_pois = verify_pois

"""Cardinality and distance estimation for direction-aware queries.

Classic System-R style estimation adapted to the paper's query class:

* **keyword selectivity** from document frequencies, assuming term
  independence (conjunctive: product of per-term selectivities;
  disjunctive: inclusion-exclusion under independence);
* **direction selectivity** as the interval's fraction of the full circle
  — exact in expectation for a query located where POI directions are
  uniform, an approximation elsewhere;
* **k-th distance** by inverting the expected count in a sector: a sector
  of angle ``w`` and radius ``r`` around the query holds about
  ``density * w * r^2 / 2`` matching POIs, so the k-th nearest is expected
  near ``sqrt(2k / (w * density))`` beyond ``MINDIST(q, MBR)`` — a query
  outside the data reaches no POI before it crosses that gap.

DESKS's pruning needs no statistics and no estimate ever changes an
answer.  What the estimates do drive is cost: the searcher's access-path
model (:meth:`repro.core.DesksSearcher.access_costs`) weighs the posting
walk against the region search with them (``EXPLAIN`` prints its two
estimates), and the router orders shards by them.  Every method takes
the query's keywords already resolved to ``term_ids`` when the caller
has them, so nothing is looked up twice.  They are validated by
correlation tests, not by exactness.
"""

from __future__ import annotations

import math
from typing import Collection, Optional

from ..datasets import POICollection
from .query import DirectionalQuery, MatchMode


class CardinalityEstimator:
    """Estimates result counts and k-th distances for a collection."""

    def __init__(self, collection: POICollection) -> None:
        self.collection = collection
        self._num_pois = len(collection)
        mbr = collection.mbr
        # Degenerate extents (collinear data) get a floor so densities
        # remain finite; estimates there are order-of-magnitude at best.
        self.area = max(mbr.width * mbr.height, 1e-9)

    # -- selectivities -------------------------------------------------------

    def keyword_selectivity(self, query: DirectionalQuery,
                            term_ids: Optional[Collection[int]] = None,
                            ) -> float:
        """Fraction of POIs expected to satisfy the keyword predicate.

        ``term_ids`` are the query's keywords already resolved (what
        ``POICollection.query_term_ids`` returns); ``None`` resolves them.
        """
        conjunctive = query.match_mode is MatchMode.ALL
        if term_ids is None:
            term_ids = self.collection.query_term_ids(
                query.keywords, require_all=conjunctive)
            if term_ids is None:
                return 0.0
        frequency = self.collection.vocabulary.doc_frequency
        total = max(self._num_pois, 1)
        # Sorted, so the value does not depend on the ids' iteration order.
        fractions = sorted(frequency(term_id) / total
                           for term_id in term_ids)
        if conjunctive:
            return math.prod(fractions)
        return 1.0 - math.prod(1.0 - f for f in fractions)

    def direction_selectivity(self, query: DirectionalQuery) -> float:
        """Fraction of the plane's directions inside the query interval."""
        return query.interval.width / (2.0 * math.pi)

    # -- counts and distances ------------------------------------------------------

    def estimate_matching_pois(self, query: DirectionalQuery,
                               term_ids: Optional[Collection[int]] = None,
                               ) -> float:
        """Expected number of POIs satisfying keywords *and* direction.

        Ignores boundary clipping of the sector against the dataset MBR;
        good when the query sits well inside the data, optimistic near the
        edges.
        """
        return (self._num_pois * self.keyword_selectivity(query, term_ids)
                * self.direction_selectivity(query))

    def estimate_kth_distance(self, query: DirectionalQuery,
                              term_ids: Optional[Collection[int]] = None,
                              ) -> Optional[float]:
        """Expected distance of the k-th answer; ``None`` when the query
        is expected to run dry (fewer matches than ``k`` in the dataset).

        Never nearer than ``MINDIST(q, MBR)``: the sector radius the
        density calls for is counted from where the data begins.
        """
        selectivity = self.keyword_selectivity(query, term_ids)
        if (self._num_pois * selectivity * self.direction_selectivity(query)
                < query.k):
            return None
        density = self._num_pois * selectivity / self.area
        if density <= 0.0:
            return None
        width = max(query.interval.width, 1e-9)
        gap = self.collection.mbr.min_distance_to_point(query.location)
        return gap + math.sqrt(2.0 * query.k / (width * density))

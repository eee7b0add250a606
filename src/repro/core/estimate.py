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
  near ``sqrt(2k / (w * density))``.

Estimates drive nothing in the search algorithms (DESKS's pruning needs no
statistics); they exist for planning-style uses — workload sizing, CLI
hints, sanity checks — and are validated by correlation tests, not by
exactness.  The one statistic the searcher does act on is exact, not
estimated: the keywords' document frequencies decide between the posting
walk and the region search (:meth:`repro.core.DesksSearcher.search`).
"""

from __future__ import annotations

import math
from typing import Optional

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
        self._area = max(mbr.width * mbr.height, 1e-9)

    # -- selectivities -------------------------------------------------------

    def keyword_selectivity(self, query: DirectionalQuery) -> float:
        """Fraction of POIs expected to satisfy the keyword predicate."""
        vocabulary = self.collection.vocabulary
        fractions = []
        for keyword in query.keywords:
            term_id = vocabulary.id_of(keyword)
            df = vocabulary.doc_frequency(term_id) if term_id is not None \
                else 0
            fractions.append(df / max(self._num_pois, 1))
        if query.match_mode is MatchMode.ALL:
            out = 1.0
            for f in fractions:
                out *= f
            return out
        miss = 1.0
        for f in fractions:
            miss *= (1.0 - f)
        return 1.0 - miss

    def direction_selectivity(self, query: DirectionalQuery) -> float:
        """Fraction of the plane's directions inside the query interval."""
        return query.interval.width / (2.0 * math.pi)

    # -- counts and distances ------------------------------------------------------

    def estimate_matching_pois(self, query: DirectionalQuery) -> float:
        """Expected number of POIs satisfying keywords *and* direction.

        Ignores boundary clipping of the sector against the dataset MBR;
        good when the query sits well inside the data, optimistic near the
        edges.
        """
        return (self._num_pois * self.keyword_selectivity(query)
                * self.direction_selectivity(query))

    def estimate_kth_distance(self, query: DirectionalQuery,
                              ) -> Optional[float]:
        """Expected distance of the k-th answer; ``None`` when the query
        is expected to run dry (fewer matches than ``k`` in the dataset).
        """
        expected_total = self.estimate_matching_pois(query)
        if expected_total < query.k:
            return None
        density = (self._num_pois * self.keyword_selectivity(query)
                   / self._area)
        if density <= 0.0:
            return None
        width = max(query.interval.width, 1e-9)
        return math.sqrt(2.0 * query.k / (width * density))

    def summary(self, query: DirectionalQuery) -> str:
        """One-line human summary for CLI/debug output."""
        matches = self.estimate_matching_pois(query)
        kth = self.estimate_kth_distance(query)
        kth_text = f"~{kth:.1f}" if kth is not None else "beyond dataset"
        return (f"estimated in-direction matches: {matches:.1f} "
                f"(keyword selectivity "
                f"{self.keyword_selectivity(query):.4f}); "
                f"expected {query.k}-th distance: {kth_text}")

"""The span tree a traced region search records (the query's EXPLAIN
facility); the posting walk's single span is in ``test_access_path.py``.
"""

import math

from repro.core import (
    DirectionalQuery,
    PruningMode,
)
from repro.storage import SearchStats
from repro.trace import Tracer


class TestRegionSearchSpans:
    def run(self, searcher, query, mode=PruningMode.RD, stats=None):
        tracer = Tracer()
        with tracer.activate():
            result = searcher.search_regions(query, mode, stats)
        return tracer.find("desks.search"), result

    def test_subqueries_match_decomposition(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.2, 0.2 + 1.5 * math.pi,
                                  ["cafe"], 5)
        root, _ = self.run(searcher, q)
        subqueries = root.find_all("desks.subquery")
        assert len(subqueries) == len(q.basic_subqueries())
        assert root.find("desks.prepare").attrs["subqueries"] == \
            len(subqueries)

    def test_single_quadrant_one_subquery(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.1, 1.0, ["cafe"], 5)
        root, _ = self.run(searcher, q)
        # 0 if no keyword sub-regions
        assert len(root.find_all("desks.subquery")) <= 1

    def test_band_accounting_consistent_with_stats(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.0, math.pi, ["food"], 10)
        stats = SearchStats()
        root, _ = self.run(searcher, q, stats=stats)
        bands = root.find_all("desks.band")
        assert root.attrs["bands_scanned"] == stats.regions_examined == \
            sum(b.attrs["action"] == "scanned" for b in bands)
        assert root.attrs["pois_fetched"] == stats.pois_examined == \
            sum(b.attrs.get("pois_fetched", 0) for b in bands)

    def test_num_results_recorded(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.0, 2.0, ["cafe"], 3)
        root, result = self.run(searcher, q)
        assert root.attrs["results"] == len(result)

    def test_termination_recorded_under_region_pruning(self, searcher):
        # A dense keyword with small k terminates before exhausting bands.
        q = DirectionalQuery.undirected(50, 50, ["food"], 1)
        root, _ = self.run(searcher, q, PruningMode.RD)
        terminated = [b for b in root.find_all("desks.band")
                      if b.attrs["action"] == "terminated"]
        assert root.attrs["terminated_early"] == bool(terminated)
        assert terminated, "expected Lemma 1 to cut this search short"
        # The terminated entry hangs under its own sub-query's span.
        for sub in root.find_all("desks.subquery"):
            for band in sub.children:
                assert band.attrs["quadrant"] == sub.attrs["quadrant"]

    def test_direction_mode_fills_tau_and_window(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.3, 0.9, ["food"], 5)
        for mode in (PruningMode.RD, PruningMode.D):
            root, _ = self.run(searcher, q, mode)
            scanned = [b for b in root.find_all("desks.band")
                       if b.attrs["action"] == "scanned"]
            assert scanned, "expected at least one scanned band"
            for band in scanned:
                assert band.attrs["tau_lower"] <= band.attrs["tau_upper"]
                lo, hi = band.attrs["wedge_window"]
                assert 0 <= lo <= hi

    def test_r_mode_has_no_tau(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.3, 0.9, ["food"], 5)
        root, _ = self.run(searcher, q, PruningMode.R)
        bands = root.find_all("desks.band")
        assert bands
        for band in bands:
            assert "tau_lower" not in band.attrs
            assert "wedge_window" not in band.attrs

    def test_unknown_keyword_trace_empty(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.1, 1.0, ["zzz"], 5)
        root, result = self.run(searcher, q)
        assert len(result) == 0
        assert root.find_all("desks.band") == []
        assert root.find_all("desks.subquery") == []
        assert root.attrs["results"] == 0
        assert root.attrs["bands_scanned"] == 0

    def test_trace_does_not_change_answers(self, searcher):
        q = DirectionalQuery.make(40, 60, 0.5, 3.5, ["gas"], 8)
        _, with_trace = self.run(searcher, q)
        without = searcher.search(q)
        assert with_trace.entries == without.entries

    def test_verified_never_exceeds_fetched(self, searcher):
        q = DirectionalQuery.make(50, 50, 0.0, 1.2, ["food"], 10)
        root, _ = self.run(searcher, q)
        scanned = [b for b in root.find_all("desks.band")
                   if b.attrs["action"] == "scanned"]
        assert scanned
        for band in scanned:
            assert band.attrs["pois_verified"] <= band.attrs["pois_fetched"]
            wedges = band.find_all("desks.wedge")
            assert len(wedges) == band.attrs["subregions_kept"]
            for key in ("pois_fetched", "pois_verified"):
                assert sum(w.attrs[key] for w in wedges) == band.attrs[key]

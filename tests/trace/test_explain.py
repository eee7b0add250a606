"""explain() must account for exactly the cost the counters saw.

The acceptance bar: on wide, narrow, and wraparound sectors, the span
totals reconcile *exactly* with the ``SearchStats`` pruning counters and
the ``IOStats`` page reads of an identical untraced search.
"""

import math

import pytest

from repro.core import (
    DesksIndex,
    DesksSearcher,
    MutableDesksIndex,
    PruningMode,
)
from repro.storage import SearchStats
from repro.trace import ExplainReport, Tracer, explain
from repro.trace.explain import RECONCILED_COUNTERS

from .conftest import make_collection, make_query

#: The acceptance criterion's >= 3 sector shapes, wraparound included.
SECTORS = [
    pytest.param(0.3, 2 * math.pi, id="full-circle"),
    pytest.param(0.3, math.pi, id="wide"),
    pytest.param(0.8, math.pi / 16, id="narrow"),
    pytest.param(2 * math.pi - 0.2, 0.7, id="wraparound"),
]


@pytest.fixture(scope="module")
def disk_index(tmp_path_factory):
    collection = make_collection(n=400, seed=42)
    prefix = str(tmp_path_factory.mktemp("explain") / "idx")
    return DesksIndex(collection, num_bands=4, num_wedges=6,
                      disk_based=True, disk_path_prefix=prefix,
                      buffer_capacity=8)


class TestReconciliation:
    @pytest.mark.parametrize("alpha,width", SECTORS)
    @pytest.mark.parametrize("mode", [PruningMode.RD, PruningMode.R,
                                      PruningMode.D])
    def test_exact_reconciliation(self, disk_index, alpha, width, mode):
        report = explain(disk_index, make_query(alpha=alpha, width=width),
                         mode=mode)
        assert report.reconciled, report.render()
        quantities = {row["quantity"] for row in report.reconciliation}
        assert quantities == {"pois_fetched", "pois_verified",
                              "subregions_examined", "bands_scanned",
                              "pages_read"}

    @pytest.mark.parametrize("alpha,width", SECTORS)
    def test_matches_identical_untraced_search(self, disk_index, alpha,
                                               width):
        query = make_query(alpha=alpha, width=width)
        report = explain(disk_index, query)

        stats = SearchStats()
        io_before = disk_index.io_stats.snapshot()
        untraced = DesksSearcher(disk_index).search(query, stats=stats)
        pages = io_before.delta(disk_index.io_stats.snapshot()
                                ).logical_reads

        assert [r["poi_id"] for r in report.results] == \
            untraced.poi_ids()
        actuals = report.actuals
        assert actuals["pois_fetched"] == stats.pois_examined
        assert actuals["pois_verified"] == stats.candidates_verified
        assert actuals["subregions_examined"] == \
            stats.subregions_examined
        assert actuals["bands_scanned"] == stats.regions_examined
        assert actuals["pages_read"] == pages

    def test_pages_actually_flow_through_spans(self, disk_index):
        report = explain(disk_index, make_query(width=math.pi))
        assert report.actuals["pages_read"] > 0
        root = report.trace.find("desks.search")
        prepare = root.find("desks.prepare")
        bands = root.find_all("desks.band")
        assert prepare.attrs["pages_read"] + \
            sum(b.attrs.get("pages_read", 0) for b in bands) == \
            root.attrs["pages_read"]


class TestReportShape:
    def test_plan_names_decomposition_and_pruning(self, disk_index):
        alpha = 2 * math.pi - 0.2
        report = explain(disk_index, make_query(alpha=alpha, width=0.7))
        assert report.plan["pruning"] == {"region": True,
                                          "direction": True}
        # A wraparound interval decomposes across >= 2 quadrants.
        assert len(report.plan["subqueries"]) >= 2
        assert report.plan["index"]["num_bands"] == 4
        assert report.plan["index"]["disk_based"] is True

    def test_mode_accepts_string_names(self, disk_index):
        report = explain(disk_index, make_query(), mode="D")
        assert report.mode == "D"
        assert report.plan["pruning"] == {"region": False,
                                          "direction": True}

    def test_to_dict_is_json_ready(self, disk_index):
        import json

        report = explain(disk_index, make_query())
        doc = json.loads(report.to_json())
        assert doc["reconciled"] is True
        assert doc["trace"]["spans"][0]["name"] == "desks.search"
        assert isinstance(doc["results"], list)

    def test_render_flags_status(self, disk_index):
        report = explain(disk_index, make_query())
        assert isinstance(report, ExplainReport)
        assert "reconciliation (OK)" in report.render()

    def test_sink_receives_the_tracer(self, disk_index):
        class Recorder:
            observed = None

            def observe(self, tracer):
                Recorder.observed = tracer

        report = explain(disk_index, make_query(), sink=Recorder())
        assert Recorder.observed is report.trace

    def test_in_memory_index_reconciles_with_zero_pages(self):
        collection = make_collection(n=200, seed=7)
        index = DesksIndex(collection, num_bands=3, num_wedges=5)
        report = explain(index, make_query())
        assert report.reconciled
        assert report.actuals["pages_read"] == 0


class _ExpiresOnCall:
    """A deadline whose ``expired()`` turns true on the n-th call."""

    def __init__(self, n):
        self.remaining = n

    def expired(self):
        self.remaining -= 1
        return self.remaining <= 0


class TestPartialResultsReconcile:
    """A deadline cut must not make the span tree lie.

    Sub-regions ``SearchStats`` counted but the cut left unscanned are
    neither kept nor MINDIST-pruned; the band span must still carry them.
    """

    @pytest.mark.parametrize("mode", [PruningMode.RD, PruningMode.R,
                                      PruningMode.D])
    def test_every_cut_point_reconciles(self, disk_index, mode):
        searcher = DesksSearcher(disk_index)
        query = make_query(alpha=0.3, width=2 * math.pi, k=10)
        partial_searches = unscanned = 0
        for n in range(1, 200):
            stats = SearchStats()
            tracer = Tracer()
            with tracer.activate():
                result = searcher.search(query, mode, stats,
                                         deadline=_ExpiresOnCall(n))
            root = tracer.find("desks.search")
            assert root.attrs["partial"] == result.partial
            for span_key, stats_key in RECONCILED_COUNTERS:
                assert root.attrs[span_key] == getattr(stats, stats_key), \
                    (n, span_key)
            if not result.partial:
                break
            partial_searches += 1
            for band in root.find_all("desks.band"):
                if band.attrs["action"] == "scanned":
                    unscanned += band.attrs["subregions_examined"] - (
                        band.attrs["subregions_kept"]
                        + band.attrs["subregions_mindist_pruned"])
        assert partial_searches > 2
        # The regression's trigger really occurred: some cut landed
        # mid-band, leaving examined sub-regions unscanned.
        assert unscanned > 0


class TestMutableIndexReconciles:
    """EXPLAIN over a delta buffer: ``desks.search`` + ``desks.delta``."""

    @pytest.fixture()
    def mutable(self):
        return MutableDesksIndex(make_collection(n=300, seed=11),
                                 num_bands=4, num_wedges=6)

    def test_pending_inserts_and_deletes(self, mutable):
        query = make_query(width=math.pi)
        for poi_id in explain(mutable, query).results[:2]:
            mutable.delete(poi_id["poi_id"])
        near = [mutable.insert(41.0 + i, 56.0 + i, ["cafe"])
                for i in range(3)]
        mutable.insert(10.0, 10.0, ["bank"])   # scanned, not matched
        mutable.delete(near[0])                # a tombstone in the delta
        report = explain(mutable, query)
        assert report.reconciled, report.render()
        assert "reconciliation (OK)" in report.render()
        delta = report.trace.find("desks.delta")
        assert delta.attrs["pois_fetched"] == 3
        assert delta.attrs["tombstones_skipped"] == 1
        search = report.trace.find("desks.search")
        assert report.actuals["pois_fetched"] == \
            search.attrs["pois_fetched"] + 3
        assert {near[1], near[2]} <= {r["poi_id"] for r in report.results}

    def test_after_compaction_the_delta_span_is_empty(self, mutable):
        mutable.insert(41.0, 56.0, ["cafe"])
        assert mutable.compact()
        report = explain(mutable, make_query(width=math.pi))
        assert report.reconciled, report.render()
        assert report.trace.find("desks.delta").attrs["pois_fetched"] == 0

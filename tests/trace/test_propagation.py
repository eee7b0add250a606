"""Trace context must survive thread pools — and cost nothing when off."""

import math

import pytest

from repro.cluster import ShardRouter
from repro.core import DesksIndex, DesksSearcher, MutableDesksIndex
from repro.service import QueryEngine
from repro.trace import Tracer
import repro.trace.spans as spans_mod

from .conftest import (make_collection, make_queries, make_query,
                       region_query)


class TestEnginePropagation:
    def test_submit_runs_under_submitters_trace(self, collection):
        index = DesksIndex(collection, num_bands=4, num_wedges=6)
        query = region_query()
        tracer = Tracer()
        with QueryEngine(index, num_workers=2) as engine:
            with tracer.activate():
                engine.submit(query).result(timeout=30)
        worker = tracer.find("engine.worker")
        assert worker is not None
        assert worker in tracer.roots  # parented at the submit point
        assert worker.attrs["queue_wait_seconds"] >= 0.0
        execute = worker.children[0]
        assert execute.name == "engine.execute"
        assert execute.attrs["cache_hit"] is False
        # The search's own span tree sits under the engine span.
        search = execute.children[0]
        assert search.name == "desks.search"
        assert search.find("desks.prepare") is not None

    def test_batch_spans_one_per_unique_execution(self, collection):
        index = DesksIndex(collection, num_bands=4, num_wedges=6)
        query = make_query()
        tracer = Tracer()
        with QueryEngine(index, num_workers=2) as engine:
            with tracer.activate():
                for future in engine.submit_batch([query, query, query]):
                    future.result(timeout=30)
        # Three futures, one execution: exactly one worker span.
        assert len(tracer.find_all("engine.worker")) == 1

    @pytest.mark.parametrize("kernel", ["object", "columnar"])
    def test_batch_chunks_carry_the_submitters_trace(self, collection,
                                                     kernel):
        index = DesksIndex(collection, num_bands=4, num_wedges=6)
        queries = [make_query(x=x) for x in (20.0, 40.0, 60.0)]
        tracer, duplicates = Tracer(), Tracer()
        with QueryEngine(index, num_workers=2, kernel=kernel) as engine:
            with tracer.activate():
                for future in engine.submit_batch(queries):
                    future.result(timeout=30)
            with duplicates.activate():
                for future in engine.submit_batch([make_query(x=80.0)] * 3):
                    future.result(timeout=30)
        assert len(duplicates.find_all("engine.worker")) == 1
        assert len(duplicates.find_all("engine.execute")) == 1
        # Three unique queries on two workers: two chunk tasks.
        workers = tracer.find_all("engine.worker")
        assert len(workers) == 2
        assert all(w.attrs["queue_wait_seconds"] >= 0.0 for w in workers)
        executes = [child for w in workers for child in w.children]
        assert [e.name for e in executes] == ["engine.execute"] * 3
        assert all(e.children[0].name == "desks.search" for e in executes)
        assert len(tracer.find_all("desks.search")) == 3

    def test_cache_hit_annotated_without_search_child(self, collection):
        index = DesksIndex(collection, num_bands=4, num_wedges=6)
        query = make_query()
        tracer = Tracer()
        with QueryEngine(index) as engine:
            engine.execute(query)  # warm, untraced
            with tracer.activate():
                response = engine.execute(query)
        assert response.cached
        execute = tracer.find("engine.execute")
        assert execute.attrs["cache_hit"] is True
        assert execute.find("desks.search") is None

    def test_untraced_engine_records_no_span_metrics(self, collection):
        index = DesksIndex(collection, num_bands=4, num_wedges=6)
        with QueryEngine(index) as engine:
            engine.execute(make_query())
            histograms = engine.metrics.to_dict()["histograms"]
        assert not any(name.startswith("span_") for name in histograms)


class TestRouterPropagation:
    def test_shard_spans_land_under_their_wave(self, collection):
        query = make_query(keywords=("cafe",), k=3)
        tracer = Tracer()
        with ShardRouter(collection, num_shards=4, max_fanout=2,
                         num_bands=4, num_wedges=5) as router:
            with tracer.activate():
                response = router.execute(query)
        root = tracer.find("router.execute")
        assert root is not None
        plan = root.find("router.plan")
        assert plan.attrs["shards_total"] == 4
        waves = root.find_all("router.wave")
        assert len(waves) == root.attrs["waves"] >= 1
        shard_spans = root.find_all("router.shard")
        assert len(shard_spans) == response.shards_dispatched
        for wave in waves:
            for child in wave.children:
                assert child.name == "router.shard"
                assert child.attrs["queue_wait_seconds"] >= 0.0
                # Each shard call ran the engine under this wave span.
                assert child.find("engine.execute") is not None
        # Fanout bounds the spans per wave.
        assert all(len(w.children) <= 2 for w in waves)

    def test_first_wave_is_the_home_shard_alone(self, collection):
        """Bound-first: wave 0 of a grid query asks only the shard that
        holds ``q`` — on the calling thread, still timed as a hand-off."""
        query = make_query(alpha=0.0, width=2 * math.pi, keywords=("cafe",))
        tracer = Tracer()
        with ShardRouter(collection, num_shards=4, partitioner="grid",
                         num_bands=4, num_wedges=5) as router:
            with tracer.activate():
                response = router.execute(query)
        root = tracer.find("router.execute")
        waves = root.find_all("router.wave")
        (home,) = waves[0].children
        assert home.name == "router.shard"
        assert home.attrs["mindist"] == 0.0
        assert home.attrs["queue_wait_seconds"] >= 0.0
        assert waves[0].attrs["shards_dispatched"] == 1
        assert root.attrs["waves"] == len(waves)
        assert root.attrs["shards_dispatched"] == \
            response.shards_dispatched == len(root.find_all("router.shard"))
        assert root.attrs["shards_skipped"] == response.shards_skipped

    def test_root_annotations_match_response(self, collection):
        queries = make_queries(10, seed=5)
        with ShardRouter(collection, num_shards=4, num_bands=4,
                         num_wedges=5) as router:
            for query in queries:
                tracer = Tracer()
                with tracer.activate():
                    response = router.execute(query)
                attrs = tracer.find("router.execute").attrs
                assert attrs["shards_dispatched"] == \
                    response.shards_dispatched
                assert attrs["shards_skipped"] == response.shards_skipped
                assert attrs["shards_sector_pruned"] == \
                    response.shards_pruned
                assert attrs["shards_keyword_pruned"] == \
                    response.shards_keyword_pruned
                assert attrs["results"] == len(response.result)


class TestDisabledAllocatesNothing:
    @pytest.fixture()
    def span_allocation_trap(self, monkeypatch):
        """Make any Span construction an immediate failure."""

        def explode(self, *args, **kwargs):
            raise AssertionError(
                "Span allocated while tracing was disabled")

        monkeypatch.setattr(spans_mod.Span, "__init__", explode)

    def test_search_allocates_no_spans(self, collection,
                                       span_allocation_trap):
        searcher = DesksSearcher(
            DesksIndex(collection, num_bands=4, num_wedges=6))
        result = searcher.search(make_query())
        assert len(result) > 0

    def test_engine_allocates_no_spans(self, collection,
                                       span_allocation_trap):
        index = DesksIndex(collection, num_bands=4, num_wedges=6)
        with QueryEngine(index, num_workers=2) as engine:
            assert engine.submit(make_query()).result(timeout=30) \
                .result.entries

    def test_router_allocates_no_spans(self, collection,
                                       span_allocation_trap):
        with ShardRouter(collection, num_shards=2, num_bands=4,
                         num_wedges=5) as router:
            router.execute(make_query())

    def test_durable_mutations_allocate_no_spans(self, tmp_path,
                                                 span_allocation_trap):
        from repro.durability import DurableMutableIndex

        index = DurableMutableIndex.create(make_collection(40),
                                           str(tmp_path / "d"))
        index.insert(1.0, 2.0, ["cafe"])
        index.checkpoint()
        index.close()


class TestMutableIndexTracing:
    def test_mutable_search_traces_inner_searches(self, collection):
        index = MutableDesksIndex(collection, num_bands=4, num_wedges=6)
        index.insert(40.5, 55.5, ["cafe"])
        tracer = Tracer()
        with tracer.activate():
            result = index.search(make_query())
        assert len(result) > 0
        assert tracer.find("desks.search") is not None

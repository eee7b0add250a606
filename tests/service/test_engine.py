"""QueryEngine: concurrency, caching, staleness, deadlines, metrics."""

import gc
import math
import weakref

import pytest

from repro.core import (
    AnswerCache,
    DirectionalQuery,
    MutableDesksIndex,
    brute_force_search,
)
from repro.service import QueryEngine

from .conftest import make_queries


def live_oracle(mutable_index, query):
    """Brute-force top-k over the index's current live POIs.

    Scans the POI list directly (POICollection would renumber ids).
    """
    matches = []
    for poi in mutable_index.live_pois():
        if query.matches(poi.location, poi.keywords):
            matches.append(
                (query.location.distance_to(poi.location), poi.poi_id))
    matches.sort()
    return [poi_id for _, poi_id in matches[:query.k]]


class TestStaticServing:
    def test_concurrent_answers_match_oracle(self, collection,
                                             static_index):
        queries = make_queries(40, seed=11)
        with QueryEngine(static_index, num_workers=4) as engine:
            futures = [engine.submit(q) for q in queries]
            for query, future in zip(queries, futures):
                response = future.result(timeout=30)
                expect = brute_force_search(collection, query)
                assert response.result.poi_ids() == expect.poi_ids()
                assert not response.partial

    def test_second_ask_is_a_cache_hit(self, static_index):
        query = make_queries(1, seed=12)[0]
        with QueryEngine(static_index) as engine:
            first = engine.execute(query)
            second = engine.execute(query)
        assert not first.cached
        assert second.cached
        assert second.result.poi_ids() == first.result.poi_ids()
        assert engine.cache.stats.hits == 1

    def test_cache_hit_same_canonical_key(self, static_index):
        query = make_queries(1, seed=13)[0]
        reordered = type(query).make(
            query.location.x, query.location.y, query.interval.lower,
            query.interval.upper, sorted(query.keywords, reverse=True),
            query.k)
        with QueryEngine(static_index) as engine:
            engine.execute(query)
            assert engine.execute(reordered).cached

    def test_batch_dedupes_identical_queries(self, static_index):
        queries = make_queries(5, seed=14)
        batch = queries + queries + [queries[0]]
        with QueryEngine(static_index, num_workers=4) as engine:
            futures = engine.submit_batch(batch)
            assert len(futures) == len(batch)
            # Duplicates share the same future object.
            for i, _query in enumerate(queries):
                assert futures[i] is futures[len(queries) + i]
            assert futures[-1] is futures[0]
            responses = [f.result(timeout=30) for f in futures]
        assert engine.metrics.counter("batch_unique_total").value == 5
        assert engine.metrics.counter("batch_deduped_total").value == 6
        # At most one actual search per distinct query.
        assert engine.cache.stats.misses <= 5
        for query, response in zip(batch, responses):
            assert response.query.canonical_key() == query.canonical_key()

    def test_submit_after_close_raises(self, static_index):
        engine = QueryEngine(static_index)
        engine.close()
        with pytest.raises(RuntimeError):
            engine.submit(make_queries(1)[0])

    def test_metrics_recorded(self, static_index):
        queries = make_queries(8, seed=15)
        with QueryEngine(static_index) as engine:
            for query in queries:
                engine.execute(query)
                engine.execute(query)
        assert engine.metrics.counter("queries_total").value == 16
        assert engine.metrics.counter("cache_hits_total").value == 8
        assert engine.metrics.counter("cache_misses_total").value == 8
        assert engine.metrics.histogram(
            "query_latency_seconds").count == 16


class TestMutableServing:
    def test_insert_invalidates_affected_cached_result(self,
                                                       mutable_index):
        """THE staleness contract: after an insert that changes a query's
        answer, the engine must not serve the old cached answer."""
        query = make_queries(1, seed=16)[0]
        with QueryEngine(mutable_index, num_workers=2) as engine:
            before = engine.execute(query)
            assert engine.execute(query).cached
            # Insert a matching POI a hair away from the query location,
            # *inside* the direction interval — guaranteed top-1.
            loc, mid = query.location, query.interval.midpoint()
            new_id = mutable_index.insert(
                loc.x + 1e-3 * math.cos(mid), loc.y + 1e-3 * math.sin(mid),
                sorted(query.keywords))
            after = engine.execute(query)
            assert not after.cached
            assert new_id in after.result.poi_ids()
            assert after.result.poi_ids() == live_oracle(
                mutable_index, query)
            assert before.generation < after.generation

    def test_delete_invalidates(self, mutable_index):
        query = make_queries(1, seed=17)[0]
        with QueryEngine(mutable_index, num_workers=2) as engine:
            first = engine.execute(query)
            if not first.result.entries:
                pytest.skip("query found nothing to delete")
            victim = first.result.poi_ids()[0]
            assert mutable_index.delete(victim)
            after = engine.execute(query)
            assert not after.cached
            assert victim not in after.result.poi_ids()
            assert after.result.poi_ids() == live_oracle(
                mutable_index, query)

    def test_replaced_engine_and_index_are_freed_by_refcount_alone(
            self, collection):
        """Nothing in the index refers back to the engine, so no cycle
        runs through the pair: dropping the last references frees it at
        once (tens of MB at benchmark scale), not at whichever later
        moment the cyclic collector next runs."""
        index = MutableDesksIndex(collection, num_bands=4, num_wedges=6)
        engine = QueryEngine(index, num_workers=2)
        query = make_queries(1, seed=23)[0]
        engine.submit(query).result(timeout=30)
        index.insert(1.0, 1.0, ["cafe"])
        engine.close()
        index_ref, engine_ref = weakref.ref(index), weakref.ref(engine)
        gc.disable()    # a collection in between must not do the work
        try:
            del index, engine
            assert engine_ref() is None
            assert index_ref() is None
        finally:
            gc.enable()

    def test_unaffected_queries_still_correct_after_many_updates(
            self, mutable_index):
        queries = make_queries(10, seed=19)
        with QueryEngine(mutable_index, num_workers=4) as engine:
            for query in queries:
                engine.execute(query)
            for i in range(5):
                mutable_index.insert(50.0 + i, 50.0, ["park", "cafe"])
            for future in [engine.submit(q) for q in queries]:
                future.result(timeout=30)
            for query in queries:
                got = engine.execute(query)
                assert got.result.poi_ids() == live_oracle(
                    mutable_index, query)


class TestDeadlines:
    def test_zero_timeout_degrades_gracefully(self, static_index):
        query = make_queries(1, seed=20)[0]
        with QueryEngine(static_index) as engine:
            response = engine.execute(query, timeout=0.0)
            assert response.partial
            # Partial responses are not admitted to the cache...
            assert len(engine.cache) == 0
            assert engine.metrics.counter(
                "partial_results_total").value == 1
            # ...so a healthier follow-up recomputes in full.
            full = engine.execute(query, timeout=60.0)
            assert not full.partial

    def test_per_call_timeout_overrides_default(self, static_index):
        # The engine has no default deadline: a call without one runs
        # unbounded, a call with one is cut by it.
        query = make_queries(1, seed=21)[0]
        with QueryEngine(static_index) as engine:
            assert engine.execute(query, timeout=0.0).partial
            assert not engine.execute(query).partial


class TestValidation:
    def test_bad_worker_count(self, static_index):
        with pytest.raises(ValueError):
            QueryEngine(static_index, num_workers=0)

    @pytest.mark.parametrize("option",
                             ["cache", "location_quantum", "executor",
                              "snapshot", "default_timeout"])
    def test_removed_engine_options_rejected(self, static_index, option):
        with pytest.raises(TypeError):
            QueryEngine(static_index, **{option: None})

    def test_removed_cache_quantum_rejected(self):
        with pytest.raises(TypeError):
            AnswerCache(4, location_quantum=0.5)


class TestKeyedOnce:
    """One request computes its query's canonical key once: the dedupe,
    the lookup and the admission share it."""

    @pytest.fixture(params=["static", "mutable"])
    def index(self, request, static_index, collection):
        if request.param == "static":
            return static_index
        return MutableDesksIndex(collection, num_bands=4, num_wedges=6)

    @pytest.mark.parametrize("entry", ["execute", "submit", "submit_batch"])
    def test_one_canonical_key_per_request(self, index, entry, monkeypatch):
        original = DirectionalQuery.canonical_key
        calls = []

        def counting(query):
            calls.append(query)
            return original(query)

        monkeypatch.setattr(DirectionalQuery, "canonical_key", counting)
        with QueryEngine(index, num_workers=2) as engine:
            query = make_queries(1, seed=24)[0]
            if entry == "execute":
                response = engine.execute(query)
            elif entry == "submit":
                response = engine.submit(query).result(timeout=30)
            else:
                response = engine.submit_batch([query])[0].result(timeout=30)
        assert not response.cached
        assert len(calls) == 1

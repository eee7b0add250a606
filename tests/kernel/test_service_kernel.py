"""The ``kernel`` axis where it is left: on ``QueryEngine``.

``QueryEngine(kernel="columnar")`` and batched submission must give the
object path's answers — the axis changes throughput, never results.  The
engine compiles one snapshot of its own index; nothing above it (replica
sets, routers, the CLI) carries the axis, so ``ShardRouter(kernel=...)``
is a ``TypeError``.
"""

import threading

import pytest

from repro.core import MutableDesksIndex
from repro.kernel import ColumnarSearcher
from repro.service import QueryEngine


def entries_of(result):
    return [(entry.poi_id, entry.distance) for entry in result.entries]


@pytest.fixture()
def engines(index):
    with QueryEngine(index, num_workers=2, cache_capacity=4) as obj, \
            QueryEngine(index, num_workers=2, cache_capacity=4,
                        kernel="columnar") as columnar:
        yield obj, columnar


def test_engine_execute_equivalence(engines, corpus):
    obj, columnar = engines
    for query in corpus[::10]:
        expected = obj.execute(query)
        actual = columnar.execute(query)
        assert entries_of(actual.result) == entries_of(expected.result)


def test_engine_rejects_unknown_kernel(index):
    with pytest.raises(ValueError, match="kernel"):
        QueryEngine(index, kernel="simd")


def test_engine_rejects_mutable_index(collection):
    with pytest.raises(ValueError, match="static"):
        QueryEngine(MutableDesksIndex(collection), kernel="columnar")


def test_engine_answers_through_one_columnar_searcher(index, corpus,
                                                     monkeypatch):
    # Every worker thread searches through the same searcher, over the
    # one snapshot compiled from the engine's index.
    used = []
    real_search = ColumnarSearcher.search

    def search(self, *args, **kwargs):
        used.append(self)
        return real_search(self, *args, **kwargs)

    monkeypatch.setattr(ColumnarSearcher, "search", search)
    with QueryEngine(index, num_workers=3, kernel="columnar") as engine:
        futures = engine.submit_batch(corpus[:12])
        for future in futures:
            future.result()
        engine.execute(corpus[12])
    assert len(used) == 13
    searcher = used[0]
    assert all(other is searcher for other in used)
    assert searcher.snapshot.index is index
    assert engine.index.static_index is index


def test_submit_batch_chunks_and_dedupes(engines, corpus):
    obj, columnar = engines
    batch = corpus[:12] + corpus[:3]  # 12 unique + 3 duplicates
    futures = columnar.submit_batch(batch)
    assert len(futures) == 15
    for repeat in range(3):
        assert futures[12 + repeat] is futures[repeat]
    for query, future in zip(batch, futures):
        expected = obj.execute(query)
        assert entries_of(future.result().result) == \
            entries_of(expected.result)
    metrics = columnar.metrics
    assert metrics.counter("batch_unique_total").value == 12
    assert metrics.counter("batch_deduped_total").value == 3


def test_submit_batch_after_close_raises(index):
    engine = QueryEngine(index, kernel="columnar")
    engine.close()
    with pytest.raises(RuntimeError, match="closed"):
        engine.submit_batch(_three_queries())
    assert engine.metrics.counter("batch_unique_total").value == 0
    assert engine.metrics.counter("batch_deduped_total").value == 0


def _three_queries():
    from repro.core import DirectionalQuery

    return [DirectionalQuery.make(50.0, 50.0, 0.1, 2.0, ["cafe"], k)
            for k in (1, 2, 3)]


def test_router_kernel_axis_equivalence(collection):
    from repro.cluster import ShardRouter

    with pytest.raises(TypeError):
        ShardRouter(collection, num_shards=3, kernel="columnar")


def test_one_searcher_is_safe_across_threads(index, object_searcher, corpus,
                                             monkeypatch):
    # At a bound of one entry every plan-cache miss clears the cache, so
    # threads a query apart keep clearing what the others just looked up.
    # A guard, not a proof: a race need not show in any one run.
    from repro.kernel import search as kernel_search

    from ..analysis.hang_guard import join_all

    monkeypatch.setattr(kernel_search, "_PLAN_CACHE_LIMIT", 1)
    shared = ColumnarSearcher(index)
    expected = [entries_of(object_searcher.search_regions(query))
                for query in corpus]
    failures = []

    def run(offset):
        try:
            for position in range(len(corpus)):
                at = (position + offset) % len(corpus)
                got = entries_of(shared.search_regions(corpus[at]))
                if got != expected[at]:
                    failures.append((at, got))
        except BaseException as exc:  # reported by the main thread
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(offset,))
               for offset in range(4)]
    for thread in threads:
        thread.start()
    join_all(threads, 60.0)
    assert failures == []

"""The ``kernel`` axis where it is left: on ``QueryEngine``.

``QueryEngine(kernel="columnar")``, batched submission and the
closed-loop generator's ``batch_size`` must give the object path's
answers — the axis changes throughput, never results.  The engine
compiles one snapshot of its own index; nothing above it (replica sets,
routers, the CLI) carries the axis, so ``ShardRouter(kernel=...)`` is a
``TypeError``.
"""

import pytest

from repro.core import MutableDesksIndex
from repro.kernel import ColumnarSearcher
from repro.service import QueryEngine, run_closed_loop


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


def test_engine_rejects_foreign_snapshot(index, snapshot):
    with pytest.raises(TypeError):
        QueryEngine(index, kernel="columnar", snapshot=snapshot)


def test_engine_shares_supplied_snapshot(index):
    with QueryEngine(index, num_workers=3, kernel="columnar") as engine:
        assert engine.snapshot.index is index
        searchers = list(engine._searchers.queue)
        assert len(searchers) == 3
        for searcher in searchers:
            assert isinstance(searcher, ColumnarSearcher)
            assert searcher.snapshot is engine.snapshot


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


def test_closed_loop_batch_size(index, corpus):
    with QueryEngine(index, num_workers=2, kernel="columnar") as engine:
        report = run_closed_loop(engine, corpus[:10], num_clients=2,
                                 requests_per_client=7, batch_size=3)
    assert report.total_queries == 14
    assert report.errors == 0


def test_closed_loop_rejects_bad_batch_size(index, corpus):
    with QueryEngine(index, kernel="columnar") as engine:
        with pytest.raises(ValueError, match="batch_size"):
            run_closed_loop(engine, corpus[:4], num_clients=1,
                            requests_per_client=2, batch_size=0)


def test_router_kernel_axis_equivalence(collection):
    from repro.cluster import ShardRouter

    with pytest.raises(TypeError):
        ShardRouter(collection, num_shards=3, kernel="columnar")

"""What a build allocates and what it reports — counts, not timings.

The keyword lists are flat arrays; a term's list view is cut on first
use.  So a build leaves a handful of containers for the cyclic collector
to traverse (it used to leave three lists per term per anchor, ~170 000
on CN/800, and spent half the build traversing them), while Table III's
size column — computed from the same lists — reports what it always did.
"""

import gc
import sys
import threading

import pytest

from repro.core import DesksIndex, DirectionalQuery, MutableDesksIndex
from repro.datasets import china_like, generate
from repro.service import QueryEngine

#: ``DesksIndex(CN/800).size_bytes`` and its four stores' ``size_bytes``
#: at the last commit that kept one list triple per term.
CN800_INDEX_BYTES = 3_019_712
CN800_STORE_BYTES = [665_588, 665_540, 665_820, 665_916]


@pytest.fixture(scope="module")
def cn800():
    return generate(china_like(scale=800))


def test_build_leaves_few_gc_tracked_objects(cn800):
    gc.collect()
    before = len(gc.get_objects())
    index = DesksIndex(cn800)
    grown = len(gc.get_objects()) - before
    assert grown < 5_000, grown
    assert all(not anchor.store._views for anchor in index.anchors)


def test_size_accounting_is_unchanged(cn800):
    index = DesksIndex(cn800)
    assert [a.store.size_bytes for a in index.anchors] == CN800_STORE_BYTES
    assert index.size_bytes == CN800_INDEX_BYTES
    # Cutting views must not change what the store reports.
    store = index.anchors[0].store
    for term_id in range(50):
        assert store.term_postings(term_id) is not None
    assert store.size_bytes == CN800_STORE_BYTES[0]


def test_term_view_is_cut_once_and_kept(cn800):
    store = DesksIndex(cn800).anchors[0].store
    term_id = cn800.vocabulary.id_of("restaurant")
    view = store.term_postings(term_id)
    assert store.term_postings(term_id) is view
    assert isinstance(view.region_gids, list)
    assert isinstance(view.pois_in(view.region_gids[0]), list)


def test_racing_first_uses_share_one_view(cn800):
    """More threads than cores, all asking for never-used terms at once:
    every caller of one term must get the same object."""
    store = DesksIndex(cn800).anchors[0].store
    term_ids = list(range(40))
    workers = 8
    barrier = threading.Barrier(workers)
    seen = [[] for _ in range(workers)]

    def work(slot):
        barrier.wait(timeout=10)
        for term_id in term_ids:
            seen[slot].append(store.term_postings(term_id))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for views in zip(*seen):
        assert all(view is views[0] for view in views)
    assert len(store._views) == len(term_ids)


def test_two_engine_workers_share_one_view(cn800):
    index = MutableDesksIndex(cn800)
    queries = [DirectionalQuery.make(x, 5000.0, 0.0, 1.0, ["restaurant"], 5)
               for x in (2000.0, 7000.0)]
    with QueryEngine(index, num_workers=2) as engine:
        for future in [engine.submit(query) for query in queries]:
            assert not future.result(timeout=30).partial
    # Both searches ran in one quadrant on one keyword: one store was
    # touched, and it holds that keyword's view once.
    touched = [anchor.store for anchor in index.static_index.anchors
               if anchor.store._views]
    assert len(touched) == 1
    assert list(touched[0]._views) == [cn800.vocabulary.id_of("restaurant")]

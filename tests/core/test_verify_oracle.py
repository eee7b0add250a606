"""FINDCANDPOIS's one-call-per-wedge check against the per-POI loop.

``reference_verify.py`` keeps the loop the searcher ran before a wedge's
POIs went through :func:`repro.geometry.in_direction` in one call.  Both
searchers — the object one, and the columnar one, whose posting walk is
the object searcher's — must give, query for query, the same entries
(ids, and distances bit for bit), the same ``SearchStats`` and the same
span trees (wall-clock durations dropped) as that loop, on both access
paths: ``search`` and ``search_regions``.
"""

import math

import pytest

from repro.bench import paper_query_mix
from repro.core import DesksIndex, DesksSearcher
from repro.datasets import generate
from repro.datasets.synthetic import china_like
from repro.kernel import ColumnarSearcher, ColumnarSnapshot
from repro.storage import SearchStats
from repro.trace import Tracer

from ..kernel.conftest import make_collection as kernel_collection
from ..kernel.conftest import make_corpus
from .reference_verify import ReferenceColumnarSearcher, ReferenceSearcher

WIDTHS = (math.pi / 6, math.pi / 2, math.pi, 2 * math.pi)


def paper_mix(collection):
    """The paper's 1-5 keyword mix, 20 queries a cell at four widths."""
    return [query
            for position, width in enumerate(WIDTHS)
            for query in paper_query_mix(collection, 20, width, k=10,
                                         seed=11 + 10_000 * position)]


@pytest.fixture(scope="module", params=["cn800_paper_mix", "corpus240"])
def workload(request):
    if request.param == "cn800_paper_mix":
        collection = generate(china_like(scale=800))
        index = DesksIndex(collection)
        queries = paper_mix(collection)
        assert len(queries) == 400
    else:
        index = DesksIndex(kernel_collection(), num_bands=4, num_wedges=6)
        queries = make_corpus()
        assert len(queries) == 240
    return index, queries


def run(searcher, entry, query):
    """Entries (distance bits included), stats and the span tree."""
    stats = SearchStats()
    tracer = Tracer()
    with tracer.activate():
        result = getattr(searcher, entry)(query, stats=stats)

    def strip(node):
        del node["seconds"]
        for child in node["children"]:
            strip(child)
        return node

    entries = [(e.poi_id, e.distance.hex()) for e in result.entries]
    spans = [strip(root) for root in tracer.to_dict()["spans"]]
    return entries, result.partial, stats, spans


@pytest.mark.parametrize("scanner", ["object", "columnar"])
@pytest.mark.parametrize("entry", ["search", "search_regions"])
def test_same_work_and_answers_as_the_per_poi_loop(workload, scanner,
                                                   entry):
    index, queries = workload
    if scanner == "object":
        shipped, reference = (DesksSearcher(index),
                              ReferenceSearcher(index))
    else:
        snapshot = ColumnarSnapshot(index)
        shipped, reference = (ColumnarSearcher(snapshot),
                              ReferenceColumnarSearcher(snapshot))
    verified = 0
    for query in queries:
        expected = run(reference, entry, query)
        assert run(shipped, entry, query) == expected, query
        verified += expected[2].candidates_verified
    assert verified > 0

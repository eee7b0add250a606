"""The batched FINDCANDREGIONS and FINDCANDPOIS against their loops.

``reference_verify.py`` keeps the loops the searcher ran before a band's
sub-regions were ranked by :func:`repro.core.mindist.subregion_mindists`
in one call and a wedge's POIs went through
:func:`repro.geometry.in_direction` in one call.  Both searchers — the
object one, and the columnar one, whose ranking and posting walk are the
object searcher's — must give, query for query, the same entries (ids, and
distances bit for bit), the same ``SearchStats`` and the same span trees
(wall-clock durations dropped) as those loops, on both access paths
(``search`` and ``search_regions``), and on the region path under every
pruning mode: ``D`` ranks by Table I as ``RD`` does, ``R`` not at all.
"""

import math

import pytest

from repro.bench import paper_query_mix
from repro.core import DesksIndex, DesksSearcher, PruningMode
from repro.datasets import generate
from repro.datasets.synthetic import china_like
from repro.kernel import ColumnarSearcher, ColumnarSnapshot
from repro.storage import SearchStats
from repro.trace import Tracer

from ..kernel.conftest import make_collection as kernel_collection
from ..kernel.conftest import make_corpus
from .reference_verify import (
    ReferenceColumnarSearcher,
    ReferenceSearcher,
    candidate_wedge_range,
)

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


def run(searcher, entry, query, mode=PruningMode.RD):
    """Entries (distance bits included), stats and the span tree."""
    stats = SearchStats()
    tracer = Tracer()
    with tracer.activate():
        result = getattr(searcher, entry)(query, mode, stats=stats)

    def strip(node):
        del node["seconds"]
        for child in node["children"]:
            strip(child)
        return node

    entries = [(e.poi_id, e.distance.hex()) for e in result.entries]
    spans = [strip(root) for root in tracer.to_dict()["spans"]]
    return entries, result.partial, stats, spans


def searchers(index, scanner):
    """``(shipped, reference)`` searchers of one kind over ``index``."""
    if scanner == "object":
        return DesksSearcher(index), ReferenceSearcher(index)
    snapshot = ColumnarSnapshot(index)
    return (ColumnarSearcher(snapshot),
            ReferenceColumnarSearcher(snapshot))


def assert_same(workload, scanner, entry, mode):
    index, queries = workload
    shipped, reference = searchers(index, scanner)
    verified = examined = 0
    for query in queries:
        expected = run(reference, entry, query, mode)
        assert run(shipped, entry, query, mode) == expected, query
        verified += expected[2].candidates_verified
        examined += expected[2].subregions_examined
    assert verified > 0
    if entry == "search_regions":
        assert examined > 0


@pytest.mark.parametrize("scanner", ["object", "columnar"])
@pytest.mark.parametrize("entry", ["search", "search_regions"])
def test_same_work_and_answers_as_the_per_poi_loop(workload, scanner,
                                                   entry):
    assert_same(workload, scanner, entry, PruningMode.RD)


@pytest.mark.parametrize("scanner", ["object", "columnar"])
@pytest.mark.parametrize("mode", [PruningMode.R, PruningMode.D],
                         ids=lambda mode: mode.name)
def test_region_search_same_in_the_other_pruning_modes(workload, scanner,
                                                       mode):
    assert_same(workload, scanner, "search_regions", mode)


def test_wedge_window_is_the_per_call_list_bisect(workload):
    """Lemma 3's window bisects the index's ``theta_lo`` column inside the
    band's gid range; the reference bisects a list of the band's own.
    Same window for ``tau`` on every boundary and one ulp either side."""
    index, _ = workload
    for anchor in filter(None, index.anchors):
        regions = anchor.regions
        for band in regions.bands:
            taus = [0.0, math.pi / 2]
            for sub in band.subregions:
                taus += [sub.theta_lo, math.nextafter(sub.theta_lo, -1.0),
                         math.nextafter(sub.theta_lo, 2.0)]
            for tau_lo in taus:
                for tau_hi in (tau_lo, math.nextafter(tau_lo, 2.0),
                               math.pi / 2):
                    assert regions.candidate_wedge_range(
                        band, tau_lo, tau_hi) == candidate_wedge_range(
                            band, tau_lo, tau_hi)

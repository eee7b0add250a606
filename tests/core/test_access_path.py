"""The access-path choice: posting walk for rare keywords, regions otherwise.

``DesksSearcher.search`` verifies the keywords' POI lists whole when they
hold at most ``N x M`` postings and runs Algorithms 1-2
(``search_regions``) otherwise.  The two must be indistinguishable from
outside — same ids, same IEEE-754 distances, same order as the exhaustive
scan — on every searcher and store, and the span tree must say which one
ran and account for its cost exactly.
"""

import math

import pytest

from repro.core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    MatchMode,
    MutableDesksIndex,
    PruningMode,
    brute_force_search,
)
from repro.datasets import POI, POICollection
from repro.kernel import ColumnarSearcher
from repro.service import Deadline, QueryEngine
from repro.storage import SearchStats
from repro.trace import Tracer, explain
from repro.trace.explain import RECONCILED_COUNTERS

BANDS, WEDGES = 3, 4
THRESHOLD = BANDS * WEDGES
CENTRE = (50.0, 50.0)
MODES = [PruningMode.R, PruningMode.D, PruningMode.RD]
STORES = {
    "memory": {},
    "sliced": {"disk_based": True, "page_size": 256},
    "compressed": {"disk_based": True, "disk_format": "compressed",
                   "page_size": 256},
}


def make_collection():
    """240 scattered POIs plus a ring of exact ties around ``CENTRE``.

    ``popular`` fills the sub-regions, ``edge`` has exactly ``N x M``
    holders, ``over`` one more; ``rare`` and ``pair`` are small and
    disjoint.  The ring POIs sit at distance exactly 5 from ``CENTRE``
    (3-4-5 triangles), their ids interleaved with the POI *on* it and a
    coincident pair.
    """
    pois = []

    def add(x, y, keywords):
        pois.append(POI.make(len(pois), x, y, keywords))

    cx, cy = CENTRE
    add(cx + 3, cy + 4, ["ring", "popular"])
    add(cx, cy, ["ring", "popular"])            # a query can stand on it
    add(cx - 4, cy + 3, ["ring", "popular"])
    add(cx + 5, cy, ["ring", "popular"])
    add(cx - 3, cy - 4, ["ring", "popular"])
    add(cx + 4, cy - 3, ["ring", "popular"])
    add(20.0, 80.0, ["twin", "popular"])
    add(20.0, 80.0, ["twin", "popular"])        # coincident POIs
    for i in range(240):
        # A low-discrepancy scatter: deterministic, no two alike.
        x = (i * 61.803398875) % 100.0
        y = (i * 38.196601125 + 7.0) % 100.0
        keywords = ["popular"] if i % 5 else ["common"]
        if i % 3 == 0:
            keywords.append("common")
        if i % 20 == 1:
            keywords.append("edge")             # 12 holders
        if i % 18 == 2 and i < 18 * 13:
            keywords.append("over")             # 13 holders
        if i in (7, 113, 201):
            keywords.append("rare")
        if i in (11, 59, 97, 150, 233):
            keywords.append("pair")
        add(x, y, keywords)
    return POICollection(pois)


COLLECTION = make_collection()


def frequency(keyword):
    vocabulary = COLLECTION.vocabulary
    return vocabulary.doc_frequency(vocabulary.id_of(keyword))


def test_corpus_sits_on_both_sides_of_the_threshold():
    assert frequency("edge") == THRESHOLD
    assert frequency("over") == THRESHOLD + 1
    assert frequency("rare") + frequency("pair") <= THRESHOLD
    assert frequency("popular") > 10 * THRESHOLD


@pytest.fixture(scope="module", params=sorted(STORES))
def index(request):
    with DesksIndex(COLLECTION, BANDS, WEDGES,
                    **STORES[request.param]) as built:
        yield built


@pytest.fixture(scope="module", params=["object", "columnar"])
def searcher(request, index):
    if request.param == "object":
        return DesksSearcher(index)
    return ColumnarSearcher(index)


def queries(match_mode):
    """Every keyword set at every stance, interval and ``k``."""
    cx, cy = CENTRE
    stances = [(cx, cy), (37.5, 61.25), (-20.0, 130.0)]
    intervals = [(0.2, 1.1),                      # inside one quadrant
                 (1.0, 4.5),                      # three quadrants
                 (5.5, 7.0),                      # wraps 2*pi
                 (0.0, 2 * math.pi)]              # full circle
    if match_mode is MatchMode.ALL:
        keyword_sets = [["rare"], ["edge"], ["over"], ["popular"], ["ring"],
                        ["twin"], ["rare", "popular"], ["edge", "common"],
                        ["over", "popular"], ["popular", "common"],
                        ["rare", "pair"]]
    else:
        keyword_sets = [["rare", "pair"], ["rare", "nosuchword"],
                        ["edge", "rare"], ["popular", "rare"],
                        ["ring", "twin"]]
    return [DirectionalQuery.make(x, y, alpha, beta, keywords, k, match_mode)
            for x, y in stances
            for alpha, beta in intervals
            for keywords in keyword_sets
            for k in (2, 60)]                     # a tie at k; k > matches


def pairs(result):
    return [(entry.poi_id, entry.distance) for entry in result.entries]


def path_of(tracer):
    return "postings" if tracer.find("desks.postings") else "regions"


def expected_path(query):
    counts = [frequency(keyword) for keyword in query.keywords
              if keyword in COLLECTION.vocabulary]
    cost = (min(counts) if query.match_mode is MatchMode.ALL
            else sum(counts))
    return "postings" if cost <= THRESHOLD else "regions"


@pytest.mark.parametrize("match_mode", list(MatchMode),
                         ids=lambda m: m.name)
def test_both_paths_equal_brute_force_bit_for_bit(searcher, match_mode):
    taken = set()
    for query in queries(match_mode):
        truth = pairs(brute_force_search(COLLECTION, query))
        for mode in MODES:
            tracer = Tracer()
            with tracer.activate():
                chosen = searcher.search(query, mode)
            assert pairs(chosen) == truth, (query, mode)
            assert pairs(searcher.search_regions(query, mode)) == truth
            assert path_of(tracer) == expected_path(query), query
            taken.add(path_of(tracer))
    assert taken == {"postings", "regions"}


def test_tie_at_the_kth_distance_goes_to_the_lower_ids(searcher):
    # Five ring POIs (ids 0, 2, 3, 4, 5) at distance exactly 5 and id 1
    # at distance 0: k = 3 must keep 1, then 0 and 2 — ids on both sides
    # of the cut share its distance.
    query = DirectionalQuery.undirected(*CENTRE, ["ring"], k=3)
    assert pairs(searcher.search(query)) == [(1, 0.0), (0, 5.0), (2, 5.0)]
    assert pairs(searcher.search_regions(query)) == pairs(
        searcher.search(query))


def test_search_regions_never_walks_postings(searcher):
    query = DirectionalQuery.undirected(*CENTRE, ["rare"], k=2)
    tracer = Tracer()
    with tracer.activate():
        searcher.search_regions(query)
    assert path_of(tracer) == "regions"
    assert tracer.find("desks.prepare") is not None


def test_seeded_search_keeps_the_seed_order_on_the_posting_path(searcher):
    query = DirectionalQuery.undirected(*CENTRE, ["ring"], k=3)
    full = searcher.search(query)
    seeded = searcher.search(query, seed_entries=full.entries[:2])
    assert pairs(seeded) == pairs(full)


def test_posting_path_counts_only_keyword_holders(searcher):
    query = DirectionalQuery.make(*CENTRE, 0.0, math.pi, ["edge", "common"],
                                  k=5)
    stats = SearchStats()
    result = searcher.search(query, stats=stats)
    holders = [poi for poi in COLLECTION
               if {"edge", "common"} <= poi.keywords]
    assert stats.pois_examined == len(holders)
    assert stats.distance_computations == len(holders)
    assert stats.candidates_verified == sum(
        1 for poi in holders if query.matches(poi.location, poi.keywords))
    assert stats.regions_examined == 0
    assert stats.subregions_examined == 0
    assert len(result) == min(5, stats.candidates_verified)


# -- EXPLAIN ----------------------------------------------------------------------


def strip_seconds(node):
    return {"name": node["name"], "attrs": node["attrs"],
            "children": [strip_seconds(child) for child in node["children"]]}


def test_explain_reconciles_and_names_the_posting_path(index):
    query = DirectionalQuery.make(*CENTRE, 5.5, 7.0, ["edge"], k=4)
    trees = []
    for make in (DesksSearcher, ColumnarSearcher):
        index.drop_caches()
        report = explain(make(index), query)
        rows = {row["quantity"]: row for row in report.reconciliation}
        for span_key, _ in RECONCILED_COUNTERS:
            assert rows[span_key]["match"], rows[span_key]
        assert rows["pages_read"]["match"], rows["pages_read"]
        assert report.reconciled
        assert report.actuals["access_path"] == "postings"
        assert report.to_dict()["actuals"]["access_path"] == "postings"
        assert "access_path=postings" in report.render()
        assert "desks.postings" in report.render()
        assert report.actuals["pois_fetched"] == THRESHOLD
        assert (report.actuals["pages_read"] > 0) == index.disk_based
        assert report.actuals["bands_scanned"] == 0
        trees.append([strip_seconds(root)
                      for root in report.to_dict()["trace"]["spans"]])
    assert trees[0] == trees[1]


def test_explain_names_the_region_path(index):
    query = DirectionalQuery.make(*CENTRE, 5.5, 7.0, ["over"], k=4)
    report = explain(DesksSearcher(index), query)
    assert report.reconciled
    assert report.actuals["access_path"] == "regions"
    assert "access_path=regions" in report.render()
    assert report.trace.find("desks.postings") is None


# -- deadlines --------------------------------------------------------------------


class ExpiresAfter:
    """A deadline that lets ``checks`` looks at the clock pass."""

    def __init__(self, checks):
        self.remaining = checks

    def expired(self):
        self.remaining -= 1
        return self.remaining < 0


def test_expired_deadline_on_the_posting_path_is_a_typed_partial(searcher):
    query = DirectionalQuery.undirected(*CENTRE, ["edge"], k=5)
    tracer = Tracer()
    stats = SearchStats()
    with tracer.activate():
        result = searcher.search(query, stats=stats,
                                 deadline=ExpiresAfter(0))
    assert path_of(tracer) == "postings"
    assert result.partial and result.entries == []
    assert stats.pois_examined == 0
    assert tracer.find("desks.search").attrs["partial"] is True
    # Seeds are verified answers by contract, so they may come back.
    seed = searcher.search(query).entries[:2]
    cut = searcher.search(query, seed_entries=seed, deadline=ExpiresAfter(0))
    assert cut.partial and cut.entries == seed


def test_unexpired_deadline_on_the_posting_path_completes(searcher):
    query = DirectionalQuery.undirected(*CENTRE, ["edge"], k=5)
    result = searcher.search(query, deadline=ExpiresAfter(10 ** 6))
    assert not result.partial
    assert pairs(result) == pairs(brute_force_search(COLLECTION, query))


def test_engine_and_mutable_index_degrade_on_the_posting_path():
    query = DirectionalQuery.undirected(*CENTRE, ["edge"], k=5)
    mutable = MutableDesksIndex(COLLECTION, BANDS, WEDGES)
    mutable.insert(51.0, 51.0, ["edge"])
    cut = mutable.search(query, deadline=Deadline.after(0.0))
    assert cut.partial
    # The delta scan always completes; what it adds is verified too.
    assert [entry.poi_id for entry in cut.entries] == [len(COLLECTION)]
    with QueryEngine(DesksIndex(COLLECTION, BANDS, WEDGES),
                     num_workers=1) as engine:
        response = engine.execute(query, timeout=0.0)
        assert response.result.partial
        assert response.result.entries == []
        assert not engine.execute(query).result.partial


# -- the mutable index --------------------------------------------------------------


def test_mutable_index_with_rare_keyword_equals_brute_force_over_live_pois():
    mutable = MutableDesksIndex(COLLECTION, BANDS, WEDGES,
                                rebuild_threshold=1.0)
    static_size = len(COLLECTION)
    inserted = [mutable.insert(52.0, 52.0, ["rare"]),
                mutable.insert(10.0, 10.0, ["rare", "popular"]),
                mutable.insert(48.0, 47.0, ["edge"])]
    rare_static = [poi.poi_id for poi in COLLECTION
                   if "rare" in poi.keywords]
    assert mutable.delete(rare_static[0])         # below the static boundary
    assert mutable.delete(inserted[0])            # above it
    assert mutable.delete(3)                      # a ring POI
    assert mutable.rebuild_count == 0 and mutable.num_pending == 3
    assert min(inserted) >= static_size
    live = mutable.live_pois()
    for keywords, match_mode in ((["rare"], MatchMode.ALL),
                                 (["edge"], MatchMode.ALL),
                                 (["ring"], MatchMode.ALL),
                                 (["rare", "pair"], MatchMode.ANY)):
        for alpha, beta in ((0.0, 2 * math.pi), (5.5, 7.0), (0.3, 2.8)):
            for k in (1, 3, 40):
                query = DirectionalQuery.make(*CENTRE, alpha, beta, keywords,
                                              k, match_mode)
                truth = sorted(
                    (query.location.distance_to(poi.location), poi.poi_id)
                    for poi in live
                    if query.matches(poi.location, poi.keywords))[:k]
                tracer = Tracer()
                with tracer.activate():
                    result = mutable.search(query)
                assert path_of(tracer) == "postings"
                assert [(entry.distance, entry.poi_id)
                        for entry in result.entries] == truth
    assert explain(mutable, DirectionalQuery.undirected(
        *CENTRE, ["rare"], k=3)).reconciled

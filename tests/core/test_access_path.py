"""The access-path choice: the posting walk or the region search.

``DesksSearcher.search`` verifies the keywords' POI lists whole when they
hold at most ``N x M`` postings (the floor) or when the cost model
estimates the walk no dearer than Algorithms 1-2 (``access_costs``), and
runs ``search_regions`` otherwise.  The two must be indistinguishable
from outside — same ids, same IEEE-754 distances, same order as the
exhaustive scan — on every searcher and store, and the span tree must say
which one ran and account for its cost exactly.
"""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    MatchMode,
    MutableDesksIndex,
    PruningMode,
    brute_force_search,
)
from repro.core.search import price
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
    """240 scattered POIs plus a ring of exact ties around ``CENTRE``,
    then 600 more that hold ``bulk`` alone.

    ``popular`` fills the sub-regions, ``edge`` has exactly ``N x M``
    holders, ``over`` one more; ``rare`` and ``pair`` are small and
    disjoint.  The ring POIs sit at distance exactly 5 from ``CENTRE``
    (3-4-5 triangles), their ids interleaved with the POI *on* it and a
    coincident pair.  ``bulk`` has holders enough for the region search
    to be the cheaper path in one or two quadrants, not in four.
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
    for i in range(600):
        add((i * 75.487766625 + 13.0) % 100.0,
            (i * 56.984029100 + 41.0) % 100.0, ["bulk"])
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
                        ["rare", "pair"], ["bulk"]]
    else:
        keyword_sets = [["rare", "pair"], ["rare", "nosuchword"],
                        ["edge", "rare"], ["popular", "rare"],
                        ["ring", "twin"], ["bulk", "rare"]]
    return [DirectionalQuery.make(x, y, alpha, beta, keywords, k, match_mode)
            for x, y in stances
            for alpha, beta in intervals
            for keywords in keyword_sets
            for k in (2, 60)]                     # a tie at k; k > matches


def pairs(result):
    return [(entry.poi_id, entry.distance) for entry in result.entries]


def path_of(tracer):
    return "postings" if tracer.find("desks.postings") else "regions"


def expected_path(searcher, query):
    """The floor, then the model's two estimates."""
    counts = [frequency(keyword) for keyword in query.keywords
              if keyword in COLLECTION.vocabulary]
    postings = (min(counts) if query.match_mode is MatchMode.ALL
                else sum(counts))
    walk, region = searcher.access_costs(query)
    return ("postings" if postings <= THRESHOLD or walk <= region
            else "regions")


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
            assert path_of(tracer) == expected_path(searcher, query), \
                query
            taken.add(path_of(tracer))
    assert taken == {"postings", "regions"}


def test_the_floor_walks_without_asking_the_model(searcher, monkeypatch):
    # ``edge`` has exactly N x M holders, ``over`` one more: only the
    # second is put to the model, which here always prefers the regions.
    asked = []

    def regions_always(query, term_ids, conjunctive, candidates):
        asked.append(query)
        return math.inf, 0.0

    monkeypatch.setattr(searcher, "_access_costs", regions_always)
    edge = DirectionalQuery.undirected(*CENTRE, ["edge"], k=3)
    over = DirectionalQuery.undirected(*CENTRE, ["over"], k=3)
    for query, path in ((edge, "postings"), (over, "regions")):
        tracer = Tracer()
        with tracer.activate():
            result = searcher.search(query)
        assert path_of(tracer) == path
        assert pairs(result) == pairs(brute_force_search(COLLECTION, query))
    assert asked == [over]


def test_query_outside_the_index_walks_above_the_floor(searcher):
    # Outside the MBR the region search keeps only the annulus bound and
    # examines whole bands; the model sees it and walks ``common``.
    query = DirectionalQuery.make(-20.0, 130.0, 4.9, 6.2, ["common"], k=5)
    assert not COLLECTION.mbr.contains_point(query.location)
    assert frequency("common") > THRESHOLD
    walk, region = searcher.access_costs(query)
    assert walk <= region
    tracer = Tracer()
    with tracer.activate():
        result = searcher.search(query)
    assert path_of(tracer) == "postings"
    assert len(result) == 5
    assert pairs(result) == pairs(brute_force_search(COLLECTION, query))
    assert pairs(searcher.search_regions(query)) == pairs(result)


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
        # The floor walked it; the estimates are reported all the same.
        walk, region = make(index).access_costs(query)
        assert report.actuals["walk_cost"] == walk
        assert report.actuals["region_cost"] == region
        assert f"walk_cost={walk}" in report.render()
        assert f"region_cost={region}" in report.render()
        assert "desks.postings" in report.render()
        # The planner counted what the walk fetched.
        assert report.actuals["holders"] == THRESHOLD
        assert report.actuals["pois_fetched"] == THRESHOLD
        assert f"holders={THRESHOLD}" in report.render()
        assert (report.actuals["pages_read"] > 0) == index.disk_based
        assert report.actuals["bands_scanned"] == 0
        trees.append([strip_seconds(root)
                      for root in report.to_dict()["trace"]["spans"]])
    assert trees[0] == trees[1]


def test_explain_names_the_region_path(index):
    query = DirectionalQuery.make(*CENTRE, 5.5, 7.0, ["bulk"], k=4)
    report = explain(DesksSearcher(index), query)
    assert report.reconciled
    assert report.actuals["access_path"] == "regions"
    assert "access_path=regions" in report.render()
    assert report.trace.find("desks.postings") is None
    actuals = report.to_dict()["actuals"]
    assert actuals["walk_cost"] > actuals["region_cost"]
    assert actuals["holders"] == frequency("bulk")


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


# -- the ALL walk's filter: holder sets against the subset test ----------------


class SubsetTestWalk(DesksSearcher):
    """The reference filter: every POI's term set tested against the
    keywords, one by one."""

    def _keyword_holders(self, term_ids, conjunctive):
        wanted = frozenset(term_ids)
        return [poi_id for poi_id, held in
                enumerate(self._collection.term_id_sets)
                if (wanted <= held if conjunctive else wanted & held)]


def make_tie_collection():
    """``beta`` and ``gamma`` tie for rarest (40 holders, 20 shared);
    ``alpha``, ``delta`` and ``omega`` overlap both and each other."""
    pois = []
    for i in range(200):
        keywords = [name for name, holds in (
            ("alpha", i % 4 == 0),
            ("beta", i % 5 == 0),
            ("gamma", i % 5 == (0 if i < 100 else 2)),
            ("delta", i % 3 == 0),
            ("omega", i % 2 == 0)) if holds] or ["filler"]
        pois.append(POI.make(i, (i * 61.803398875) % 100.0,
                             (i * 38.196601125 + 3.0) % 100.0, keywords))
    return POICollection(pois)


TIE_COLLECTION = make_tie_collection()
TIE_INDEXES = {}
WALK_ATTRS = ("lists", "postings", "pages_read", "pois_fetched",
              "pois_verified")


def tie_index(store):
    if store not in TIE_INDEXES:
        TIE_INDEXES[store] = DesksIndex(TIE_COLLECTION, BANDS, WEDGES,
                                        **STORES[store])
    return TIE_INDEXES[store]


def walk_everything(searcher, query):
    """``searcher.search(query)`` made to walk above the floor too:
    ``(survivors, answers, SearchStats, desks.postings attributes)``."""
    searcher._access_costs = lambda *args: (0.0, math.inf)
    survivors = []
    verify = searcher._verify_pois

    def recording(query, poi_ids, *rest):
        survivors.extend(poi_ids)
        verify(query, poi_ids, *rest)

    searcher._verify_pois = recording
    searcher.index.drop_caches()
    stats, tracer = SearchStats(), Tracer()
    with tracer.activate():
        result = searcher.search(query, stats=stats)
    span = tracer.find("desks.postings")
    attrs = None if span is None else {key: span.attrs[key]
                                       for key in WALK_ATTRS}
    return (sorted(survivors), len(survivors), pairs(result),
            dataclasses.asdict(stats), attrs)


@pytest.mark.parametrize("store", sorted(STORES))
@settings(max_examples=40, deadline=None)
@given(keywords=st.lists(st.sampled_from(["alpha", "beta", "gamma",
                                          "delta", "omega", "absent"]),
                         min_size=2, max_size=5),
       match_mode=st.sampled_from(list(MatchMode)),
       x=st.sampled_from([50.0, 12.5, -30.0]),
       alpha=st.sampled_from([0.2, 1.0, 5.5]),
       width=st.sampled_from([0.9, 3.5, 2 * math.pi]),
       k=st.sampled_from([1, 7, 60]))
@example(keywords=["beta", "gamma", "omega"], match_mode=MatchMode.ALL,
         x=50.0, alpha=0.2, width=2 * math.pi, k=60)      # a tie for rarest
@example(keywords=["alpha", "alpha", "delta"], match_mode=MatchMode.ALL,
         x=50.0, alpha=1.0, width=3.5, k=7)               # a repeat
@example(keywords=["alpha", "absent"], match_mode=MatchMode.ALL,
         x=12.5, alpha=0.2, width=0.9, k=1)               # nothing matches
@example(keywords=["alpha", "absent", "beta"], match_mode=MatchMode.ANY,
         x=12.5, alpha=5.5, width=3.5, k=7)
def test_holder_sets_filter_as_the_subset_test_did(store, keywords,
                                                   match_mode, x, alpha,
                                                   width, k):
    index = tie_index(store)
    query = DirectionalQuery.make(x, 40.0, alpha, alpha + width, keywords,
                                  k, match_mode)
    ours = walk_everything(DesksSearcher(index), query)
    reference = walk_everything(SubsetTestWalk(index), query)
    assert ours == reference
    assert ours[2] == pairs(brute_force_search(TIE_COLLECTION, query))
    resolved = TIE_COLLECTION.query_term_ids(
        query.keywords, require_all=match_mode is MatchMode.ALL)
    assert (ours[4] is None) == (resolved is None)


# -- the planner's count ----------------------------------------------------------


def make_pair_collection():
    """``with`` and ``and`` always co-occur; ``left`` and ``right`` never
    do (no POI holds both); ``some`` cuts across them all."""
    pois = []
    for i in range(300):
        keywords = ["filler"]
        if i % 3 == 0:
            keywords += ["with", "and"]
        if i % 4 == 0:
            keywords.append("left")
        elif i % 4 == 1:
            keywords.append("right")
        if i % 7 < 3:
            keywords.append("some")
        pois.append(POI.make(i, (i * 61.803398875) % 100.0,
                             (i * 38.196601125 + 11.0) % 100.0, keywords))
    return POICollection(pois)


PAIR_COLLECTION = make_pair_collection()
PAIR_INDEX = DesksIndex(PAIR_COLLECTION, BANDS, WEDGES)


@settings(max_examples=80, deadline=None)
@given(keywords=st.lists(st.sampled_from(["with", "and", "left", "right",
                                          "some", "absent"]),
                         min_size=1, max_size=5),
       match_mode=st.sampled_from(list(MatchMode)),
       alpha=st.sampled_from([0.2, 2.0, 5.5]),
       width=st.sampled_from([0.4, 3.5, 2 * math.pi]),
       k=st.sampled_from([1, 9, 400]))
@example(keywords=["with", "and"], match_mode=MatchMode.ALL, alpha=0.2,
         width=0.4, k=9)                          # always together
@example(keywords=["left", "right"], match_mode=MatchMode.ALL, alpha=0.2,
         width=0.4, k=9)                          # never together
@example(keywords=["left", "right", "with"], match_mode=MatchMode.ANY,
         alpha=2.0, width=3.5, k=1)               # overlapping lists
def test_the_planner_counts_the_keyword_holders(keywords, match_mode, alpha,
                                                width, k):
    query = DirectionalQuery.make(*CENTRE, alpha, alpha + width, keywords,
                                  k, match_mode)
    # Every keyword match, whatever its direction or distance.
    matches = len(brute_force_search(PAIR_COLLECTION, DirectionalQuery.make(
        *CENTRE, 0.0, 2 * math.pi, keywords, len(PAIR_COLLECTION),
        match_mode)))
    searcher = DesksSearcher(PAIR_INDEX)
    terms = searcher.cost_terms(query)
    assert (0 if terms is None else terms.holders) == matches
    assert searcher.access_costs(query) == (
        None if terms is None else price(terms))
    # An uncut walk verifies exactly what the planner counted.
    searcher._access_costs = lambda *args: (0.0, math.inf)
    stats, tracer = SearchStats(), Tracer()
    with tracer.activate():
        result = searcher.search(query, stats=stats)
    assert not result.partial
    assert stats.pois_examined == matches
    assert (tracer.find("desks.postings") is None) == (terms is None)

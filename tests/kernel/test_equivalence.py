"""Bit-exact equivalence of the columnar kernel against the object path.

The contract under test is the strongest one the kernel can make: for
every query, :class:`~repro.kernel.ColumnarSearcher` returns the SAME
entries (ids and IEEE-754 bit patterns of the distances), in the same
order, with the SAME :class:`~repro.storage.SearchStats` — pruning
counters included — as :class:`~repro.core.DesksSearcher`.  Identical
counters are the evidence that the kernel executes the *paper's*
algorithm, not a rephrasing that happens to agree on answers.
"""

import math
import random

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
from repro.geometry import TWO_PI
from repro.kernel import ColumnarSearcher
from repro.service import Deadline
from repro.storage import SearchStats
from repro.trace import Tracer, explain

MODES = [PruningMode.RD, PruningMode.R, PruningMode.D]


def entries_of(result):
    return [(entry.poi_id, entry.distance) for entry in result.entries]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
def test_corpus_bit_identical(object_searcher, columnar_searcher, corpus,
                              mode):
    for query in corpus:
        expected_stats = SearchStats()
        actual_stats = SearchStats()
        expected = object_searcher.search(query, mode, expected_stats)
        actual = columnar_searcher.search(query, mode, actual_stats)
        assert entries_of(actual) == entries_of(expected)
        assert actual.partial == expected.partial
        assert actual_stats == expected_stats


def test_search_batch_matches_query_loop(object_searcher, columnar_searcher,
                                         corpus):
    batch = corpus[::5]
    stats = [SearchStats() for _ in batch]
    results = columnar_searcher.search_batch(batch, stats=stats)
    assert len(results) == len(batch)
    for query, result, batch_stats in zip(batch, results, stats):
        loop_stats = SearchStats()
        expected = object_searcher.search(query, PruningMode.RD, loop_stats)
        assert entries_of(result) == entries_of(expected)
        assert batch_stats == loop_stats


def test_search_batch_rejects_misaligned_stats(columnar_searcher, corpus):
    with pytest.raises(ValueError):
        columnar_searcher.search_batch(corpus[:3], stats=[SearchStats()])


def test_explain_reconciles_on_columnar_path(columnar_searcher, corpus):
    for query in corpus[::24]:  # 10 queries across all three families
        report = explain(columnar_searcher, query)
        assert report.reconciled, report.reconciliation


def _span_tree(searcher, query, mode):
    """The search's span tree as plain data, wall-clock durations dropped."""
    tracer = Tracer()
    with tracer.activate():
        searcher.search(query, mode)

    def strip(node):
        del node["seconds"]
        for child in node["children"]:
            strip(child)
        return node

    return [strip(root) for root in tracer.to_dict()["spans"]]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
def test_span_trees_equal_on_both_paths(object_searcher, columnar_searcher,
                                        corpus, mode):
    # One driver records the spans, so the two scanners must tell the
    # same story wedge by wedge — not merely reconcile in total.
    for query in corpus[::24]:
        expected = _span_tree(object_searcher, query, mode)
        assert expected[0]["name"] == "desks.search"
        assert _span_tree(columnar_searcher, query, mode) == expected


def test_any_mode_with_unknown_keyword(object_searcher, columnar_searcher):
    query = DirectionalQuery.make(50.0, 50.0, 0.5, 4.0,
                                  ["cafe", "no-such-term"], 5,
                                  match_mode=MatchMode.ANY)
    expected = object_searcher.search(query)
    actual = columnar_searcher.search(query)
    assert entries_of(actual) == entries_of(expected)
    assert len(actual) > 0


def test_all_mode_with_unknown_keyword_is_empty(object_searcher,
                                                columnar_searcher):
    query = DirectionalQuery.make(50.0, 50.0, 0.5, 4.0,
                                  ["cafe", "no-such-term"], 5)
    expected = object_searcher.search(query)
    actual = columnar_searcher.search(query)
    assert entries_of(actual) == entries_of(expected) == []


def test_query_at_poi_location(collection, object_searcher,
                               columnar_searcher):
    # A query sitting exactly on a POI exercises the coincident-point
    # guard (direction undefined, distance 0, always a match).
    location = collection.location(0)
    keywords = list(collection[0].keywords)[:1]
    query = DirectionalQuery.make(location.x, location.y, 1.0, 2.0,
                                  keywords, 3)
    expected = object_searcher.search(query)
    actual = columnar_searcher.search(query)
    assert entries_of(actual) == entries_of(expected)
    assert entries_of(actual)[0] == (0, 0.0)


def test_seed_entries_bound_respected(object_searcher, columnar_searcher,
                                      corpus):
    query = corpus[10]
    seed = object_searcher.search(query).entries[:2]
    expected = object_searcher.search(query, seed_entries=seed)
    actual = columnar_searcher.search(query, seed_entries=seed)
    assert entries_of(actual) == entries_of(expected)


def test_expired_deadline_is_partial(columnar_searcher, corpus):
    deadline = Deadline.from_timeout(0.0)
    while not deadline.expired():
        pass
    result = columnar_searcher.search(corpus[0], deadline=deadline)
    assert result.partial


class _ExpiresOnCall:
    """A deadline whose ``expired()`` turns true on the n-th call."""

    def __init__(self, n):
        self.remaining = n

    def expired(self):
        self.remaining -= 1
        return self.remaining <= 0


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
def test_mid_search_deadline_cuts_both_paths_alike(object_searcher,
                                                   columnar_searcher, corpus,
                                                   mode):
    # Two queries per family (full circle / wraparound / narrow), cut at
    # every deadline check the search makes: both scanners must stop at
    # the same wedge with the same answers and the same work done.
    for query in corpus[::40]:
        n = 0
        while True:
            n += 1
            expected_stats = SearchStats()
            actual_stats = SearchStats()
            expected = object_searcher.search(
                query, mode, expected_stats, deadline=_ExpiresOnCall(n))
            actual = columnar_searcher.search(
                query, mode, actual_stats, deadline=_ExpiresOnCall(n))
            assert actual.partial == expected.partial
            assert entries_of(actual) == entries_of(expected)
            assert actual_stats == expected_stats
            if not expected.partial:
                break
        assert n > 2  # the cut really landed mid-search, more than once


def test_ties_at_kth_distance_go_to_lower_id():
    # 100 of 300 POIs sit exactly on another POI with the same keywords,
    # so most top-k cuts fall inside a run of equal distances.  Every
    # path must cut it where the exhaustive scan does: by (distance, id).
    rng = random.Random(5)
    keywords = ["cafe", "food", "gas"]
    spots = [(rng.uniform(0, 100), rng.uniform(0, 100),
              rng.sample(keywords, rng.randint(1, 2))) for _ in range(200)]
    spots += [spots[rng.randrange(200)] for _ in range(100)]
    rng.shuffle(spots)
    collection = POICollection(
        [POI.make(i, x, y, kws) for i, (x, y, kws) in enumerate(spots)])
    index = DesksIndex(collection, num_bands=4, num_wedges=6)
    mutable = MutableDesksIndex(POICollection(list(collection)[:250]),
                                num_bands=4, num_wedges=6)
    for poi in list(collection)[250:]:
        mutable.insert(poi.location.x, poi.location.y, poi.keywords)
    assert mutable.compact()
    paths = [
        (DesksSearcher(index).search, collection),
        (ColumnarSearcher(index).search, collection),
        (mutable.search, mutable.collection),
    ]
    for _ in range(100):
        lower = rng.uniform(0.0, TWO_PI)
        query = DirectionalQuery.make(
            rng.uniform(0, 100), rng.uniform(0, 100), lower, lower + TWO_PI,
            [rng.choice(keywords)], rng.choice([1, 3, 5, 10]))
        for search, pois in paths:
            assert entries_of(search(query)) == \
                entries_of(brute_force_search(pois, query))


def test_distances_are_bitwise_not_approximately(object_searcher,
                                                 columnar_searcher, corpus):
    # Spell the strict claim out once: equality of the float bits, not
    # closeness under a tolerance.
    for query in corpus[:20]:
        expected = object_searcher.search(query)
        actual = columnar_searcher.search(query)
        for ours, theirs in zip(actual.entries, expected.entries):
            assert math.isfinite(ours.distance)
            assert ours.distance.hex() == theirs.distance.hex()

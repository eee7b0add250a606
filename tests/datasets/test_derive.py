"""``POICollection.derive`` against the fresh build it replaces.

A derived collection must equal ``POICollection(survivors)`` on every
field — POIs and ids, term-id sets, vocabulary order and membership,
document frequencies, the MBR down to the sign of a zero — because a
checkpoint reloads the fresh build and must answer like the instance
that derived it.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import POI, POICollection

WORDS = ["atm", "bank", "cafe", "food", "gas", "park"]


def fields(collection):
    """Everything a derived collection must share with a fresh build."""
    vocabulary = collection.vocabulary
    terms = vocabulary.terms()
    return {
        "pois": [(p.poi_id, p.location, p.keywords) for p in collection],
        "term_id_sets": collection.term_id_sets,
        "xs": [repr(x) for x in collection.xs],
        "ys": [repr(y) for y in collection.ys],
        "terms": terms,
        "ids": [vocabulary.id_of(t) for t in terms],
        "known": [w for w in WORDS if w in vocabulary],
        "doc_freq": [vocabulary.doc_frequency(i) for i in range(len(terms))],
        "mbr": [repr(v) for v in collection.mbr],
    }


def survivors(base, appended, deleted):
    return [p for p in list(base) + list(appended) if p.poi_id not in deleted]


def pois(rows, start=0):
    return [POI.make(start + i, x, y, keywords)
            for i, (x, y, keywords) in enumerate(rows)]


COORDINATE = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0])
ROWS = st.lists(st.tuples(COORDINATE, COORDINATE,
                          st.sets(st.sampled_from(WORDS), max_size=3)),
                max_size=8)


@settings(max_examples=300, deadline=None)
@given(base_rows=ROWS.filter(bool), appended_rows=ROWS,
       deleted=st.sets(st.integers(0, 16)))
# A tombstone at position 0: nothing is shared.
@example(base_rows=[(0.0, 0.0, {"cafe"}), (1.0, 1.0, {"bank"})],
         appended_rows=[], deleted={0})
# Deleting the only holder of "gas", which then leaves the vocabulary.
@example(base_rows=[(0.0, 0.0, {"cafe"}), (1.0, 1.0, {"gas"}),
                    (3.0, 1.0, {"cafe", "bank"})],
         appended_rows=[(1.0, 3.0, {"atm"})], deleted={1})
# Empty keyword sets, kept and deleted.
@example(base_rows=[(0.0, 0.0, set()), (1.0, 1.0, set()),
                    (3.0, 1.0, {"cafe"})],
         appended_rows=[(1.0, -1.0, set())], deleted={1})
# Every static POI deleted, delta POIs survive.
@example(base_rows=[(0.0, 0.0, {"cafe"}), (1.0, 1.0, {"gas"})],
         appended_rows=[(3.0, 3.0, {"gas"}), (-1.0, 0.0, {"atm"})],
         deleted={0, 1})
# Deleting the POI that sets every MBR bound.
@example(base_rows=[(0.0, 0.0, {"cafe"}), (-2.5, 3.0, {"cafe"}),
                    (1.0, 1.0, {"bank"}), (3.0, -2.5, {"cafe"})],
         appended_rows=[], deleted={1, 3})
# -0.0 after 0.0: the fresh build keeps the first zero it meets.
@example(base_rows=[(0.0, 0.0, {"cafe"})],
         appended_rows=[(-0.0, -0.0, {"cafe"})], deleted=set())
def test_derived_collection_equals_the_fresh_build(base_rows, appended_rows,
                                                   deleted):
    base = POICollection(pois(base_rows))
    appended = pois(appended_rows, start=len(base))
    before = fields(base)
    live = survivors(base, appended, deleted)
    if not live:
        with pytest.raises(ValueError):
            base.derive(deleted, appended)
        return
    assert fields(base.derive(deleted, appended)) == \
        fields(POICollection(live))
    assert fields(base) == before       # the old collection is untouched


@settings(max_examples=100, deadline=None)
@given(rows=ROWS.filter(bool), data=st.data())
def test_subset_equals_the_fresh_build(rows, data):
    collection = POICollection(pois(rows))
    size = data.draw(st.integers(1, len(collection)))
    assert fields(collection.subset(size)) == \
        fields(POICollection(list(collection)[:size]))


def test_a_poi_already_at_its_position_is_kept():
    kept, moved = POI.make(0, 1.0, 2.0, ["cafe"]), POI.make(5, 3.0, 4.0, [])
    collection = POICollection([kept, moved])
    assert collection[0] is kept
    assert collection[1] is not moved and collection[1].poi_id == 1

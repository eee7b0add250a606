"""What a compaction keeps, and what it reads under the update lock.

Counts of shared objects, not timings: a compaction derives the
survivors' collection from the old one, so every POI and term-id set
before the first static tombstone is the very object the old collection
held, and only the suffix after it (plus the delta) is built anew.  The
next static index is built from the old one's pairs too, so the kept
term-id sets are not walked again.
"""

import threading

from repro.core import MutableDesksIndex
from repro.datasets import china_like, generate

from .conftest import make_collection


def shared_prefix(old, new):
    """Positions from 0 at which ``new`` holds ``old``'s own objects."""
    count = 0
    for position in range(min(len(old), len(new))):
        if (new[position] is not old[position]
                or new.term_id_sets[position] is not old.term_id_sets[position]):
            break
        count += 1
    return count


def test_compaction_shares_everything_before_the_first_static_tombstone():
    index = MutableDesksIndex(generate(china_like(scale=8000)))
    old = index.collection
    inserted = [index.insert(5000.0 + i, 5000.0, ["restaurant", "new"])
                for i in range(20)]
    for poi_id in inserted[15:]:
        assert index.delete(poi_id)
    pending = [index.get(poi_id) for poi_id in inserted[:15]]
    assert index.compact()
    new = index.collection
    # No static POI deleted: all of the old collection is shared, and the
    # delta POIs, whose ids already are their new positions, are kept too.
    assert shared_prefix(old, new) == len(old)
    assert len(new) == len(old) + 15
    assert all(new[poi.poi_id] is poi for poi in pending)

    first = len(new) // 3
    assert index.delete(first) and index.delete(first + 10)
    index.insert(1.0, 2.0, ["restaurant"])
    assert index.compact()
    newer = index.collection
    assert shared_prefix(new, newer) == first
    # Everything after the first tombstone moved down and was re-interned.
    assert not any(newer[position] is new[position + 1]
                   or newer.term_id_sets[position] is new.term_id_sets[position + 1]
                   for position in range(first, len(new) - 2))
    assert newer.vocabulary is not new.vocabulary


class _CountedTerms(frozenset):
    """A term-id set that logs every walk over it."""

    walks = []

    def __iter__(self):
        _CountedTerms.walks.append(self)
        return super().__iter__()


def test_compaction_with_no_static_tombstone_flattens_only_the_tail():
    index = MutableDesksIndex(make_collection(200, seed=6), num_bands=2,
                              num_wedges=3)
    kept = index.collection.term_id_sets
    kept[:] = [_CountedTerms(terms) for terms in kept]
    inserted = [index.insert(20.0 + i, 30.0, ["cafe", "tail"])
                for i in range(6)]
    assert index.delete(inserted[-1])
    _CountedTerms.walks.clear()
    assert index.compact()
    new = index.collection.term_id_sets
    assert all(new[i] is kept[i] for i in range(len(kept)))
    assert _CountedTerms.walks == []
    # The tail: the five surviving inserts.
    assert len(new) == len(kept) + 5


class _RebuildOnFirstLookup(set):
    """A tombstone set whose first membership test starts a compaction on
    another thread and gives it a moment to finish."""

    def __init__(self, index, ids):
        super().__init__(ids)
        self.index = index
        self.worker = None

    def __contains__(self, poi_id):
        if self.worker is None:
            self.worker = threading.Thread(target=self.index.compact)
            self.worker.start()
            self.worker.join(timeout=0.5)
        return super().__contains__(poi_id)


def racing_index():
    """An index with one static tombstone and one pending insert, whose
    next tombstone lookup races a compaction."""
    index = MutableDesksIndex(make_collection(30, seed=5), num_bands=2,
                              num_wedges=2, rebuild_threshold=1.0)
    assert index.delete(3)
    index.insert(7.0, 7.0, ["racing"])
    expected = [(p.location, p.keywords) for p in index.live_pois()]
    race = _RebuildOnFirstLookup(index, index._deleted)
    index._deleted = race
    return index, race, expected


def test_get_does_not_mix_two_static_indexes():
    index, race, expected = racing_index()
    try:
        got = index.get(10)
        assert (got.location, got.keywords) == expected[9]
    finally:
        race.worker.join(timeout=30)
    assert not race.worker.is_alive()
    assert index.rebuild_count == 1


def test_live_pois_does_not_resurrect_deleted_pois():
    index, race, expected = racing_index()
    try:
        got = [(p.location, p.keywords) for p in index.live_pois()]
    finally:
        race.worker.join(timeout=30)
    assert not race.worker.is_alive()
    assert got == expected
    assert [(p.location, p.keywords) for p in index.live_pois()] == expected

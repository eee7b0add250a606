"""The answers a compaction carries to the next static index.

A rebuild of a :class:`MutableDesksIndex` keeps the retiring snapshot's
complete answers and the delta state they were merged against; the next
snapshot's first read of such a query with no static tombstone yet runs
that merge, renumbers the ids and caches the result in place of an
indexed search.  The oracle: a carried answer is a fresh search on the
new static index bit for bit, and the exhaustive scan over what is live.
"""

import gc
import threading
import weakref
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DesksSearcher,
    DirectionalQuery,
    MatchMode,
    MutableDesksIndex,
    brute_force_search,
)
from repro.service import QueryEngine
from repro.storage import SearchStats
from repro.trace import Tracer, explain

from ..analysis.hang_guard import join_all
from .conftest import make_collection

POOL = [
    DirectionalQuery.make(50.0, 50.0, 0.3, 2.8, ["cafe"], 3),
    DirectionalQuery.undirected(40.0, 60.0, ["food", "gas"], 2),
    DirectionalQuery.undirected(80.0, 30.0, ["pizza", "atm"], 4,
                                MatchMode.ANY),
    # More than the collection holds: the answer is every match.
    DirectionalQuery.undirected(30.0, 30.0, ["bank"], 60),
]
#: A 10-unit lattice through the pool's locations: inserts tie with each
#: other at every distance, and with the k-th answer.
COORDINATE = st.integers(0, 10).map(lambda v: 10.0 * v)
#: The lattice's 3x3 block around the first two queries' locations.
NEAR = st.sampled_from([40.0, 50.0, 60.0])
KEYWORDS = st.sets(st.sampled_from(["cafe", "food", "gas", "pizza", "atm",
                                    "bank"]), min_size=1, max_size=2)
OPERATION = st.one_of(
    st.tuples(st.just("insert"), COORDINATE, COORDINATE, KEYWORDS),
    st.tuples(st.just("insert"), NEAR, NEAR, KEYWORDS),
    # A position among the live POIs in id order; 0 is the lowest.
    st.tuples(st.just("delete_static"), st.integers(0, 99)),
    st.tuples(st.just("delete_static"), st.just(0)),
    st.tuples(st.just("delete_delta"), st.integers(0, 99)),
    # True reads the whole pool right after the rebuild.
    st.tuples(st.just("compact"), st.booleans()),
    st.tuples(st.just("read"), st.integers(0, len(POOL) - 1)),
    st.tuples(st.just("read"), st.integers(0, len(POOL) - 1)),
)


def mutable(rebuild_threshold=1.0):
    return MutableDesksIndex(make_collection(30, seed=31), num_bands=2,
                             num_wedges=3,
                             rebuild_threshold=rebuild_threshold)


def traced_read(index, query, stats=None):
    """``index.search`` under a fresh tracer: the result and the tracer."""
    tracer = Tracer()
    with tracer.activate():
        result = index.search(query, stats=stats)
    return result, tracer


def fresh(index, query):
    """The new static index's own answer, searched from scratch."""
    return DesksSearcher(index.static_index).search(query).entries


def carried_read(index, query):
    """The first read after a compaction: carried, and exact."""
    result, tracer = traced_read(index, query)
    assert tracer.find("desks.memo") is not None
    # No indexed search: the carried walk is the static part's only span.
    assert tracer.find("desks.search").children == []
    assert result.entries == fresh(index, query)
    assert result.entries == brute_force_search(
        index.live_pois(), query).entries
    return result


class History:
    """One generated history, checked against the oracle as it runs."""

    def __init__(self, seen):
        self.index = mutable(rebuild_threshold=0.5)
        self.seen = seen
        self.read_here = set()          # pool positions read this snapshot
        # Static tombstones since the last rebuild (and whether one is on
        # id 0), then what the last rebuild absorbed of them.
        self.tombstones = Counter()
        self.absorbed = Counter()

    def live_ids(self, static):
        size = len(self.index.collection)
        return [p.poi_id for p in self.index.live_pois()
                if (p.poi_id < size) == static]

    def run(self, operation):
        kind, *args = operation
        before = self.index.rebuild_count
        if kind == "insert":
            self.index.insert(*args)
        elif kind in ("delete_static", "delete_delta"):
            victims = self.live_ids(static=kind == "delete_static")
            if not victims:
                return
            victim = victims[args[0] % len(victims)]
            assert self.index.delete(victim)
            if kind == "delete_static":
                self.tombstones["suffix" if victim else "keep0"] += 1
        elif kind == "compact":
            self.index.compact()
        else:
            self.read(args[0])
            return
        if self.index.rebuild_count != before:
            self.seen["rebuilds"] += 1
            self.read_here = set()
            self.absorbed, self.tombstones = self.tombstones, Counter()
            if kind == "compact" and args[0]:
                for position in range(len(POOL)):
                    self.read(position)

    def read(self, position):
        query = POOL[position]
        result, tracer = traced_read(self.index, query)
        live = self.index.live_pois()
        assert result.entries == brute_force_search(live, query).entries
        first = position not in self.read_here
        self.read_here.add(position)
        memo = tracer.find("desks.memo")
        if not first or memo is None:
            return
        # The first read on this static index came from the memo: the
        # last rebuild carried it.  It cannot have been inflated by a
        # static tombstone, and what the memo now holds is the new
        # index's answer bit for bit.
        assert memo.attrs["k"] == query.k
        carried = self.index.cache.get((query.cache_key, 0))
        assert carried.entries == fresh(self.index, query)
        static_live = [p for p in live if p.poi_id < len(
            self.index.collection)]
        assert carried.entries == brute_force_search(
            static_live, query).entries
        self.tally(query, carried.entries)

    def tally(self, query, entries):
        seen = self.seen
        seen["carried"] += 1
        seen[query.match_mode.name] += 1
        for where in self.absorbed:
            seen[where] += 1
        seen["short"] += len(entries) < query.k
        distances = [entry.distance for entry in entries]
        seen["ties"] += len(set(distances)) < len(distances)


def test_carried_answers_are_the_new_index_answers():
    seen = Counter()

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(OPERATION, min_size=10, max_size=40))
    def run(history):
        checked = History(seen)
        for operation in history:
            checked.run(operation)

    run()
    for needed in ("carried", "ALL", "ANY", "short", "ties", "keep0",
                   "suffix"):
        assert seen[needed] >= 1, seen


class TestCarriedAnswers:
    """The cases the generated histories must reach, pinned one each."""

    def test_a_tombstone_on_id_zero(self):
        index = mutable()
        query = POOL[3]
        assert index.delete(0)      # kept prefix: nothing
        assert index.delete(17)
        index.search(query)
        index.insert(30.0, 40.0, ["bank"])
        assert index.compact()
        assert len(carried_read(index, query)) < query.k

    def test_tombstones_in_the_suffix_renumber_the_answer(self):
        index = mutable()
        query = POOL[0]
        first = index.search(query).entries
        # Tombstones below and between the answers' ids shift them down.
        for victim in (1, 5, 20, 28):
            assert index.delete(victim)
        index.insert(50.0, 60.0, ["cafe"])
        index.search(query)
        assert index.compact()
        carried = carried_read(index, query)
        assert [e.poi_id for e in carried.entries] != \
            [e.poi_id for e in first]

    def test_ties_at_the_kth_distance_keep_their_order(self):
        index = mutable()
        query = POOL[0]
        index.search(query)
        index.insert(50.0, 52.0, ["cafe"])
        # Four POIs on one spot, one deleted: three tie at the k-th
        # place, and the id order cuts the last of them off.
        ties = [index.insert(50.0, 53.0, ["cafe"]) for _ in range(4)]
        assert index.delete(ties[1])
        assert index.compact()
        carried = carried_read(index, query).entries
        assert [e.distance for e in carried] == [2.0, 3.0, 3.0]
        wider = DirectionalQuery(query.location, query.interval,
                                 query.keywords, 4, query.match_mode)
        assert fresh(index, wider)[3].distance == 3.0

    def test_no_carry_once_a_static_tombstone_lands(self):
        index = mutable()
        query = POOL[1]
        index.search(query)
        index.insert(40.0, 50.0, ["food", "gas"])
        assert index.compact()
        assert index.delete(3)
        result, tracer = traced_read(index, query)
        assert tracer.find("desks.memo") is None
        assert tracer.find("desks.search").attrs["k"] == query.k + 1
        assert result.entries == brute_force_search(
            index.live_pois(), query).entries

    def test_a_carried_read_counts_as_a_computed_miss(self):
        index = mutable()
        query = POOL[0]
        index.search(query)
        index.insert(50.0, 51.0, ["cafe"])
        index.insert(49.0, 60.0, ["cafe"])
        index.insert(10.0, 10.0, ["food"])
        assert index.compact()
        stats, before = SearchStats(), index.cache.stats
        _, tracer = traced_read(index, query, stats)
        after = index.cache.stats
        assert (after.hits, after.misses) == (before.hits,
                                              before.misses + 1)
        # The carried walk visits the two `cafe` inserts, never `food`.
        assert stats.pois_examined == 2
        assert stats.candidates_verified == stats.subregions_examined == 0
        walk = tracer.find("desks.search")
        assert walk.children == [] and walk.attrs["pois_fetched"] == 2
        assert tracer.find("desks.delta").attrs["pois_fetched"] == 0
        report = explain(index, query)      # now a plain memo hit
        assert report.actuals["access_path"] == "memo"
        assert report.reconciled

    def test_the_engine_serves_a_carried_read_as_uncached(self):
        index = mutable()
        query = POOL[2]
        with QueryEngine(index) as engine:
            engine.execute(query)
            index.insert(75.0, 30.0, ["atm"])
            assert index.compact()
            carried = engine.execute(query)
            again = engine.execute(query)
        assert not carried.cached and again.cached
        assert carried.result.entries == again.result.entries == fresh(
            index, query)


class TestCarryMemory:
    """A carry holds answers and delta state, never an index, and lasts
    exactly one rebuild."""

    def test_the_retired_index_is_freed(self):
        index = mutable()
        index.search(POOL[0])
        index.insert(50.0, 51.0, ["cafe"])
        retired = weakref.ref(index.static_index)
        assert index.compact()
        gc.collect()
        assert retired() is None
        carried_read(index, POOL[0])

    def test_carries_do_not_chain(self):
        index = mutable()
        query = POOL[0]
        index.search(query)
        index.insert(50.0, 51.0, ["cafe"])
        assert index.compact()
        index.insert(60.0, 50.0, ["food"])
        assert index.compact()      # nothing read: nothing carried
        result, tracer = traced_read(index, query)
        assert tracer.find("desks.memo") is None
        assert tracer.find("desks.search") is not None
        assert result.entries == brute_force_search(
            index.live_pois(), query).entries


def test_reads_racing_compactions_are_exact_at_some_generation():
    """Each read equals the exhaustive scan at a generation between its
    start and its finish, carried or not."""
    index = mutable()
    # generation -> pool position -> the exact answer then.
    expected = {}

    def settle():
        live = index.live_pois()
        expected[index.generation] = [
            brute_force_search(live, query).entries for query in POOL]

    settle()
    stop = threading.Event()
    reads = [[] for _ in range(2)]

    def reader(offset):
        turn = offset
        while not stop.is_set():
            position = turn % len(POOL)
            turn += 1
            start = index.generation
            got = index.search(POOL[position]).entries
            reads[offset].append((position, start, index.generation, got))

    writes = [(50.0, 50.0, ["cafe"]), (40.0, 70.0, ["food", "gas"]),
              (80.0, 40.0, ["atm"]), (30.0, 20.0, ["bank"]),
              (50.0, 60.0, ["cafe", "pizza"])]
    threads = [threading.Thread(target=reader, args=(offset,))
               for offset in range(2)]
    for thread in threads:
        thread.start()
    try:
        for cycle in range(12):
            inserted = []
            for x, y, keywords in writes:
                inserted.append(index.insert(x + 0.1 * cycle, y, keywords))
                settle()
            assert index.delete(inserted[1])
            settle()
            assert index.delete(cycle)      # a static tombstone
            settle()
            assert index.compact()
            settle()
    finally:
        stop.set()
        join_all(threads, deadline=30.0)
    assert all(reads), [len(done) for done in reads]
    failures = [
        (POOL[position], start, end, got)
        for done in reads for position, start, end, got in done
        if not any(expected[g][position] == got
                   for g in range(start, end + 1))]
    assert not failures, failures[:3]

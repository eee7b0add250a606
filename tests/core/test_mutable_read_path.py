"""A stateful oracle for ``MutableDesksIndex.search``.

Hypothesis drives inserts, deletes of static and delta POIs, compactions
and searches drawn from a small fixed pool, so searches repeat on one
static index and the snapshot memo answers some of them, and a
compaction carries some of them across to the next static index.  Every
answer must equal the exhaustive scan over what is live at that moment.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import DirectionalQuery, MutableDesksIndex, brute_force_search
from repro.trace import Tracer

from .conftest import make_collection

QUERY_POOL = [
    DirectionalQuery.make(50.0, 50.0, 0.3, 2.8, ["cafe"], 3),
    DirectionalQuery.make(20.0, 70.0, 4.0, 7.0, ["food", "gas"], 4),
    DirectionalQuery.undirected(80.0, 30.0, ["pizza"], 2),
    DirectionalQuery.make(35.0, 35.0, 5.5, 7.3, ["atm"], 5),
]
#: Coordinates on a 10-unit lattice: inserts land on query locations and
#: on each other, so distance ties at the k-th place come up.
COORDINATE = st.integers(0, 10).map(lambda v: 10.0 * v)
KEYWORDS = st.sets(st.sampled_from(["cafe", "food", "gas", "pizza", "atm"]),
                   min_size=1, max_size=2)


class MutableReadPath(RuleBasedStateMachine):
    """One mutable index against the brute-force oracle."""

    #: Totals over the whole run, asserted by the test below.
    seen = {"searches": 0, "memo_hits": 0, "inflation_misses": 0,
            "carried": 0}

    def __init__(self):
        super().__init__()
        self.index = MutableDesksIndex(make_collection(30, seed=31),
                                       num_bands=2, num_wedges=3,
                                       rebuild_threshold=0.5)
        # (rebuild_count, pool position) -> the last static k asked.
        self.static_k = {}
        # Pool positions whose answer the last rebuild carried.
        self.carried = set()

    def live_ids(self, static):
        size = len(self.index.collection)
        return [p.poi_id for p in self.index.live_pois()
                if (p.poi_id < size) == static]

    def buried(self):
        """Tombstones on static POIs: what the static k is inflated by."""
        return len(self.index.collection) - len(self.live_ids(static=True))

    def rebuilt_by(self, change, buried):
        """Run ``change``.  When it rebuilds a static index that holds
        ``buried`` static tombstones, the answers carried across are those
        that index memoized at that inflation.  Returns what ``change``
        returns."""
        retiring = self.index.rebuild_count
        outcome = change()
        if self.index.rebuild_count != retiring:
            self.carried = {
                position for position, query in enumerate(QUERY_POOL)
                if self.static_k.get((retiring, position))
                == query.k + buried}
        return outcome

    @rule(x=COORDINATE, y=COORDINATE, keywords=KEYWORDS)
    def insert(self, x, y, keywords):
        self.rebuilt_by(lambda: self.index.insert(x, y, keywords),
                        self.buried())

    @precondition(lambda self: self.live_ids(static=True))
    @rule(data=st.data())
    def delete_static(self, data):
        victim = data.draw(st.sampled_from(self.live_ids(static=True)))
        # The tombstone lands before a rebuild it triggers.
        assert self.rebuilt_by(lambda: self.index.delete(victim),
                               self.buried() + 1)

    @precondition(lambda self: self.live_ids(static=False))
    @rule(data=st.data())
    def delete_delta(self, data):
        victim = data.draw(st.sampled_from(self.live_ids(static=False)))
        assert self.rebuilt_by(lambda: self.index.delete(victim),
                               self.buried())

    @rule()
    def compact(self):
        self.rebuilt_by(self.index.compact, self.buried())

    @rule(position=st.integers(0, len(QUERY_POOL) - 1))
    def search(self, position):
        query = QUERY_POOL[position]
        tracer = Tracer()
        with tracer.activate():
            got = self.index.search(query)
        assert not got.partial
        assert got.entries == brute_force_search(
            self.index.live_pois(), query).entries
        memo = tracer.find("desks.memo")
        static = memo if memo is not None else tracer.find("desks.search")
        snapshot = (self.index.rebuild_count, position)
        previous = self.static_k.get(snapshot)
        # A complete answer to the same static query on the same static
        # index is always served from the memo (the pool fits in it), and
        # so is one the last rebuild carried, until a static tombstone
        # inflates k.
        carried = (previous is None and position in self.carried
                   and static.attrs["k"] == query.k)
        assert (memo is not None) == (
            previous == static.attrs["k"] or carried)
        seen = MutableReadPath.seen
        seen["searches"] += 1
        seen["memo_hits"] += memo is not None
        seen["carried"] += carried
        seen["inflation_misses"] += (memo is None and previous is not None)
        self.static_k[snapshot] = static.attrs["k"]

    @invariant()
    def size_matches_live_view(self):
        assert len(self.index) == len(self.index.live_pois())


def test_mutable_read_path_matches_brute_force():
    MutableReadPath.seen.update(searches=0, memo_hits=0, inflation_misses=0,
                                carried=0)
    run_state_machine_as_test(MutableReadPath, settings=settings(
        max_examples=60, stateful_step_count=40, deadline=None,
        derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow]))
    seen = MutableReadPath.seen
    assert seen["memo_hits"] >= 1, seen
    assert seen["inflation_misses"] >= 1, seen
    assert seen["carried"] >= 1, seen

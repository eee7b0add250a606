"""The delta buffer's keyword postings: a read visits only the pending POIs
that can match, and still answers exactly.

Hypothesis drives histories of inserts (on a lattice that holds the query
locations, and on the rays that bound the query sectors), deletes of
static and pending POIs, and compactions.  Every read, under ``ALL`` and
``ANY``, must equal the exhaustive scan over what is live at that moment,
and its ``desks.delta`` span must have visited exactly the live pending
POIs on the posting lists the walk takes: the shortest of the query's
keywords' lists under ``ALL``, their union under ``ANY``.  ``bank`` is in
the static collection but never inserted, so some queries find no
pending list at all.
"""

import math

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import (
    DirectionalQuery,
    MatchMode,
    MutableDesksIndex,
    brute_force_search,
)
from repro.storage import SearchStats
from repro.trace import Tracer

from .conftest import make_collection

QUERY_POOL = [
    DirectionalQuery.make(50.0, 50.0, 0.3, 2.8, ["cafe"], 3),
    DirectionalQuery.make(20.0, 70.0, 4.0, 7.0, ["food", "gas"], 4),
    DirectionalQuery.make(20.0, 70.0, 4.0, 7.0, ["food", "gas"], 4,
                          match_mode=MatchMode.ANY),
    DirectionalQuery.undirected(80.0, 30.0, ["pizza", "bank"], 2,
                                match_mode=MatchMode.ANY),
    DirectionalQuery.make(30.0, 30.0, 5.5, 7.3, ["cafe", "bank"], 5),
    DirectionalQuery.make(40.0, 60.0, 1.0, 1.5, ["bank"], 2),
]
#: Inserted keywords; ``bank`` is deliberately missing.
KEYWORDS = st.sets(st.sampled_from(["cafe", "food", "gas", "pizza"]),
                   min_size=1, max_size=3)
#: A 10-unit lattice: it holds every query location.
COORDINATE = st.integers(0, 10).map(lambda v: 10.0 * v)


def expected_visits(index, inserted, query):
    """How many live pending POIs the delta walk must visit, given every
    ``(id, keywords)`` inserted since the last rebuild."""
    live = {p.poi_id for p in index.live_pois()}
    if query.match_mode is MatchMode.ANY:
        return {sum(poi_id in live for poi_id, words in inserted
                    if words & query.keywords)}
    lists = [[poi_id for poi_id, words in inserted if word in words]
             for word in query.keywords]
    shortest = min(len(found) for found in lists)
    # Lists of equal length tie; the walk may take any of them.
    return {sum(poi_id in live for poi_id in found)
            for found in lists if len(found) == shortest}


class DeltaPostings(RuleBasedStateMachine):
    """One mutable index against the exhaustive scan."""

    def __init__(self):
        super().__init__()
        self.index = MutableDesksIndex(make_collection(40, seed=37),
                                       num_bands=2, num_wedges=3,
                                       rebuild_threshold=0.5)
        self.inserted = []
        self.rebuilds = 0

    def settle(self):
        """A rebuild empties the delta buffer and its postings."""
        if self.index.rebuild_count != self.rebuilds:
            self.rebuilds = self.index.rebuild_count
            self.inserted = []

    def add(self, x, y, keywords):
        poi_id = self.index.insert(x, y, keywords)
        self.inserted.append((poi_id, frozenset(keywords)))
        self.settle()

    def live_ids(self, static):
        size = len(self.index.collection)
        return [p.poi_id for p in self.index.live_pois()
                if (p.poi_id < size) == static]

    @rule(x=COORDINATE, y=COORDINATE, keywords=KEYWORDS)
    def insert(self, x, y, keywords):
        self.add(x, y, keywords)

    @rule(position=st.integers(0, len(QUERY_POOL) - 1),
          upper=st.booleans(), reach=st.sampled_from([0.5, 7.0, 30.0]),
          keywords=KEYWORDS)
    def insert_on_a_ray(self, position, upper, reach, keywords):
        query = QUERY_POOL[position]
        theta = query.interval.upper if upper else query.interval.lower
        self.add(query.location.x + reach * math.cos(theta),
                 query.location.y + reach * math.sin(theta), keywords)

    @precondition(lambda self: self.live_ids(static=True))
    @rule(data=st.data())
    def delete_static(self, data):
        victim = data.draw(st.sampled_from(self.live_ids(static=True)))
        assert self.index.delete(victim)
        self.settle()

    @precondition(lambda self: self.live_ids(static=False))
    @rule(data=st.data())
    def delete_pending(self, data):
        victim = data.draw(st.sampled_from(self.live_ids(static=False)))
        assert self.index.delete(victim)
        self.settle()

    @rule()
    def compact(self):
        self.index.compact()
        self.settle()

    @rule(position=st.integers(0, len(QUERY_POOL) - 1))
    def read(self, position):
        query = QUERY_POOL[position]
        stats = SearchStats()
        tracer = Tracer()
        with tracer.activate():
            got = self.index.search(query, stats=stats)
        assert not got.partial
        assert got.entries == brute_force_search(
            self.index.live_pois(), query).entries
        delta = tracer.find("desks.delta")
        assert delta.attrs["pois_fetched"] in expected_visits(
            self.index, self.inserted, query)
        static = tracer.find("desks.search")
        assert stats.pois_examined == delta.attrs["pois_fetched"] + (
            static.attrs["pois_fetched"] if static is not None else 0)


def test_delta_walk_visits_only_candidates_and_stays_exact():
    run_state_machine_as_test(DeltaPostings, settings=settings(
        max_examples=60, stateful_step_count=40, deadline=None,
        derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow]))

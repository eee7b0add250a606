"""Figure 20 — incremental search on the CN dataset.

Bench note: the paper uses k=10 with 16.5M POIs, where every query
saturates k.  At bench scale we use 1-keyword queries with k=5 so caches
are similarly saturated — an unsaturated cache forces the incremental
method into its from-scratch fallback, which is not the regime Fig. 20
measures.

Paper setup (k=10): queries start with width pi/3; (a) the direction is
*increased* by i*pi/36 for i = 1..12; (b) the direction is *moved* by
delta in {-6..6}*pi/36.  DESKS-INCRE answers from the cached previous
answer; DESKS answers from scratch.  Expected shapes: INCRE wins
throughout in (a); in (b) INCRE wins clearly for small |delta| and the
margin shrinks for large rotations where it falls back to scratch.
"""

import math

from repro.bench import generate_queries
from repro.core import IncrementalSearcher, PruningMode
from repro.storage import SearchStats

from series import format_series_table, write_result

QUERIES = 40
BASE_WIDTH = math.pi / 3
INCREASE_STEPS = tuple(range(1, 13))   # * pi/36
MOVE_STEPS = tuple(range(-6, 7))       # * pi/36


def _avg_pois(stats: SearchStats, n: int) -> float:
    return stats.pois_examined / max(n, 1)


def _sweep_increase(collection, searcher):
    queries = generate_queries(collection, QUERIES, num_keywords=1,
                               direction_width=BASE_WIDTH, k=5, seed=20)
    incre_col, scratch_col = [], []
    for step in INCREASE_STEPS:
        grow = step * math.pi / 36
        incre_stats, scratch_stats = SearchStats(), SearchStats()
        for query in queries:
            inc = IncrementalSearcher(searcher, PruningMode.RD)
            inc.initial_search(query)
            wider = query.interval.widen(grow / 2, grow / 2)
            inc.increase_direction(wider, stats=incre_stats)
            searcher.search_regions(query.with_interval(wider),
                                    PruningMode.RD, scratch_stats)
        incre_col.append(_avg_pois(incre_stats, QUERIES))
        scratch_col.append(_avg_pois(scratch_stats, QUERIES))
    return incre_col, scratch_col


def _sweep_move(collection, searcher):
    queries = generate_queries(collection, QUERIES, num_keywords=1,
                               direction_width=BASE_WIDTH, k=5, seed=21)
    incre_col, scratch_col = [], []
    for step in MOVE_STEPS:
        delta = step * math.pi / 36
        incre_stats, scratch_stats = SearchStats(), SearchStats()
        for query in queries:
            inc = IncrementalSearcher(searcher, PruningMode.RD)
            inc.initial_search(query)
            inc.move_direction(delta, stats=incre_stats)
            searcher.search_regions(
                query.with_interval(query.interval.rotate(delta)),
                PruningMode.RD, scratch_stats)
        incre_col.append(_avg_pois(incre_stats, QUERIES))
        scratch_col.append(_avg_pois(scratch_stats, QUERIES))
    return incre_col, scratch_col


def test_fig20a_increasing_direction(datasets, desks_searchers):
    collection = datasets["CN"]
    searcher = desks_searchers["CN"]
    incre, scratch = _sweep_increase(collection, searcher)
    table = format_series_table(
        "Fig 20(a) (CN): increasing directions, POIs examined per query",
        "delta (*pi/36)", list(INCREASE_STEPS),
        {"Desks": scratch, "Desks-Incre": incre}, unit="POIs")
    print()
    print(table)
    write_result("fig20a_incremental_increase", table)

    # Incremental beats from-scratch across the sweep (aggregate), and
    # especially for small increases.
    assert sum(incre) < sum(scratch)
    assert incre[0] < scratch[0]


def test_fig20b_moving_direction(datasets, desks_searchers):
    collection = datasets["CN"]
    searcher = desks_searchers["CN"]
    incre, scratch = _sweep_move(collection, searcher)
    labels = [str(s) for s in MOVE_STEPS]
    table = format_series_table(
        "Fig 20(b) (CN): moving directions, POIs examined per query",
        "delta (*pi/36)", labels,
        {"Desks": scratch, "Desks-Incre": incre}, unit="POIs")
    print()
    print(table)
    write_result("fig20b_incremental_move", table)

    # Small rotations: incremental clearly cheaper.  delta=0 is index 6.
    small = [6 - 1, 6, 6 + 1]
    assert sum(incre[i] for i in small) < sum(scratch[i] for i in small)
    # Large rotations converge to from-scratch cost (paper: "the
    # improvement was not high as DESKS-INCRE needed to answer queries
    # from scratch").  Our fallback pays the already-done wedge search on
    # top of the overlap re-search, so we allow a bounded overhead — see
    # EXPERIMENTS.md for the deviation note.
    assert sum(incre) <= sum(scratch) * 1.2


def test_benchmark_incremental_move(benchmark, datasets, desks_searchers):
    collection = datasets["CN"]
    searcher = desks_searchers["CN"]
    queries = generate_queries(collection, 10, 2, BASE_WIDTH, k=10, seed=22)

    def run():
        for query in queries:
            inc = IncrementalSearcher(searcher, PruningMode.RD)
            inc.initial_search(query)
            inc.move_direction(math.pi / 36)

    benchmark(run)

"""The query language must be (nearly) free on the serving hot path.

Satellite of the DQL PR: every request that arrives as statement text
pays tokenize + parse + plan validation + backend binding on top of the
search itself.  This benchmark measures that toll on the closed-loop
serving stream ``test_service_throughput.py`` drives:
``CLIENTS`` threads drive one :class:`~repro.service.QueryEngine`
either *directly* (``engine.execute(query)`` on prebuilt
``DirectionalQuery`` objects — the submission a DQL-less client
performs) or *through the language* (``DqlExecutor.execute(text)`` on
the same workload rendered as DQL).

Two regimes, because they answer different questions:

* **serving** (the gated facet): ``cache_capacity=1``, so every request
  runs a real direction-aware search.  This is the regime the 5% gate
  targets — parse + plan + bind must vanish next to actual work.  What
  makes it vanish is the executor's prepared-plan cache plus the plan's
  memoized derived query: a repeated statement costs one dict probe,
  not a re-parse.
* **cache-warm** (reported, not gated): the engine answers from its
  result cache in ~10 us, so *any* per-request envelope work is visible
  at full magnification.  The JSON records this overhead honestly; a
  gate here would measure dataclass construction, not the language.

The cold path (parse microseconds per novel statement) is reported too
— first-contact latency is a different budget than steady-state
throughput.

Noise handling mirrors ``test_trace_overhead.py``: the two variants
alternate in short passes inside each round so machine drift hits both
sides equally, and the gate takes the best round per side.

Acceptance: DQL QPS within 5% of direct-API QPS on the serving facet.
"""

import math
import threading
import time

from repro.bench import (
    format_series_table,
    generate_queries,
    repeated_stream,
    write_json_result,
    write_result,
)
from repro.core import MutableDesksIndex
from repro.lang import DqlExecutor, EngineBackend, parse, plan_from_query
from repro.service import QueryEngine

from conftest import bench_bands, bench_wedges

WIDTH = math.pi / 3
ROUNDS = 4
INTERLEAVES = 4          # direct/DQL alternations per round
CLIENTS = 4
#: Requests per client per alternation: the serving facet does real
#: searches (slow), the cache-warm facet answers from the result cache.
REQUESTS = {"serving": 60, "cache-warm": 400}
MAX_OVERHEAD_PCT = 5.0


def _closed_loop_seconds(call, items, requests):
    """Wall seconds for CLIENTS threads issuing ``requests`` calls each.

    The same driver runs both variants, so loop overhead (thread start,
    barrier, index arithmetic) cancels out of the comparison.
    """
    barrier = threading.Barrier(CLIENTS + 1)
    failures = []

    def client(client_id):
        position = client_id
        barrier.wait()
        try:
            for _ in range(requests):
                call(items[position % len(items)])
                position += CLIENTS
        except Exception as exc:  # noqa: BLE001 - surfaced to the gate
            failures.append(exc)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    tick = time.perf_counter()
    for thread in threads:
        thread.join()
    assert not failures, failures[0]
    return time.perf_counter() - tick


def _facet(engine, stream, statements, requests):
    """Alternating direct/DQL rounds against one engine; best-of QPS."""
    executor = DqlExecutor(EngineBackend(engine))

    def direct(query):
        engine.execute(query)

    def dql(statement):
        executor.execute(statement)

    _closed_loop_seconds(direct, stream, requests)   # warmup, discarded
    _closed_loop_seconds(dql, statements, requests)  # (fills plan cache)
    direct_qps, dql_qps = [], []
    for _ in range(ROUNDS):
        seconds = [0.0, 0.0]
        for _ in range(INTERLEAVES):
            seconds[0] += _closed_loop_seconds(direct, stream, requests)
            seconds[1] += _closed_loop_seconds(dql, statements, requests)
        total = INTERLEAVES * CLIENTS * requests
        direct_qps.append(total / seconds[0])
        dql_qps.append(total / seconds[1])
    overhead = 100.0 * (1.0 - max(dql_qps) / max(direct_qps))
    return {"direct_qps": direct_qps, "dql_qps": dql_qps,
            "best_direct_qps": max(direct_qps),
            "best_dql_qps": max(dql_qps), "overhead_pct": overhead}


def _cold_parse_micros(statements, repeats=20):
    """Microseconds per tokenize+parse+validate of a novel statement."""
    tick = time.perf_counter()
    for _ in range(repeats):
        for statement in statements:
            parse(statement)
    elapsed = time.perf_counter() - tick
    return 1e6 * elapsed / (repeats * len(statements))


def test_dql_overhead_under_five_percent(datasets):
    collection = datasets["VA"]
    bands = bench_bands(len(collection))
    wedges = bench_wedges(len(collection), bands)
    index = MutableDesksIndex(collection, num_bands=bands,
                              num_wedges=wedges)
    base = generate_queries(collection, 25, 2, WIDTH, k=10, seed=61)
    stream = repeated_stream(base, repeats=4, seed=61)
    statements = [plan_from_query(query).render() for query in stream]

    facets = {}
    # Serving facet: cache_capacity=1 with 25 rotating distinct queries
    # means every request misses and runs the real search.
    with QueryEngine(index, num_workers=8, cache_capacity=1) as engine:
        facets["serving"] = _facet(engine, stream, statements,
                                   REQUESTS["serving"])
    with QueryEngine(index, num_workers=8) as engine:
        for query in base:  # warm: every distinct query computed once
            engine.execute(query)
        facets["cache-warm"] = _facet(engine, stream, statements,
                                      REQUESTS["cache-warm"])
    cold_parse_us = _cold_parse_micros(statements[:25])

    table = format_series_table(
        "DQL overhead (VA serve workload): direct API vs parsed "
        f"statements, best of {ROUNDS} rounds x {INTERLEAVES} alternations",
        "facet", ["direct qps", "dql qps", "overhead %"],
        {name: [facet["best_direct_qps"], facet["best_dql_qps"],
                facet["overhead_pct"]]
         for name, facet in facets.items()},
        unit="qps")
    print()
    print(table)
    print(f"cold parse: {cold_parse_us:.1f} us/statement")
    write_result("lang_overhead", table)
    write_json_result("BENCH_lang", {
        "dataset": "VA",
        "num_pois": len(collection),
        "clients": CLIENTS,
        "requests_per_alternation": REQUESTS,
        "rounds": ROUNDS,
        "interleaves": INTERLEAVES,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "gated_facet": "serving",
        "facets": facets,
        "cold_parse_us_per_statement": cold_parse_us,
        "plan_cache_size": DqlExecutor.PLAN_CACHE_SIZE,
    })

    overhead = facets["serving"]["overhead_pct"]
    assert overhead <= MAX_OVERHEAD_PCT, (
        f"DQL costs {overhead:.2f}% engine QPS over the direct API on "
        f"real searches (limit {MAX_OVERHEAD_PCT}%)")

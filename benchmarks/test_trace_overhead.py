"""Tracing must be free when nobody is looking.

The instrumentation in the searcher, the mutable index's delta scan and
the engine is guarded by one ``current_tracer()`` check per operation.  This benchmark measures what
that guard costs on the serving workload from
``test_service_throughput.py``: the *shipped* build (instrumented, no
tracer active) is run against a *stripped* build where the guard is
monkeypatched to a constant ``None`` — i.e. as close to "the
instrumentation was never written" as Python allows without a second
source tree.

Shared-machine noise between two long timing blocks easily exceeds the
effect being measured, so the two variants alternate in short passes
within each round (drift hits both sides equally) and the gate takes the
best round per side.

Acceptance: shipped QPS within 2% of stripped QPS.
"""

import math
import time

from repro.bench import (
    format_series_table,
    generate_queries,
    repeated_stream,
    write_json_result,
    write_result,
)
from repro.core import DesksIndex, DesksSearcher, MutableDesksIndex
import repro.core.dynamic as dynamic_mod
import repro.core.search as search_mod
from repro.service import QueryEngine, run_closed_loop
import repro.service.engine as engine_mod

from conftest import bench_bands, bench_wedges

WIDTH = math.pi / 3
ROUNDS = 5
INTERLEAVES = 8          # shipped/stripped alternations per round
REQUESTS = 250           # per client per alternation
CLIENTS = 4
SEARCH_PASSES = 3        # passes over the query set per alternation
MAX_OVERHEAD_PCT = 2.0


def _engine_seconds(engine, stream):
    report = run_closed_loop(engine, stream, CLIENTS,
                             requests_per_client=REQUESTS, think_time=0.0)
    assert report.errors == 0, report.first_error
    return CLIENTS * REQUESTS / report.qps


def _search_seconds(searcher, queries):
    tick = time.perf_counter()
    for _ in range(SEARCH_PASSES):
        for query in queries:
            searcher.search(query)
    return time.perf_counter() - tick


def _strip(patcher):
    """Replace the disabled-path guard with a constant, per module."""
    patcher.setattr(search_mod, "current_tracer", lambda: None)
    patcher.setattr(dynamic_mod, "current_tracer", lambda: None)
    patcher.setattr(engine_mod, "current_tracer", lambda: None)
    patcher.setattr(engine_mod, "traced", lambda name, fn, **kw: fn)


def test_disabled_tracing_costs_under_two_percent(datasets, monkeypatch):
    collection = datasets["VA"]
    bands = bench_bands(len(collection))
    wedges = bench_wedges(len(collection), bands)
    index = MutableDesksIndex(collection, num_bands=bands,
                              num_wedges=wedges)
    base = generate_queries(collection, 25, 2, WIDTH, k=10, seed=61)
    stream = repeated_stream(base, repeats=4, seed=61)
    searcher = DesksSearcher(DesksIndex(collection, num_bands=bands,
                                        num_wedges=wedges))

    engine_shipped, engine_stripped = [], []
    search_shipped, search_stripped = [], []
    with QueryEngine(index, num_workers=8) as engine:
        for query in base:  # warm the cache once, like the QPS bench
            engine.execute(query)
        _engine_seconds(engine, stream)   # warmup, discarded
        _search_seconds(searcher, base)
        for _ in range(ROUNDS):
            times = {"engine": [0.0, 0.0], "search": [0.0, 0.0]}
            for _ in range(INTERLEAVES):
                times["engine"][0] += _engine_seconds(engine, stream)
                times["search"][0] += _search_seconds(searcher, base)
                with monkeypatch.context() as patcher:
                    _strip(patcher)
                    times["engine"][1] += _engine_seconds(engine, stream)
                    times["search"][1] += _search_seconds(searcher, base)
            requests = INTERLEAVES * CLIENTS * REQUESTS
            engine_shipped.append(requests / times["engine"][0])
            engine_stripped.append(requests / times["engine"][1])
            searches = INTERLEAVES * SEARCH_PASSES * len(base)
            search_shipped.append(searches / times["search"][0])
            search_stripped.append(searches / times["search"][1])

    def overhead_pct(shipped, stripped):
        return 100.0 * (1.0 - max(shipped) / max(stripped))

    engine_overhead = overhead_pct(engine_shipped, engine_stripped)
    search_overhead = overhead_pct(search_shipped, search_stripped)

    table = format_series_table(
        "Disabled-tracing overhead (VA): shipped vs stripped, best of "
        f"{ROUNDS} rounds x {INTERLEAVES} alternations",
        "variant", ["shipped", "stripped", "overhead %"],
        {"engine qps": [max(engine_shipped), max(engine_stripped),
                        engine_overhead],
         "search qps": [max(search_shipped), max(search_stripped),
                        search_overhead]},
        unit="qps")
    print()
    print(table)
    write_result("trace_overhead", table)
    write_json_result("BENCH_trace", {
        "dataset": "VA",
        "num_pois": len(collection),
        "clients": CLIENTS,
        "requests_per_alternation": REQUESTS,
        "rounds": ROUNDS,
        "interleaves": INTERLEAVES,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "engine": {
            "shipped_qps": engine_shipped,
            "stripped_qps": engine_stripped,
            "best_shipped_qps": max(engine_shipped),
            "best_stripped_qps": max(engine_stripped),
            "overhead_pct": engine_overhead,
        },
        "search": {
            "shipped_qps": search_shipped,
            "stripped_qps": search_stripped,
            "best_shipped_qps": max(search_shipped),
            "best_stripped_qps": max(search_stripped),
            "overhead_pct": search_overhead,
        },
    })

    assert engine_overhead <= MAX_OVERHEAD_PCT, (
        f"disabled tracing costs {engine_overhead:.2f}% engine QPS "
        f"(limit {MAX_OVERHEAD_PCT}%)")
    assert search_overhead <= MAX_OVERHEAD_PCT, (
        f"disabled tracing costs {search_overhead:.2f}% search QPS "
        f"(limit {MAX_OVERHEAD_PCT}%)")

"""Serving layer (beyond the paper) — concurrent throughput + freshness.

The paper measures single-query latency; a serving deployment cares about
aggregate throughput under concurrent clients and about *freshness* when
the dataset changes underneath a result cache.  Two acceptance checks:

* on a cache-warm repeated workload, multiple closed-loop clients deliver
  strictly more aggregate QPS than a single client (request overlap hides
  per-request think/wait time even though Python executes one search at a
  time);
* a dynamic insert invalidates every affected cached result — the next
  ask recomputes and includes the new POI, never a stale answer.
"""

import math

from repro.bench import generate_queries, repeated_stream
from repro.core import MutableDesksIndex
from repro.service import QueryEngine

from closed_loop import run_closed_loop
from conftest import bench_bands, bench_wedges
from series import format_series_table, write_json_result, write_result

WIDTH = math.pi / 3
THINK_TIME = 0.005
REQUESTS = 100
CLIENT_SWEEP = (1, 2, 4, 8)


def test_multi_client_qps_beats_single_client(datasets):
    collection = datasets["VA"]
    bands = bench_bands(len(collection))
    index = MutableDesksIndex(collection, num_bands=bands,
                              num_wedges=bench_wedges(len(collection),
                                                      bands))
    base = generate_queries(collection, 25, 2, WIDTH, k=10, seed=61)
    stream = repeated_stream(base, repeats=4, seed=61)

    qps_col, hit_col, p95_col = [], [], []
    with QueryEngine(index, num_workers=8) as engine:
        # Warm the cache: every distinct query computed once.
        for query in base:
            engine.execute(query)
        for num_clients in CLIENT_SWEEP:
            before = engine.cache.stats
            report = run_closed_loop(
                lambda q: engine.submit(q).result(), stream, num_clients,
                requests_per_client=REQUESTS, think_time=THINK_TIME)
            after = engine.cache.stats
            assert report.errors == 0, report.first_error
            qps_col.append(report.qps)
            hit_col.append(100.0 * (after.hits - before.hits)
                           / max(after.lookups - before.lookups, 1))
            p95_col.append(1000.0 * report.latency.get("p95", 0.0))

    table = format_series_table(
        "Serving (VA): closed-loop clients vs aggregate throughput",
        "clients", [str(c) for c in CLIENT_SWEEP],
        {"qps": qps_col, "hit rate %": hit_col, "p95 ms": p95_col},
        unit="qps")
    print()
    print(table)
    write_result("service_throughput", table)
    write_json_result("BENCH_service", {
        "dataset": "VA",
        "num_pois": len(collection),
        "requests_per_client": REQUESTS,
        "think_time_seconds": THINK_TIME,
        "sweep": [
            {"clients": clients, "qps": qps, "cache_hit_rate_pct": hit,
             "p95_ms": p95}
            for clients, qps, hit, p95 in zip(CLIENT_SWEEP, qps_col,
                                              hit_col, p95_col)
        ],
    })

    # Acceptance: concurrency must pay.  Cache-warm requests are fast
    # relative to think time, so even the GIL-bound engine overlaps the
    # waits and every multi-client step should beat one client.
    single = qps_col[0]
    for clients, qps in zip(CLIENT_SWEEP[1:], qps_col[1:]):
        assert qps > single, (
            f"{clients} clients reached {qps:.1f} qps, not above the "
            f"single-client {single:.1f}")
    assert max(qps_col[1:]) > 1.5 * single


def test_insert_invalidates_affected_cached_result(datasets):
    collection = datasets["VA"]
    bands = bench_bands(len(collection))
    index = MutableDesksIndex(collection, num_bands=bands,
                              num_wedges=bench_wedges(len(collection),
                                                      bands))
    query = generate_queries(collection, 1, 2, WIDTH, k=10, seed=62)[0]

    with QueryEngine(index, num_workers=2) as engine:
        first = engine.execute(query)
        assert engine.execute(query).cached  # warm

        # Insert a matching POI just inside the query's direction interval,
        # closer than every current answer: it MUST appear next ask.
        mid = query.interval.midpoint()
        new_id = index.insert(query.location.x + 1e-3 * math.cos(mid),
                              query.location.y + 1e-3 * math.sin(mid),
                              sorted(query.keywords))

        after = engine.execute(query)
        assert not after.cached, "stale cache entry served after insert"
        assert new_id in after.result.poi_ids()
        assert after.result.poi_ids() != first.result.poi_ids()
        assert after.generation > first.generation

        # And the recomputed answer is itself cached again.
        again = engine.execute(query)
        assert again.cached
        assert again.result.poi_ids() == after.result.poi_ids()

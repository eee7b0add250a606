"""Network serving: socket vs in-process transport, shedding, deadlines.

The one closed-loop generator (``run_closed_loop``, ``closed_loop.py``)
drives the same VA workload, for ``DURATION_SECONDS`` of wall clock per
facet, through two transports:

* **inproc** — the :class:`~repro.service.QueryEngine` called directly
  (the PR-1 serving baseline, no wire);
* **socket** — a :class:`~repro.net.ShardServer` behind the real frame
  protocol, reached through a :class:`~repro.net.RemoteShardClient`
  connection pool.

Three acceptance properties ride along:

* **overload shedding** — a deliberately undersized server driven by 4x
  more clients than it admits must shed with *typed* ``OVERLOAD`` errors
  (counted, non-fatal) rather than queueing unboundedly or failing
  opaquely;
* **deadline over the wire** — a request whose budget is already spent
  must come back ``partial=True`` immediately, and the server's
  ``net_deadline_expired_total`` counter must show it never touched the
  index;
* **parity** — both transports complete every request they issue with
  zero errors, zero sheds and zero partial results.

Everything lands in ``results/BENCH_network.json`` (QPS, exact
p50/p95/p99, overload rate) and ``results/network_serving.txt``.
"""

import math
from dataclasses import asdict

import pytest

from repro.bench import generate_queries
from repro.core import DesksIndex
from repro.net import (
    OverloadError,
    RemoteShardClient,
    ShardServer,
    TransportError,
)
from repro.service import QueryEngine

from closed_loop import run_closed_loop
from conftest import bench_bands, bench_wedges
from series import format_series_table, write_json_result, write_result

pytestmark = pytest.mark.network

NUM_CLIENTS = 4
DURATION_SECONDS = 2.0
SHED_ON = (OverloadError, TransportError)
OVERDRIVE_CLIENTS = 8
OVERDRIVE_MAX_INFLIGHT = 2


def _build_index(collection):
    bands = bench_bands(len(collection))
    wedges = bench_wedges(len(collection), bands)
    return DesksIndex(collection, num_bands=bands, num_wedges=wedges)


def overload_rate(run):
    """Fraction of issued requests shed with a typed OVERLOAD."""
    return run.shed["OverloadError"] / max(run.attempts, 1)


def test_transport_comparison_shedding_and_deadlines(datasets):
    collection = datasets["VA"]
    index = _build_index(collection)
    queries = generate_queries(collection, 64, 2,
                               direction_width=math.pi / 2, k=10,
                               seed=1234)

    # -- inproc baseline: the engine called directly, no wire ------------
    with QueryEngine(index, num_workers=4) as engine:
        inproc = run_closed_loop(
            engine.execute, queries, NUM_CLIENTS,
            duration_seconds=DURATION_SECONDS, shed_on=SHED_ON)

    # -- socket: the same workload through the real protocol -------------
    server = ShardServer(index, num_workers=4).start()
    try:
        with RemoteShardClient(server.address) as client:
            socket_run = run_closed_loop(
                client.search, queries, NUM_CLIENTS,
                duration_seconds=DURATION_SECONDS, shed_on=SHED_ON)

            # Deadline over the wire: spent budget → immediate partial,
            # and the server proves it never queued the search.
            expired = client.search(queries[0], budget=0.0)
            assert expired.partial
            assert expired.result.entries == []
            assert client.stats()["net_deadline_expired_total"] >= 1
    finally:
        server.stop()

    # -- overdrive: undersized server, 4x the admitted concurrency -------
    overdrive_server = ShardServer(
        index, num_workers=2,
        max_inflight=OVERDRIVE_MAX_INFLIGHT).start()
    try:
        with RemoteShardClient(overdrive_server.address) as client:
            overdrive = run_closed_loop(
                client.search, queries, OVERDRIVE_CLIENTS,
                duration_seconds=DURATION_SECONDS, shed_on=SHED_ON)
        shed_counter = overdrive_server.metrics.counter(
            "net_overload_total").value
    finally:
        overdrive_server.stop()

    # -- acceptance -------------------------------------------------------
    for run in (inproc, socket_run):
        assert run.errors == 0, run.first_error
        assert run.total_queries == run.attempts > 0, run.summary()
        assert run.shed == {"OverloadError": 0, "TransportError": 0}
        assert run.partial_results == 0
    # Overdrive sheds typed: every shed is an OverloadError the client
    # counted, matching the server's own counter, and nothing opaque.
    overloaded = overdrive.shed["OverloadError"]
    assert overdrive.errors == 0, overdrive.first_error
    assert overdrive.shed["TransportError"] == 0
    assert overloaded > 0, "overdrive never tripped admission control"
    assert overloaded == shed_counter
    assert overdrive.total_queries + overloaded == overdrive.attempts

    # -- reporting ---------------------------------------------------------
    runs = [inproc, socket_run, overdrive]
    labels = ["inproc", "socket", "socket 4x overdrive"]
    table = format_series_table(
        "Network serving (VA): closed-loop clients vs transport",
        "transport", labels,
        {
            "qps": [r.qps for r in runs],
            "p50 (ms)": [r.latency["p50"] * 1e3 for r in runs],
            "p95 (ms)": [r.latency["p95"] * 1e3 for r in runs],
            "p99 (ms)": [r.latency["p99"] * 1e3 for r in runs],
            "overload rate": [overload_rate(r) for r in runs],
        },
        unit="queries/s, ms, fraction shed")
    print()
    print(table)
    for label, run in zip(labels, runs):
        print(f"{label:<20}{run.summary()}")
    write_result("network_serving", table)
    write_json_result("BENCH_network", {
        "dataset": "VA",
        "num_pois": len(collection),
        "workload_queries": len(queries),
        "duration_seconds": DURATION_SECONDS,
        "runs": {
            key: dict(asdict(run), qps=run.qps,
                      overload_rate=overload_rate(run))
            for key, run in zip(("inproc", "socket", "socket_overdrive"),
                                runs)
        },
        "overdrive": {
            "max_inflight": OVERDRIVE_MAX_INFLIGHT,
            "num_clients": OVERDRIVE_CLIENTS,
            "server_shed_counter": shed_counter,
        },
    })

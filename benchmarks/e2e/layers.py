"""Per-layer metrics, measured from outside the program.

Two sources.  *Probes* time direct calls into one layer's public
functions on the workload's own queries (``lang``, ``net.protocol``,
``service.engine``, ``core.search``, ``kernel``, ``core.dynamic``).  The
*cluster pass* sends those queries through a deployment whose router and
transports are wrapped by :mod:`spans`, and combines the spans with the
shard servers' ``STATS`` deltas -- the servers are other processes and
cannot be wrapped, so their time comes from their own counters.

Layers are never timed by sending one query down successive depths: the
first call would warm the shard cache for the next.

Self times are means, so that they add up to the mean ``client.call``.
"""

from __future__ import annotations

import random
import statistics
import time
from contextlib import ExitStack
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

from repro.core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    MutableDesksIndex,
    PruningMode,
    QueryResult,
)
from repro.kernel import ColumnarSearcher, ColumnarSnapshot
from repro.lang import parse
from repro.net import protocol
from repro.net.protocol import MessageType
from repro.service import QueryEngine
from repro.storage import SearchStats

from harness import (
    CACHE_CAPACITY,
    NUM_SHARDS,
    SHARD_WORKERS,
    WRITE_SHARE,
    ClusterWorkload,
    Cycle,
    Deployment,
    Entries,
    Workload,
    drive,
    measure,
    nearby_copy,
    percentile,
    summarize,
)
from spans import (
    CLIENT_CALL,
    CLIENT_EXECUTE,
    ROUTER_EXECUTE,
    Recorder,
    Span,
    self_times,
)

Metrics = Dict[str, float]
T = TypeVar("T")

#: Queries a latency probe times (cache-hit cost, hop cost, hit RPC).
PROBE_SAMPLE = 64
#: Ops of the workload's read stream replayed for batch dedupe.
DEDUPE_BATCH = 512


def _each(function: Callable, items: Sequence) -> List[float]:
    """Seconds of ``function(item)`` for every item."""
    clock = time.perf_counter
    seconds = []
    for item in items:
        start = clock()
        function(item)
        seconds.append(clock() - start)
    return seconds


def _mean_us(seconds: Sequence[float]) -> float:
    return 1e6 * statistics.fmean(seconds)


def probe_lang(statements: Sequence[str]) -> Metrics:
    """``parse`` alone, then ``query()`` + ``render()`` on fresh plans
    (both are memoized per plan, so each plan is asked once)."""
    plans = []
    parse_seconds = _each(lambda text: plans.append(parse(text)), statements)
    plan_seconds = _each(lambda plan: (plan.query(), plan.render()), plans)
    return {"lang.parse_us": _mean_us(parse_seconds),
            "lang.plan_us": _mean_us(plan_seconds)}


def _round_trip(msg_type: MessageType, payload: bytes,
                decode: Callable[[bytes], object]) -> int:
    """Frame, re-read and decode ``payload`` as a peer would; its size."""
    frame = protocol.encode_frame(msg_type, payload)
    header = frame[:protocol.HEADER_SIZE]
    kind, _length, crc = protocol.parse_header(header)
    decode(protocol.check_payload(frame[protocol.HEADER_SIZE:], crc, kind))
    return len(frame)


def probe_protocol(queries: Sequence[DirectionalQuery],
                   statements: Sequence[str],
                   answers: Sequence[Entries]) -> Metrics:
    """Encode + frame + check + decode of the workload's real requests
    and answers, in both directions; frame sizes are exact counts."""
    sizes = {"request": 0, "response": 0}
    stats = SearchStats()

    def statement_codec(index: int) -> None:
        text = statements[index]
        sizes["request"] += _round_trip(
            MessageType.STATEMENT_REQUEST,
            protocol.encode_statement_request(text, None),
            protocol.decode_statement_request)
        sizes["response"] += _round_trip(
            MessageType.STATEMENT_RESPONSE,
            protocol.encode_statement_response(
                text, "search", search=protocol.encode_search_response(
                    QueryResult(answers[index]))),
            protocol.decode_statement_response)

    def search_codec(index: int) -> None:
        _round_trip(MessageType.SEARCH_REQUEST,
                    protocol.encode_search_request(queries[index], None),
                    protocol.decode_search_request)
        _round_trip(MessageType.SEARCH_RESPONSE,
                    protocol.encode_search_response(
                        QueryResult(answers[index]), stats=stats),
                    protocol.decode_search_response)

    indexes = range(len(queries))
    statement_seconds = _each(statement_codec, indexes)
    search_seconds = _each(search_codec, indexes)
    return {
        "net.protocol.statement_codec_us": _mean_us(statement_seconds),
        "net.protocol.search_codec_us": _mean_us(search_seconds),
        "net.protocol.request_bytes": sizes["request"] / len(queries),
        "net.protocol.response_bytes": sizes["response"] / len(queries),
    }


def probe_search(index: DesksIndex, queries: Sequence[DirectionalQuery],
                 ) -> Tuple[Metrics, List[Entries]]:
    """``DesksSearcher.search`` with counters; the counts repeat exactly."""
    searcher = DesksSearcher(index)
    answers = [searcher.search(query).entries for query in queries]  # warm
    stats = [SearchStats() for _ in queries]
    pairs = list(zip(queries, stats))
    seconds = _each(
        lambda pair: searcher.search(pair[0], PruningMode.RD, pair[1]), pairs)

    def per_query(field: str) -> float:
        return sum(getattr(s, field) for s in stats) / len(queries)

    return {
        "core.search.search_us": _mean_us(seconds),
        "core.search.p99_us": 1e6 * percentile(seconds, 99),
        "core.search.pois_examined_per_query": per_query("pois_examined"),
        "core.search.subregions_examined_per_query":
            per_query("subregions_examined"),
        "core.search.distance_computations_per_query":
            per_query("distance_computations"),
    }, answers


def _batch_us(searcher: ColumnarSearcher,
              queries: Sequence[DirectionalQuery]) -> float:
    searcher.search_batch(queries)          # fill the plan caches
    start = time.perf_counter()
    searcher.search_batch(queries)
    return 1e6 * (time.perf_counter() - start) / len(queries)


def probe_kernel(index: DesksIndex, default_grid: bool,
                 queries: Sequence[DirectionalQuery]) -> Metrics:
    """Snapshot compile and ``search_batch`` on the workload's grid, and
    the same queries on the default grid (where the object path is read
    by ``core.search.search_us`` on the default-grid workloads)."""
    start = time.perf_counter()
    snapshot = ColumnarSnapshot(index)
    build = time.perf_counter() - start
    searcher = ColumnarSearcher(snapshot)
    if not default_grid:
        default = ColumnarSearcher(
            ColumnarSnapshot(DesksIndex(index.collection)))
    return {
        "kernel.snapshot.build_s": build,
        "kernel.snapshot.nbytes": float(snapshot.nbytes),
        "kernel.search.batch_us_per_query": _batch_us(searcher, queries),
        "kernel.search.default_grid_us_per_query": _batch_us(
            searcher if default_grid else default, queries),
    }


def _new_engine(index: DesksIndex) -> QueryEngine:
    return QueryEngine(index, num_workers=SHARD_WORKERS,
                       cache_capacity=CACHE_CAPACITY)


def probe_engine(index: DesksIndex, queries: Sequence[DirectionalQuery],
                 stream: Sequence[int]) -> Metrics:
    """What ``QueryEngine`` adds around a search, and what a result
    cache of the deployed size does with the workload's read stream."""
    sample = queries[:PROBE_SAMPLE]
    searcher = DesksSearcher(index)
    with _new_engine(index) as engine:
        for query in sample:
            searcher.search(query)                          # warm
        miss = _each(engine.execute, sample)
        bare = _each(lambda q: searcher.search(q, PruningMode.RD,
                                               SearchStats()), sample)
        hit = _each(engine.execute, sample)
        hop = _each(lambda q: engine.submit(q).result(), sample)
    with _new_engine(index) as engine:
        for position in stream:
            engine.execute(queries[position])
        cache = engine.cache.stats
        batch = [queries[position] for position in stream[:DEDUPE_BATCH]]
        for future in engine.submit_batch(batch):
            future.result()
        deduped = engine.metrics.counter("batch_deduped_total").value
    return {
        "service.engine.execute_hit_us": 1e6 * statistics.median(hit),
        "service.engine.miss_overhead_us": 1e6 * statistics.median(
            m - b for m, b in zip(miss, bare)),
        "service.engine.submit_hop_us": 1e6 * (
            statistics.median(hop) - statistics.median(hit)),
        "service.engine.batch_dedupe_share": deduped / len(batch),
        "service.cache.hit_rate": cache.hit_rate,
        "service.cache.evictions": float(cache.evictions),
        "service.cache.invalidations": float(cache.invalidations),
    }


def cache_metrics(before: Dict[str, int], after: Dict[str, int]) -> Metrics:
    """The workload's own result cache over a phase; overrides the
    replayed numbers of :func:`probe_engine` where it can be read."""
    delta = {name: after[name] - before[name] for name in after}
    metrics = {"service.cache.hit_rate":
               delta["hits"] / delta["lookups"] if delta["lookups"] else 0.0}
    for name in ("evictions", "invalidations"):
        if name in delta:
            metrics[f"service.cache.{name}"] = float(delta[name])
    return metrics


def probe_dynamic(index: DesksIndex, queries: Sequence[DirectionalQuery],
                  writes: int, seed: int) -> Metrics:
    """Direct ``insert``/``delete``/``compact`` on a mutable view of
    ``index``, and reads with as many writes pending as
    ``mutable_read_write`` has when it compacts."""
    mutable = MutableDesksIndex.from_static(index)
    collection = index.collection
    rng = random.Random(seed)
    points = [nearby_copy(collection, rng) for _ in range(writes)]
    inserted: List[int] = []
    insert = _each(lambda p: inserted.append(mutable.insert(*p)), points)
    delete = _each(mutable.delete, inserted[:max(1, writes // 2)])
    read = _each(mutable.search, queries[:PROBE_SAMPLE])
    start = time.perf_counter()
    mutable.compact()
    stall = time.perf_counter() - start
    return {
        "core.dynamic.insert_us": 1e6 * statistics.median(insert),
        "core.dynamic.delete_us": 1e6 * statistics.median(delete),
        "core.dynamic.read_us_at_pending_max": _mean_us(read),
        "core.dynamic.compact_stall_s": stall,
        "core.dynamic.rebuild_count": float(mutable.rebuild_count),
    }


def pending_writes(mutable_ops: int) -> int:
    """Inserts pending when ``mutable_read_write`` compacts."""
    return max(2, int(mutable_ops * WRITE_SHARE / 2))


# -- the cluster pass -----------------------------------------------------------


def _counter_sum(stats: Sequence[dict], name: str) -> float:
    return sum(shard.get(name, 0) for shard in stats)


def _engine_busy(stats: Sequence[dict]) -> float:
    """Seconds the shard engines spent in ``execute`` so far."""
    return sum(shard.get("query_latency_count", 0)
               * shard.get("query_latency_mean", 0.0) for shard in stats)


def traced_phase(deployment: Deployment, recorder: Recorder,
                 run: Callable[[], T]) -> Tuple[T, Metrics]:
    """Run ``run`` with the recorder on; the layer metrics of what it
    sent through ``deployment``, from its spans and the ``STATS`` deltas."""
    first = len(recorder.spans)
    shards_before = deployment.shard_stats()
    front_before = deployment.frontend_stats()
    recorder.enabled = True
    try:
        result = run()
    finally:
        recorder.enabled = False
    shards_after = deployment.shard_stats()
    front_after = deployment.frontend_stats()

    def delta(name: str) -> float:
        return (_counter_sum(shards_after, name)
                - _counter_sum(shards_before, name))

    spans = recorder.spans[first:]
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = {
        CLIENT_CALL: [], ROUTER_EXECUTE: [], CLIENT_EXECUTE: []}
    for span in spans:
        by_name[span.name].append(span)
    calls = {span.span_id: span for span in by_name[CLIENT_CALL]}
    routed = by_name[ROUTER_EXECUTE]
    rpcs = by_name[CLIENT_EXECUTE]
    busy = _engine_busy(shards_after) - _engine_busy(shards_before)
    rpc_seconds = sum(span.seconds for span in rpcs)
    router = deployment.front_router
    return result, {
        "net.frontend.self_ms": 1e3 * statistics.fmean(
            own[span_id] for span_id in calls),
        "net.frontend.queue_wait_ms": 1e3 * statistics.fmean(
            span.start - calls[span.parent].start for span in routed),
        "net.frontend.overload_total": float(
            front_after.get("net_overload_total", 0)
            - front_before.get("net_overload_total", 0)),
        "cluster.router.self_ms": 1e3 * statistics.fmean(
            own[span.span_id] for span in routed),
        "cluster.router.shards_dispatched_per_query":
            router.shards_dispatched / router.queries,
        "cluster.router.pruning_rate":
            router.pruning_rate_sum / router.queries,
        "net.client.rpc_ms": 1e3 * rpc_seconds / max(1, len(rpcs)),
        "net.client.hop_overhead_ms":
            1e3 * (rpc_seconds - busy) / max(1, len(rpcs)),
        "net.client.retries_total": float(sum(
            shard.transport.retries for shard in deployment.router.shards)),
        # The closing STATS request counts itself, once per shard.
        "net.server.requests_total": delta("net_requests_total") - NUM_SHARDS,
        "net.server.overload_total": delta("net_overload_total"),
        "service.engine.busy_s": busy,
    }


def probe_deployment(deployment: Deployment,
                     queries: Sequence[DirectionalQuery]) -> Metrics:
    """Direct calls that need a deployment but no spans: the router's
    planning step, and a cache-hit search RPC (server + wire, no search).
    Run after the traced phase: the RPCs fill the shard's cache."""
    plan = _each(deployment.router.plan, queries)
    sample = queries[:PROBE_SAMPLE]
    shard = deployment.shard_clients[0]
    for query in sample:
        shard.search(query)
    return {
        "cluster.router.plan_us": _mean_us(plan),
        "net.server.search_rpc_hit_ms":
            1e3 * statistics.median(_each(shard.search, sample)),
    }


# -- one traced run ---------------------------------------------------------------


def traced_run(workload: Workload, seconds: float,
               ) -> Tuple[List[Cycle], Metrics]:
    """Half of ``seconds`` untraced, half traced, then every probe.

    Returns the traced cycles and every per-layer value.
    """
    recorder = workload.recorder
    half = seconds / 2.0
    queries, statements = workload.queries, workload.statements
    untraced = summarize(measure(workload, half))
    cache_before = workload.cache_counters()
    with ExitStack() as stack:
        if isinstance(workload, ClusterWorkload):
            deployment = workload.deployment
            timings = workload.timings
            cycles, values = traced_phase(
                deployment, recorder, lambda: measure(workload, half))
        else:
            recorder.enabled = True
            try:
                cycles = measure(workload, half)
            finally:
                recorder.enabled = False
            # The workload never leaves this process: what its queries
            # cost in the serving layers is read from one pass through a
            # deployment brought up for that purpose.
            what_if: Dict[str, float] = {}
            deployment = Deployment(workload.collection, what_if, recorder)
            stack.callback(deployment.close)
            timings = {**what_if, **workload.timings}
            keys = [query.canonical_key() for query in queries]
            _, values = traced_phase(
                deployment, recorder,
                lambda: drive(deployment.clients[0], statements, keys,
                              range(len(queries)), recorder, []))
        cache_after = workload.cache_counters()
        values.update(probe_deployment(deployment, queries))
    index = DesksIndex(workload.collection, *workload.grid)
    search, answers = probe_search(index, queries)
    values.update(search)
    values.update(probe_lang(statements))
    values.update(probe_protocol(queries, statements, answers))
    values.update(probe_kernel(index, workload.grid == (None, None), queries))
    values.update(probe_engine(index, queries, workload.stream))
    if cache_before is not None:
        values.update(cache_metrics(cache_before, cache_after))
    values.update(probe_dynamic(
        index, queries, pending_writes(workload.sizing.mutable_ops),
        workload.seed))
    values.update(timings)
    traced = summarize(cycles)
    values["client.latency_p99_ms"] = traced["client.latency_p99_ms"]
    values["machine.calibration_ms"] = 1e3 * statistics.median(
        cycle.calibration for cycle in cycles)
    values["trace.overhead_share"] = (
        traced["latency_p50_ms"] / untraced["latency_p50_ms"] - 1.0)
    return cycles, values

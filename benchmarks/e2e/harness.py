"""Data, deployments, the five workloads and the measuring loop.

Everything here drives the program through its public API only.  A
workload is built from ``--seed`` alone: the dataset is the fixed
synthetic preset (the "database"), the op list (the "traffic") is a
fixed draw that the seed salts (:func:`salted`).  Each workload is
measured in *cycles* -- one deterministic pass over its op list --
repeated until ``--seconds`` of timed work has been done; throughput
and latency percentiles are taken per cycle, in time calibrated to the
machine's speed, and reported as medians over the cycles
(:func:`summarize`).
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bench.workloads import (
    generate_queries,
    paper_query_mix,
    repeated_stream,
)
from repro.cluster import ShardRouter
from repro.core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    MutableDesksIndex,
    PruningMode,
    ResultEntry,
    brute_force_search,
)
from repro.datasets import POICollection, generate
from repro.datasets.synthetic import SyntheticConfig, china_like, virginia_like
from repro.geometry import DirectionInterval, Point
from repro.lang import parse, plan_from_query
from repro.net import (
    ClusterFrontend,
    ClusterLauncher,
    RemoteShardClient,
    TransportError,
    connect_router,
)
from repro.net.protocol import ProtocolError, RpcError
from repro.service import QueryEngine

from spans import CLIENT_CALL, Recorder, TracedRouter, TracedTransport

REPO_ROOT = Path(__file__).resolve().parents[2]
#: Saved deployments live here while a run is up (ignored by git).
WORK_DIR = REPO_ROOT / ".bench_e2e"

NUM_SHARDS = 2
#: At most ``nproc`` of the reference machine: one connection each.
NUM_CLIENTS = 2
SHARD_WORKERS = 2
CACHE_CAPACITY = 128
#: Direction widths of the paper's Figs. 16-17.
WIDTHS = (math.pi / 6, math.pi / 2, math.pi, 2 * math.pi)
#: (direction width, k) of the kernel gate's scan-heavy mixes.
SCAN_MIXES = ((2 * math.pi, 20), (4.0, 20), (2.0, 10))
KERNEL_GRID = (3, 4)
#: The seed the op lists are drawn from, and how far ``--seed`` then
#: moves each query (share of the extent and of the circle): see
#: :func:`salted`.
BASE_SEED = 11
SALT = 0.002
#: Share of writes in ``mutable_read_write`` (half inserts, half deletes).
WRITE_SHARE = 0.2
#: Reads checked against brute force just before every compaction.
COMPACTION_CHECKS = 8


@dataclass(frozen=True)
class Sizing:
    """Every size the workloads depend on; two instances, below."""

    preset: Callable[..., SyntheticConfig]
    scale: float
    per_set: int         # queries per (direction width, keyword count)
    hot_size: int        # hot statements, split between the clients
    hot_repeats: int     # replays of a client's hot share per cycle
    core_passes: int     # passes over the paper mix per cycle
    scan_per_mix: int    # scan-heavy queries per mix
    batch_size: int      # queries per submit_batch call
    kernel_passes: int   # passes over the scan queries per cycle
    mutable_ops: int     # scripted ops per cycle, before the compaction
    brute_sample: int    # reference answers re-derived by brute force
    setup_repeats: int   # set-ups per untraced run (median reported)
    min_cycles: int


#: CN/800 (20.6k POIs), a quarter of the kernel gate's CN/200: cluster
#: set-up is linear in the data and is repeated three times per run, and
#: 114 runs must fit the driver's budget, while a search (sublinear) is
#: only ~1.7x cheaper than on CN/200.  A cycle is sized to 0.3-2 s, so
#: that a run holds many of them (see :func:`summarize`).
FULL = Sizing(china_like, 800.0, per_set=20, hot_size=64, hot_repeats=10,
              core_passes=1, scan_per_mix=100, batch_size=25,
              kernel_passes=2, mutable_ops=2000, brute_sample=64,
              setup_repeats=3, min_cycles=4)
#: VA/200 (4.8k POIs).  ``per_set`` keeps each shard's distinct queries
#: above the shard cache, so ``dql_cluster_cold`` stays cold here too.
SMOKE = Sizing(virginia_like, 200.0, per_set=16, hot_size=16, hot_repeats=4,
               core_passes=1, scan_per_mix=8, batch_size=4,
               kernel_passes=1, mutable_ops=200, brute_sample=8,
               setup_repeats=1, min_cycles=2)


Entries = List[ResultEntry]
Timings = Dict[str, float]


@contextmanager
def timed(timings: Timings, name: str) -> Iterator[None]:
    """Add the block's wall time to ``timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = (timings.get(name, 0.0)
                         + time.perf_counter() - start)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def salted(queries: Sequence[DirectionalQuery], seed: int,
           collection: POICollection) -> List[DirectionalQuery]:
    """``queries``, each moved and turned a little by ``seed``.

    What a query costs is decided by how popular its keywords are and
    whether k answers exist in its direction: on the paper mix a tenth
    of the queries does two thirds of the work, and a fresh draw of 400
    moves the mean cost by +-16 % (interquartile, over 12 seeds; 7 % at
    2000).  No bound could tell that from a regression.  So the draw is
    made once, from :data:`BASE_SEED`, and ``--seed`` shifts every
    location by up to :data:`SALT` of the extent and turns every
    interval by up to :data:`SALT` of the circle: each seed sends values
    the program has never seen, and the work stays the same to 0.5 %.
    """
    rng = random.Random(seed)
    mbr = collection.mbr
    reach = SALT * max(mbr.max_x - mbr.min_x, mbr.max_y - mbr.min_y)
    out: List[DirectionalQuery] = []
    for query in queries:
        x = query.location.x + rng.uniform(-reach, reach)
        y = query.location.y + rng.uniform(-reach, reach)
        turn = rng.uniform(-SALT, SALT) * 2 * math.pi
        interval = query.interval
        if not interval.is_full:
            interval = DirectionInterval(interval.lower + turn,
                                         interval.upper + turn)
        out.append(DirectionalQuery(Point(x, y), interval, query.keywords,
                                    query.k, query.match_mode))
    return out


def paper_queries(collection: POICollection, seed: int,
                  per_set: int) -> List[DirectionalQuery]:
    """The paper's 1-5 keyword mix at every width, dealt round-robin
    from the (width, keyword count) cells so that any prefix (the hot
    set) is itself a balanced mix."""
    cells: List[List[DirectionalQuery]] = []
    for position, width in enumerate(WIDTHS):
        mix = paper_query_mix(collection, per_set, width, k=10,
                              seed=BASE_SEED * 100_000 + position * 10_000)
        cells.extend(mix[at:at + per_set]
                     for at in range(0, len(mix), per_set))
    dealt = [cell[turn] for turn in range(per_set) for cell in cells]
    return salted(dealt, seed, collection)


def scan_queries(collection: POICollection, seed: int,
                 per_mix: int) -> List[DirectionalQuery]:
    """Single popular keyword, wide interval, large k: wedge scans."""
    queries: List[DirectionalQuery] = []
    for position, (width, k) in enumerate(SCAN_MIXES):
        queries.extend(generate_queries(
            collection, per_mix, 1, width, k=k,
            seed=BASE_SEED * 100_000 + 50_000 + position))
    return salted(queries, seed, collection)


def nearby_copy(collection: POICollection,
                rng: random.Random) -> Tuple[float, float, frozenset]:
    """``insert`` arguments for a new POI: a random POI's keywords, within
    one unit of where it sits."""
    model = collection[rng.randrange(len(collection))]
    return (model.location.x + rng.uniform(-1.0, 1.0),
            model.location.y + rng.uniform(-1.0, 1.0), model.keywords)


def deal(count: int) -> List[List[int]]:
    """``range(count)`` dealt to the clients in turn: disjoint shares."""
    return [list(range(slot, count, NUM_CLIENTS))
            for slot in range(NUM_CLIENTS)]


def require_distinct(queries: Sequence[DirectionalQuery]) -> None:
    """Cache behaviour is only as designed when no query repeats."""
    if len({q.canonical_key() for q in queries}) != len(queries):
        raise RuntimeError("generated op list repeats a query")


def digest(name: str, lines: Sequence[str]) -> str:
    """The workload's identity: its name and every op it will issue."""
    text = "\n".join([name, *lines])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Cycle:
    """One timed pass: ops done, wall seconds, per-op latencies, failures."""

    ops: int
    seconds: float
    latencies: List[float]
    failed: int = 0
    #: Seconds the calibration loop took around this cycle (mean of the
    #: one before and the one after).
    calibration: float = 0.0


# -- the deployment -----------------------------------------------------------


class Deployment:
    """Two shard-server processes behind an in-process front door.

    ``ShardRouter.save`` -> ``ClusterLauncher`` -> ``connect_router`` ->
    ``ClusterFrontend``, i.e. exactly what ``repro serve`` brings up,
    except that the front door shares the load generator's process so
    the router and its transports can be wrapped for tracing.  Torn down
    in reverse order by :meth:`close`, whatever happened in between.
    """

    def __init__(self, collection: POICollection, timings: Timings,
                 recorder: Optional[Recorder] = None) -> None:
        self._stack = ExitStack()
        try:
            self._bring_up(collection, timings, recorder)
        except BaseException:
            self.close()
            raise

    def _bring_up(self, collection: POICollection, timings: Timings,
                  recorder: Optional[Recorder]) -> None:
        stack = self._stack
        WORK_DIR.mkdir(exist_ok=True)
        directory = tempfile.mkdtemp(dir=WORK_DIR)
        stack.callback(shutil.rmtree, directory, ignore_errors=True)
        with timed(timings, "setup.index_build_s"):
            builder = ShardRouter(collection, num_shards=NUM_SHARDS,
                                  partitioner="grid")
        with timed(timings, "setup.save_s"):
            try:
                builder.save(directory)
            finally:
                builder.close()
        with timed(timings, "setup.launch_s"):
            self.launcher = ClusterLauncher(directory,
                                            num_workers=SHARD_WORKERS)
            stack.callback(self._stop_servers)
            addresses = self.launcher.start()
        with timed(timings, "setup.connect_s"):
            self.router = connect_router(directory, addresses)
            stack.callback(self.router.close)
            front_router = self.router
            if recorder is not None:
                for shard in self.router.shards:
                    shard.transport = TracedTransport(shard.transport,
                                                      recorder)
                front_router = TracedRouter(self.router, recorder)
            self.front_router = front_router
            self.frontend = ClusterFrontend(front_router).start()
            stack.callback(self.frontend.stop)
            # The front door logs a cancelled handler for every
            # connection still closing when its loop stops: let it
            # notice the clients have gone first.
            stack.callback(time.sleep, 0.05)
            self.clients = [self._connect(self.frontend.address)
                            for _ in range(NUM_CLIENTS)]
            #: One direct connection per shard server (STATS, hit RPCs).
            self.shard_clients = [
                self._connect(addresses[shard_id][0])
                for shard_id in range(NUM_SHARDS)]
            for client in self.clients + self.shard_clients:
                client.health()

    def _connect(self, address) -> RemoteShardClient:
        client = RemoteShardClient(address)
        self._stack.callback(client.close)
        return client

    def _stop_servers(self) -> None:
        self.launcher.stop()
        if self.launcher.alive():
            raise RuntimeError(
                f"shard servers still alive: {self.launcher.alive()}")

    def server_pids(self) -> List[int]:
        return [server.process.pid for server in self.launcher.servers]

    def shard_stats(self) -> List[dict]:
        """Every shard server's ``STATS`` snapshot."""
        return [client.stats() for client in self.shard_clients]

    def frontend_stats(self) -> dict:
        return self.clients[0].stats()

    def close(self) -> None:
        self._stack.close()


def drive(client: RemoteShardClient, statements: Sequence[str],
          keys: Sequence[Tuple], stream: Sequence[int],
          recorder: Optional[Recorder], latencies: List[float],
          answers: Optional[Dict[int, Entries]] = None) -> int:
    """Send ``stream`` (indexes into ``statements``) closed-loop on one
    connection; returns the number of failed requests.  A typed error,
    a transport failure and a partial answer all count as failures."""
    failed = 0
    tracing = recorder is not None and recorder.enabled
    clock = time.perf_counter
    for index in stream:
        if tracing:
            opened = recorder.open(CLIENT_CALL, keys[index])
        start = clock()
        try:
            result = client.execute_statement(statements[index])
        except (RpcError, TransportError, ProtocolError):
            result = None
        end = clock()
        if tracing:
            recorder.close(CLIENT_CALL, keys[index], opened, start, end)
        latencies.append(end - start)
        if result is None or result.search.partial:
            failed += 1
        elif answers is not None:
            answers[index] = result.search.result.entries
    return failed


# -- verification ---------------------------------------------------------------


def check_against_reference(collection: POICollection,
                            queries: Sequence[DirectionalQuery],
                            answers: Dict[int, Entries],
                            brute_sample: int) -> Tuple[int, int]:
    """``(checked, wrong)``: every answer against an unsharded
    ``DesksSearcher``, and an evenly spaced sample of that reference
    against the exhaustive scan (too slow to run on every query)."""
    reference = DesksSearcher(DesksIndex(collection))
    expected = [reference.search(query).entries for query in queries]
    wrong = sum(1 for index, entries in enumerate(expected)
                if answers.get(index) != entries)
    step = max(1, len(queries) // brute_sample)
    sample = range(0, len(queries), step)[:brute_sample]
    wrong += sum(
        1 for index in sample
        if brute_force_search(collection, queries[index]).entries
        != expected[index])
    return len(queries) + len(sample), wrong


# -- workloads ------------------------------------------------------------------


class Workload:
    """One named workload: set-up, op list, timed cycle, verification."""

    name = ""
    #: Band/wedge grid of the index this workload searches.
    grid: Tuple[Optional[int], Optional[int]] = (None, None)

    def __init__(self, sizing: Sizing, seed: int,
                 recorder: Optional[Recorder] = None) -> None:
        self.sizing = sizing
        self.seed = seed
        self.recorder = recorder
        self.collection: Optional[POICollection] = None
        self.timings: Timings = {}
        #: The distinct queries of the op list, and one cycle's reads as
        #: indexes into them (what a cache in front of them would see).
        self.queries: List[DirectionalQuery] = []
        self.stream: List[int] = []
        #: ``queries`` as DQL text, one statement each.
        self.statements: List[str] = []
        self.workload_hash = ""

    # Set-up is timed from nothing: the dataset is generated again on
    # every repetition, as a fresh process serving this workload would.
    def setup(self) -> float:
        """Bring the program up; returns the wall seconds it took."""
        self.timings = {}
        start = time.perf_counter()
        with timed(self.timings, "setup.generate_s"):
            self.collection = generate(
                self.sizing.preset(scale=self.sizing.scale))
        self.start()
        return time.perf_counter() - start

    def start(self) -> None:
        """Build the program objects over ``self.collection``."""
        raise NotImplementedError

    def stop(self) -> None:
        """Release what :meth:`start` acquired."""

    def prepare(self) -> None:
        """Derive the op list from the seed; warm what should be warm."""
        raise NotImplementedError

    def cycle(self) -> Cycle:
        raise NotImplementedError

    def verify(self) -> Tuple[int, int]:
        """``(checked, wrong)`` over every distinct query, untimed."""
        raise NotImplementedError

    def child_pids(self) -> List[int]:
        return []

    def _traced(self, function: Callable) -> Callable:
        """``function``, as a ``client.call`` span when a run is traced."""
        if self.recorder is None:
            return function
        return self.recorder.root_call(function)

    def cache_counters(self) -> Optional[Dict[str, int]]:
        """Cumulative hits/lookups/evictions/invalidations of the result
        cache on this workload's path, when it can be read."""
        return None

    def _set_queries(self, queries: List[DirectionalQuery]) -> None:
        require_distinct(queries)
        self.queries = queries
        self.statements = [plan_from_query(query).render()
                           for query in queries]

    def _paper_ops(self, limit: Optional[int] = None) -> None:
        self._set_queries(paper_queries(self.collection, self.seed,
                                        self.sizing.per_set)[:limit])

    def _hash_ops(self) -> None:
        self.workload_hash = digest(
            self.name, self.statements + [",".join(map(str, self.stream))])


class ClusterWorkload(Workload):
    """DQL text through front door, router, shard processes and back."""

    def start(self) -> None:
        self.deployment = Deployment(self.collection, self.timings,
                                     self.recorder)

    def stop(self) -> None:
        self.deployment.close()

    def child_pids(self) -> List[int]:
        return self.deployment.server_pids()

    def _client_streams(self) -> List[List[int]]:
        """One op list per client; the clients' query sets are disjoint,
        so queries in flight at the same time are always distinct."""
        raise NotImplementedError

    #: Keep only the hot set of the paper mix.
    hot_only = False

    def prepare(self) -> None:
        self._paper_ops(self.sizing.hot_size if self.hot_only else None)
        self.keys = [parse(text).query().canonical_key()
                     for text in self.statements]
        self.streams = self._client_streams()
        self.stream = [index for pair in zip(*self.streams)
                       for index in pair]
        self._hash_ops()

    def _run(self, streams: Sequence[Sequence[int]],
             answers: Optional[Dict[int, Entries]] = None) -> Cycle:
        clients = self.deployment.clients
        latencies: List[List[float]] = [[] for _ in clients]
        failed = [0] * len(clients)
        gate = threading.Barrier(len(clients) + 1)

        def work(slot: int) -> None:
            gate.wait()
            failed[slot] = drive(
                clients[slot], self.statements, self.keys, streams[slot],
                self.recorder, latencies[slot], answers)

        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(len(clients))]
        for thread in threads:
            thread.start()
        gate.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - start
        return Cycle(sum(map(len, streams)), seconds,
                     [t for per in latencies for t in per], sum(failed))

    def cycle(self) -> Cycle:
        return self._run(self.streams)

    def verify(self) -> Tuple[int, int]:
        answers: Dict[int, Entries] = {}
        # A failed request leaves no answer, which counts as a wrong one.
        self._run(deal(len(self.queries)), answers)
        return check_against_reference(self.collection, self.queries,
                                       answers, self.sizing.brute_sample)

    def cache_counters(self) -> Optional[Dict[str, int]]:
        stats = self.deployment.shard_stats()
        return {"hits": sum(s.get("cache_hits_total", 0) for s in stats),
                "lookups": sum(s.get("queries_total", 0) for s in stats)}


class DqlClusterCold(ClusterWorkload):
    name = "dql_cluster_cold"

    def _client_streams(self) -> List[List[int]]:
        # Each shard sees its distinct queries in the same order every
        # cycle, and far more of them than its LRU cache holds: a query
        # is always evicted before it comes round again.
        return deal(len(self.queries))


class DqlClusterHot(ClusterWorkload):
    name = "dql_cluster_hot"
    hot_only = True

    def prepare(self) -> None:
        super().prepare()
        self._run(self.streams)     # fill the shard caches, untimed

    def _client_streams(self) -> List[List[int]]:
        return [repeated_stream(share, self.sizing.hot_repeats,
                                seed=self.seed + slot)
                for slot, share in enumerate(deal(len(self.queries)))]


class CorePaperMix(Workload):
    """The paper's own measurement: the searcher, nothing around it."""

    name = "core_paper_mix"

    def start(self) -> None:
        with timed(self.timings, "setup.index_build_s"):
            self.searcher = DesksSearcher(DesksIndex(self.collection))

    def prepare(self) -> None:
        self._paper_ops()
        self.stream = list(range(len(self.queries)))
        self._hash_ops()
        self.cycle()                # warm-up, untimed

    def cycle(self) -> Cycle:
        search, mode = self._traced(self.searcher.search), PruningMode.RD
        clock = time.perf_counter
        latencies: List[float] = []
        failed = 0
        begin = clock()
        for _ in range(self.sizing.core_passes):
            for query in self.queries:
                start = clock()
                result = search(query, mode)
                latencies.append(clock() - start)
                failed += result.partial
        return Cycle(len(latencies), clock() - begin, latencies, failed)

    def verify(self) -> Tuple[int, int]:
        answers = {index: self.searcher.search(query).entries
                   for index, query in enumerate(self.queries)}
        return check_against_reference(self.collection, self.queries,
                                       answers, self.sizing.brute_sample)


class EngineWorkload(Workload):
    """Shared by the two workloads that own an in-process engine."""

    engine: QueryEngine

    def stop(self) -> None:
        self.engine.close()

    def cache_counters(self) -> Optional[Dict[str, int]]:
        stats = self.engine.cache.stats
        return {"hits": stats.hits, "lookups": stats.lookups,
                "evictions": stats.evictions,
                "invalidations": stats.invalidations}


class KernelScanBatch(EngineWorkload):
    """``submit_batch`` on a columnar engine over scan-heavy queries."""

    name = "kernel_scan_batch"
    grid = KERNEL_GRID

    def start(self) -> None:
        with timed(self.timings, "setup.index_build_s"):
            index = DesksIndex(self.collection, *KERNEL_GRID)
        self.engine = QueryEngine(index, kernel="columnar",
                                  num_workers=SHARD_WORKERS,
                                  cache_capacity=CACHE_CAPACITY)

    def prepare(self) -> None:
        self._set_queries(scan_queries(self.collection, self.seed,
                                       self.sizing.scan_per_mix))
        self.stream = list(range(len(self.queries)))
        self._hash_ops()
        size = self.sizing.batch_size
        self.batches = [self.queries[at:at + size]
                        for at in range(0, len(self.queries), size)]
        self.cycle()                # warm-up, untimed

    def cycle(self) -> Cycle:
        clock = time.perf_counter
        submit = self._traced(lambda batch: [
            future.result() for future in self.engine.submit_batch(batch)])
        latencies: List[float] = []
        failed = 0
        begin = clock()
        for _ in range(self.sizing.kernel_passes):
            for batch in self.batches:
                start = clock()
                responses = submit(batch)
                latencies.append(clock() - start)
                failed += any(r.partial or r.degraded for r in responses)
        return Cycle(len(latencies), clock() - begin, latencies, failed)

    def verify(self) -> Tuple[int, int]:
        futures = self.engine.submit_batch(self.queries)
        answers = {index: future.result().result.entries
                   for index, future in enumerate(futures)}
        return check_against_reference(self.collection, self.queries,
                                       answers, self.sizing.brute_sample)


class MutableReadWrite(EngineWorkload):
    """Hot-set reads beside inserts and deletes, then a compaction."""

    name = "mutable_read_write"

    def start(self) -> None:
        with timed(self.timings, "setup.index_build_s"):
            self.index = MutableDesksIndex(self.collection)
        self.engine = QueryEngine(self.index, num_workers=SHARD_WORKERS,
                                  cache_capacity=CACHE_CAPACITY)

    def prepare(self) -> None:
        self._paper_ops(self.sizing.hot_size)
        rng = random.Random(self.seed)
        # The script is fixed before the run: ("r", query index),
        # ("i", x, y, keywords) or ("d",), which deletes the oldest POI
        # inserted since the last compaction (ids do not survive one).
        self.script: List[Tuple] = []
        lines = list(self.statements)
        deletable = 0
        for position in range(self.sizing.mutable_ops):
            draw = rng.random()
            if draw >= WRITE_SHARE:
                self.script.append(("r", position % len(self.queries)))
            elif draw < WRITE_SHARE / 2 and deletable:
                self.script.append(("d",))
                deletable -= 1
            else:
                self.script.append(("i", *nearby_copy(self.collection, rng)))
                deletable += 1
            lines.append(repr(self.script[-1][:3]))
        self.stream = [op[1] for op in self.script if op[0] == "r"]
        self.checks = rng.sample(range(len(self.queries)),
                                 min(COMPACTION_CHECKS, len(self.queries)))
        self.workload_hash = digest(self.name, lines)
        self.checked = self.wrong = self.cycles_run = 0
        self.cycle()                # warm-up, untimed

    def _check(self, indexes: Sequence[int]) -> None:
        """Reads against the exhaustive scan over what is live now."""
        live = self.index.live_pois()
        for index in indexes:
            query = self.queries[index]
            got = self.engine.execute(query).result.entries
            self.checked += 1
            self.wrong += got != brute_force_search(live, query).entries

    def cycle(self) -> Cycle:
        clock = time.perf_counter
        execute, index = self._traced(self.engine.execute), self.index
        queries = self.queries
        latencies: List[float] = []
        inserted: List[int] = []
        failed = 0
        # The script repeats, the points it inserts must not: two POIs
        # at one spot tie at every distance, and at the k-th place the
        # searcher and the exhaustive scan break that tie differently.
        self.cycles_run += 1
        shift = 0.01 * self.cycles_run
        begin = clock()
        for op in self.script:
            if op[0] == "r":
                start = clock()
                response = execute(queries[op[1]])
                latencies.append(clock() - start)
                failed += response.partial or response.degraded
            elif op[0] == "i":
                inserted.append(index.insert(op[1] + shift, op[2], op[3]))
            else:
                failed += not index.delete(inserted.pop(0))
        seconds = clock() - begin
        self._check(self.checks)    # clock stopped
        begin = clock()
        index.compact()
        return Cycle(len(self.script) + 1, seconds + clock() - begin,
                     latencies, failed)

    def verify(self) -> Tuple[int, int]:
        self._check(range(len(self.queries)))
        return self.checked, self.wrong


WORKLOADS = {cls.name: cls for cls in (
    DqlClusterCold, DqlClusterHot, CorePaperMix, KernelScanBatch,
    MutableReadWrite)}


# -- the measuring loop ---------------------------------------------------------


def set_up(workload: Workload, repeats: int) -> List[Tuple[float, float]]:
    """Set up ``repeats`` times, keeping the last; the wall seconds of
    each, and the calibration loop's seconds around it."""
    runs: List[Tuple[float, float]] = []
    for attempt in range(repeats):
        if attempt:
            workload.stop()
            workload.collection = None
            gc.collect()
        before = calibrate()
        seconds = workload.setup()
        runs.append((seconds, (before + calibrate()) / 2.0))
    return runs


#: Iterations of the calibration loop, and the seconds it takes on an
#: undisturbed core of the sizing sandbox: end-to-end times are reported
#: as on a machine where it takes exactly this long (:func:`summarize`).
CALIBRATION_LOOPS = 300_000
REFERENCE_CALIBRATION = 0.020


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOPS):
        total += value * value % 7
    return time.perf_counter() - start


def measure(workload: Workload, seconds: float) -> List[Cycle]:
    """Whole cycles until ``seconds`` of timed work have been done."""
    cycles: List[Cycle] = []
    spent = 0.0
    before = calibrate()
    while spent < seconds or len(cycles) < workload.sizing.min_cycles:
        cycle = workload.cycle()
        after = calibrate()
        cycle.calibration = (before + after) / 2.0
        before = after
        cycles.append(cycle)
        spent += cycle.seconds
    return cycles


def summarize(cycles: Sequence[Cycle], calibrated: bool = True,
              ) -> Dict[str, float]:
    """Medians over the cycles of per-cycle throughput and percentiles,
    in time calibrated to the machine's speed around each cycle.

    The sandbox this was sized on runs ~35 % slower for seconds, and now
    and then for minutes, at a time (a fixed loop timed back to back
    shows two speeds; CPU time tracks wall time, so it is the core that
    slows, not the scheduler).  So every cycle's times are divided by
    how much slower than :data:`REFERENCE_CALIBRATION` the calibration
    loop ran around it.  Over 30 runs per workload, throughput and
    latency moved with the loop's time to the power 0.9-1.2 (cluster and
    kernel workloads included), and dividing it out halved their
    run-to-run deviation.  The median over many short cycles then drops
    what calibration cannot see: a disturbance that starts or ends
    inside a cycle, and the stretches in which the two worker threads of
    ``kernel_scan_batch`` really get two cores (nearly 2x, seldom).

    ``calibrated=False`` gives the same statistics of the raw times.
    """
    slowdown = [cycle.calibration / REFERENCE_CALIBRATION if calibrated
                else 1.0 for cycle in cycles]
    pooled = [t for cycle in cycles for t in cycle.latencies]
    return {
        "throughput_ops_s": statistics.median(
            cycle.ops / cycle.seconds * slow
            for cycle, slow in zip(cycles, slowdown)),
        "latency_p50_ms": 1e3 * statistics.median(
            percentile(cycle.latencies, 50) / slow
            for cycle, slow in zip(cycles, slowdown)),
        "latency_p95_ms": 1e3 * statistics.median(
            percentile(cycle.latencies, 95) / slow
            for cycle, slow in zip(cycles, slowdown)),
        "client.latency_p99_ms": 1e3 * percentile(pooled, 99),
    }


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed high-water resident set of this process and ``pids``."""
    total_kb = 0
    for pid in ["self", *pids]:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0

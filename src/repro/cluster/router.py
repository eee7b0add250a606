"""Scatter-gather query routing with direction-aware shard pruning.

:class:`ShardRouter` is the cluster's front door.  It partitions a
collection into ``S`` independent :class:`~repro.core.DesksIndex` shards
(via :mod:`repro.cluster.partition`) and answers a query in four steps:

1. **Prune** — discard shards whose keyword document frequencies rule out
   any match, then shards whose MBR does not intersect the query sector
   (:func:`~repro.geometry.sector_intersects_mbr`).  Both tests are exact
   as negative tests, so pruning never changes answers — the cluster-level
   analogue of the paper's Lemmas 2-4.
2. **Order** — rank survivors by ``MINDIST(q, shard_mbr)`` ascending with
   estimated result cardinality (per-shard
   :class:`~repro.core.CardinalityEstimator`) as the tie-break: nearer
   shards bound the k-th distance sooner, and denser shards tighten it
   faster.
3. **Scatter** — ask survivors in waves, nearest first, and never ask a
   farther shard before a bound exists: the first wave is the leading
   ``MINDIST`` tie group — normally the one shard whose MBR holds ``q``;
   under the ``hash`` partitioner, whose MBRs all span the extent, the
   first ``max_fanout`` shards — and every wave ends at the next
   ``max_fanout``-th survivor.  The calling thread runs one call of each
   wave itself and hands only the rest to the router's ``desks-shard``
   pool, so a one-shard wave costs no thread hand-off; either way the
   thread runs the shard's replica engine itself, and each shard answers
   with its local top-k (replication and failover live in
   :mod:`repro.cluster.replica`).
4. **Gather** — merge local top-k streams into the global top-k, mapping
   local ids back to global ids.  Between waves, any remaining shard whose
   MINDIST cannot beat the current global k-th bound is *skipped* — the
   cluster-level mirror of Lemma 1's early termination.  A skipped shard
   could not have changed the merge, so the shards asked are always a
   subset of what fixed waves of ``max_fanout`` would have asked.

Exactness: answers equal the unsharded index's, bitwise, including
tie-breaking — distances are computed from the same coordinates, and each
shard's local id order equals global id order by construction (see
``partition.py``) — except when a whole shard (every replica) fails, in
which case the response is flagged degraded (``partial=True``) and the
failed shard ids are reported.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core import (
    CardinalityEstimator,
    DesksIndex,
    DirectionalQuery,
    MatchMode,
    PersistenceError,
    QueryResult,
    ResultEntry,
    load_sharded,
    save_sharded,
)
from ..datasets import POICollection
from ..geometry import sector_intersects_mbr
from ..service import Deadline, MetricsRegistry
from ..trace import current_tracer, traced
from .partition import ClusterLayout, ShardSpec, build_layout, shard_collection
from .replica import (
    FailoverSet,
    FaultInjector,
    ReplicaSet,
    ShardUnavailableError,
)
from .stats import ClusterStats


class Shard:
    """One shard: spec, data, estimator, and its serving transport.

    ``transport`` is the shard's
    :class:`~repro.cluster.replica.FailoverSet` — a
    :class:`~repro.cluster.replica.ReplicaSet` of in-process engines, or a
    :class:`~repro.net.RemoteReplicaSet` of shard server processes.
    ``index`` is the local index when the shard's data lives in this
    process, and ``None`` for remote shards (the router then routes on
    the spec alone and cannot :meth:`ShardRouter.save`).
    """

    def __init__(self, spec: ShardSpec, collection: POICollection,
                 index: Optional[DesksIndex],
                 transport: FailoverSet) -> None:
        self.spec = spec
        self.collection = collection
        self.index = index
        self.transport = transport
        self.estimator = CardinalityEstimator(collection)

    def globalize(self, result: QueryResult) -> List[ResultEntry]:
        """Map a shard-local result's POI ids back to global ids."""
        ids = self.spec.global_ids
        return [ResultEntry(ids[entry.poi_id], entry.distance)
                for entry in result.entries]


@dataclass
class ClusterResponse:
    """One routed query: the merged answer plus the routing decisions."""

    query: DirectionalQuery
    result: QueryResult
    shards_total: int
    shards_pruned: int              # sector (direction + distance) pruning
    shards_keyword_pruned: int      # document-frequency pruning
    shards_dispatched: int
    shards_skipped: int             # early termination (k-th bound)
    failed_shards: List[int] = field(default_factory=list)
    #: Shards that currently hold >= 1 corruption-quarantined replica.
    #: The answer may still be complete (failover found intact replicas),
    #: but the operator signal must travel with the response.
    quarantined_shards: List[int] = field(default_factory=list)
    replica_retries: int = 0
    latency_seconds: float = 0.0
    #: The query's deadline expired before every wave was dispatched.
    deadline_expired: bool = False

    @property
    def degraded(self) -> bool:
        """True when at least one whole shard failed to answer."""
        return bool(self.failed_shards)

    @property
    def unavailable_shards(self) -> Tuple[int, ...]:
        """Lost shards as a sorted tuple: the typed brownout signal.

        The frontend forwards this verbatim inside the wire response
        (see :func:`repro.net.protocol.encode_search_response`) so a
        remote client can tell *which* shards a partial answer is
        missing, not merely that something was lost.
        """
        return tuple(sorted(self.failed_shards))

    @property
    def pruning_rate(self) -> float:
        """Fraction of shards ruled out before dispatch (all causes)."""
        avoided = (self.shards_pruned + self.shards_keyword_pruned
                   + self.shards_skipped)
        return avoided / self.shards_total if self.shards_total else 0.0


class ShardRouter:
    """A sharded DESKS deployment behind a single ``execute()`` call."""

    def __init__(self, collection: POICollection,
                 num_shards: int = 4,
                 partitioner: str = "grid",
                 replication: int = 1,
                 num_workers: int = 8,
                 max_fanout: int = 4,
                 num_bands: Optional[int] = None,
                 num_wedges: Optional[int] = None,
                 fault_injector: Optional[FaultInjector] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 ) -> None:
        def local_pairs() -> Iterable[Tuple[ShardSpec, DesksIndex]]:
            for spec in build_layout(collection, num_shards,
                                     partitioner).shards:
                sub = shard_collection(collection, spec)
                yield spec, DesksIndex(sub, num_bands, num_wedges)

        self._init(
            lambda: self._replicate(local_pairs(), replication,
                                    fault_injector),
            partitioner, num_workers, max_fanout, metrics)

    def _init(self, build_shards: Callable[[], List[Shard]],
              partitioner: str, num_workers: int, max_fanout: int,
              metrics: Optional[MetricsRegistry]) -> None:
        """The one initialiser behind every constructor.

        ``build_shards()`` is called once the metrics registry exists
        (in-process replica sets record into it); everything derived from
        the shard list is computed here, once.
        """
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1: {num_workers}")
        if max_fanout < 1:
            raise ValueError(f"max_fanout must be >= 1: {max_fanout}")
        self.max_fanout = max_fanout
        self.stats = ClusterStats(metrics)
        self.shards: List[Shard] = build_shards()
        self._executor = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="desks-shard")
        specs = tuple(shard.spec for shard in self.shards)
        self.layout = ClusterLayout(
            partitioner, sum(len(spec) for spec in specs), specs)
        self.num_shards = len(self.shards)
        self.replication = max(len(shard.transport) for shard in self.shards)

    def _replicate(self, pairs: Iterable[Tuple[ShardSpec, DesksIndex]],
                   replication: int,
                   fault_injector: Optional[FaultInjector]) -> List[Shard]:
        """In-process shards: a :class:`ReplicaSet` per ``(spec, index)``."""
        return [Shard(spec, index.collection, index, ReplicaSet(
                    spec.shard_id, index, replication,
                    fault_injector=fault_injector,
                    metrics=self.stats.registry))
                for spec, index in pairs]

    @classmethod
    def from_transports(cls,
                        shards: Sequence[Tuple[ShardSpec, POICollection,
                                               FailoverSet]],
                        partitioner: str = "remote",
                        num_workers: int = 8,
                        max_fanout: int = 4,
                        metrics: Optional[MetricsRegistry] = None,
                        ) -> "ShardRouter":
        """A router over pre-existing transports (e.g. remote servers).

        ``shards`` pairs each :class:`~repro.cluster.partition.ShardSpec`
        and its collection (for routing statistics — MBR pruning and
        cardinality estimation need the data's *shape*, not its index)
        with the transport that executes queries against it.  Scatter-
        gather, pruning, ordering, and merge behave identically to a
        locally-built router; only the per-shard call crosses the
        transport.
        """
        if not shards:
            raise ValueError("from_transports needs >= 1 shard")
        router = cls.__new__(cls)
        router._init(
            lambda: [Shard(spec, collection, None, transport)
                     for spec, collection, transport in shards],
            partitioner, num_workers, max_fanout, metrics)
        return router

    # -- routing ------------------------------------------------------------

    def plan(self, query: DirectionalQuery,
             ) -> Tuple[List[Tuple[float, Shard]], int, int]:
        """Prune and order shards for one query.

        Returns ``(survivors, keyword_pruned, sector_pruned)`` where
        ``survivors`` is ``(MINDIST, shard)`` sorted by (MINDIST,
        -estimated cardinality, shard id).
        """
        require_all = query.match_mode is MatchMode.ALL
        keyword_pruned = sector_pruned = 0
        ranked: List[Tuple[float, float, int, Shard]] = []
        for shard in self.shards:
            spec = shard.spec
            if not spec.may_match_keywords(query.keywords, require_all):
                keyword_pruned += 1
                continue
            if not sector_intersects_mbr(query.location, query.interval,
                                         spec.mbr):
                sector_pruned += 1
                continue
            mindist = spec.mbr.min_distance_to_point(query.location)
            estimate = shard.estimator.estimate_matching_pois(query)
            ranked.append((mindist, -estimate, spec.shard_id, shard))
        ranked.sort(key=lambda item: item[:3])
        return ([(mindist, shard) for mindist, _, _, shard in ranked],
                keyword_pruned, sector_pruned)

    def execute(self, query: DirectionalQuery,
                timeout: Optional[float] = None) -> ClusterResponse:
        """Scatter ``query`` to the relevant shards and gather the top-k.

        ``timeout`` becomes one :class:`~repro.service.Deadline` spanning
        the whole scatter-gather: each wave's shard calls receive only the
        *remaining* budget, and once the budget is gone, waves stop
        dispatching — the shards not yet reached are counted as skipped
        and the answer is flagged partial.

        With a :class:`~repro.trace.Tracer` active in the calling context
        the scatter-gather records a ``router.execute`` span tree:
        ``router.plan`` (pruning decisions), one ``router.wave`` per
        dispatch wave, and one ``router.shard`` per shard call — on this
        thread or a pool thread, parented under its wave either way, with
        the wait between dispatch and start recorded.
        """
        tracer = current_tracer()
        if tracer is None:
            return self._execute_impl(query, timeout, None, None)
        with tracer.span("router.execute") as span:
            return self._execute_impl(query, timeout, tracer, span)

    def _execute_impl(self, query: DirectionalQuery,
                      timeout: Optional[float], tracer, span,
                      ) -> ClusterResponse:
        """The untraced scatter-gather body (``execute`` wraps it)."""
        started = time.monotonic()
        deadline = Deadline.from_timeout(timeout)
        survivors, keyword_pruned, sector_pruned = self.plan(query)
        if tracer is not None:
            tracer.record(
                "router.plan", seconds=time.monotonic() - started,
                parent=span, shards_total=self.num_shards,
                shards_keyword_pruned=keyword_pruned,
                shards_sector_pruned=sector_pruned,
                survivors=len(survivors))

        merged: List[ResultEntry] = []
        kth_bound = float("inf")
        failed: List[int] = []
        retries = 0
        dispatched = skipped = 0
        partial = False
        deadline_expired = False
        position = 0
        wave_number = 0
        while position < len(survivors):
            if deadline.expired():
                # Budget exhausted between waves: everything still queued
                # is abandoned, and the merged best-so-far ships partial.
                deadline_expired = True
                partial = True
                skipped += len(survivors) - position
                break
            shard_timeout = (None if deadline.is_unbounded
                             else deadline.remaining())
            wave_cm = (tracer.span("router.wave", wave=wave_number)
                       if tracer is not None else nullcontext())
            with wave_cm as wave_span:
                calls: List[Tuple[Shard, Callable]] = []
                wave_skipped = 0
                while position < len(survivors):
                    mindist, shard = survivors[position]
                    position += 1
                    # Early termination (cluster-level Lemma 1): survivors
                    # are MINDIST-sorted, but only this shard is decided
                    # here — later shards may still be reached after the
                    # next wave re-tightens the bound.  Strict > keeps
                    # distance ties eligible so global tie-breaking
                    # matches the unsharded index.
                    if mindist > kth_bound:
                        skipped += 1
                        wave_skipped += 1
                        continue
                    call = shard.transport.execute
                    if tracer is not None:
                        call = traced("router.shard", call,
                                      record_queue_wait=True,
                                      shard_id=shard.spec.shard_id,
                                      mindist=mindist)
                    calls.append((shard, call))
                    # A wave ends at every max_fanout-th survivor; wave 0
                    # also ends with the leading MINDIST tie group, so a
                    # farther shard is never asked before a bound exists.
                    if position % self.max_fanout == 0 or (
                            wave_number == 0 and position < len(survivors)
                            and survivors[position][0] > mindist):
                        break
                dispatched += len(calls)
                # The calling thread is a worker too: it runs the nearest
                # call itself once the rest are on the pool (so they
                # overlap it), and a one-shard wave never leaves it.
                answers = [(shard, functools.partial(call, query,
                                                     shard_timeout))
                           for shard, call in calls[:1]]
                answers += [(shard, self._executor.submit(
                                call, query, shard_timeout).result)
                            for shard, call in calls[1:]]
                for shard, answer in answers:
                    try:
                        response, attempts = answer()
                    except ShardUnavailableError:
                        failed.append(shard.spec.shard_id)
                        retries += len(shard.transport) - 1
                        partial = True
                        continue
                    retries += attempts
                    partial = partial or response.result.partial
                    merged.extend(shard.globalize(response.result))
                merged.sort()
                del merged[query.k:]
                if len(merged) == query.k:
                    kth_bound = merged[-1].distance
                if wave_span is not None:
                    wave_span.annotate(
                        shards_dispatched=len(calls),
                        shards_skipped=wave_skipped,
                        merged_results=len(merged),
                        kth_bound=kth_bound)
            wave_number += 1

        quarantined = [shard.spec.shard_id for shard in self.shards
                       if shard.transport.quarantined_replicas()]
        response = ClusterResponse(
            query=query,
            result=QueryResult(merged, partial=partial),
            shards_total=self.num_shards,
            shards_pruned=sector_pruned,
            shards_keyword_pruned=keyword_pruned,
            shards_dispatched=dispatched,
            shards_skipped=skipped,
            failed_shards=failed,
            quarantined_shards=quarantined,
            replica_retries=retries,
            latency_seconds=time.monotonic() - started,
            deadline_expired=deadline_expired,
        )
        if span is not None:
            span.annotate(
                results=len(response.result),
                partial=response.result.partial,
                shards_total=self.num_shards,
                shards_keyword_pruned=keyword_pruned,
                shards_sector_pruned=sector_pruned,
                shards_dispatched=dispatched,
                shards_skipped=skipped,
                waves=wave_number,
                failed_shards=len(failed),
                replica_retries=retries,
                deadline_expired=deadline_expired)
        self.stats.record(response)
        return response

    def search(self, query: DirectionalQuery,
               timeout: Optional[float] = None) -> QueryResult:
        """The merged answer alone (drop the routing diagnostics)."""
        return self.execute(query, timeout).result

    # -- introspection ---------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The cluster-level metrics registry."""
        return self.stats.registry

    def metrics_snapshot(self) -> Dict[str, object]:
        """Cluster + per-shard/replica metrics as one JSON-ready dict."""
        return self.stats.aggregate(self.shards)

    def describe(self) -> str:
        """One line per shard: population, MBR, replica health."""
        lines = [
            f"{self.num_shards} shards ({self.layout.partitioner}), "
            f"replication={self.replication}"
        ]
        for shard in self.shards:
            spec = shard.spec
            healthy = sum(1 for r in shard.transport.replicas if r.healthy)
            lines.append(
                f"  shard {spec.shard_id}: {len(spec):6d} POIs  "
                f"mbr=({spec.mbr.min_x:.0f},{spec.mbr.min_y:.0f})-"
                f"({spec.mbr.max_x:.0f},{spec.mbr.max_y:.0f})  "
                f"replicas={healthy}/{len(shard.transport)} healthy")
        return "\n".join(lines)

    # -- persistence ------------------------------------------------------------

    def save(self, directory: str) -> None:
        """Persist every shard index plus the cluster manifest.

        Only routers holding their shards' indexes locally can save;
        a remote router (built by :meth:`from_transports`) routes over
        data owned by server processes and refuses.
        """
        missing = [shard.spec.shard_id for shard in self.shards
                   if shard.index is None]
        if missing:
            raise ValueError(
                f"cannot save: shards {missing} are remote (their indexes "
                "live in server processes; save from the deployment that "
                "built them)")
        save_sharded([shard.index for shard in self.shards], directory,
                     meta=self.layout.to_meta())

    @classmethod
    def load(cls, directory: str,
             replication: int = 1,
             num_workers: int = 8,
             max_fanout: int = 4,
             fault_injector: Optional[FaultInjector] = None,
             metrics: Optional[MetricsRegistry] = None,
             ) -> "ShardRouter":
        """Rebuild a router from :meth:`save` output.

        Shard indexes are loaded (linear passes, no global sorts) and
        routing stats (MBRs, document frequencies) are recomputed from the
        shard collections.  The layout and index shape come from the
        directory; only the serving options are the caller's.
        """
        indexes, meta = load_sharded(directory)
        specs = specs_from_manifest(
            directory, meta, [index.collection for index in indexes])
        router = cls.__new__(cls)
        router._init(
            lambda: router._replicate(zip(specs, indexes), replication,
                                      fault_injector),
            meta.get("partitioner", "unknown"), num_workers, max_fanout,
            metrics)
        return router

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close every shard transport and the shared pool."""
        for shard in self.shards:
            shard.transport.close()
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def specs_from_manifest(directory: str, meta: dict,
                        collections: Sequence[POICollection],
                        ) -> List[ShardSpec]:
    """Every shard's routing spec from a saved deployment's ``meta``.

    MBR and keyword document frequencies derive from ``collections`` (the
    shards' POIs in order), so only identity (shard id + global id list)
    comes from the manifest.  Shared by :meth:`ShardRouter.load` and
    :func:`repro.net.connect_router`, which never loads a shard index.
    """
    id_lists = meta.get("shard_global_ids")
    if id_lists is None:
        raise PersistenceError(
            f"{directory} has no usable cluster layout metadata")
    specs = []
    for shard_id, (ids, collection) in enumerate(zip(id_lists, collections)):
        if len(ids) != len(collection):
            raise PersistenceError(
                f"shard {shard_id} holds {len(collection)} POIs but the "
                f"manifest lists {len(ids)} ids")
        df: Counter = Counter()
        for poi in collection:
            df.update(poi.keywords)
        specs.append(ShardSpec(shard_id, tuple(ids), collection.mbr,
                               dict(df)))
    return specs

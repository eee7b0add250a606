"""Chaos harness: randomized crash and corruption trials.

The durability layer's promise is behavioural, not structural: after a
crash at *any* instant, recovery must produce an index that answers
queries **byte-for-byte identically** to an instance that applied the same
durable prefix of operations and never crashed.  This module turns that
promise into repeatable experiments:

* :func:`build_script` records a concrete operation script (inserts with
  keywords including non-ASCII terms, deletes of then-live ids, checkpoint
  markers) so the same workload can be applied, crashed, and replayed on a
  twin deterministically;
* :func:`run_crash_trials` runs the script against a
  :class:`~repro.durability.DurableMutableIndex` with a countdown
  failpoint that raises :class:`SimulatedCrash` at a
  seed-chosen WAL stage, recovers, and compares the recovered index
  against a freshly built twin on probe queries and the full live-POI set;
* :class:`CorruptionInjector` flips bits, truncates pages and tears
  writes in the physical bytes beneath a
  :class:`~repro.storage.ChecksummedPageStore` (and in files on disk);
  :func:`run_corruption_trials` drives it against a checksummed disk
  index and asserts every damaged read is *surfaced* (degraded response
  / scrub hit), never silently wrong;
* :func:`measure_wal_overhead` times the same mutation workload with and
  without the WAL in front, for the benchmark report.

Everything is deterministic under a seed; the tier-1 suite runs a small
number of trials and the chaos benchmark runs hundreds.  Only tests and
benchmarks drive faults, so this module lives beside the benchmarks and
no ``repro`` module imports it: benchmark drivers import it as
``chaos_durability``, tests as ``benchmarks.chaos_durability``.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core import DesksIndex, DirectionalQuery, MutableDesksIndex
from repro.datasets import POICollection
from repro.durability import DurableMutableIndex, is_durable_dir
from repro.service import QueryEngine
from repro.storage import ChecksummedPageStore
from repro.storage.pages import _FRAME_STAMP

#: Deliberately multilingual so crash/recovery exercises the UTF-8 paths
#: of the WAL op codec and the snapshot CSV round-trip.
CHAOS_TERMS = (
    "cafe", "café", "crêperie", "über", "łódź", "北京烤鸭", "書店",
    "مقهى", "пекарня", "θέατρο", "restaurant", "fuel", "museum",
)

OP_INSERT = "insert"
OP_DELETE = "delete"
OP_CHECKPOINT = "checkpoint"


class SimulatedCrash(RuntimeError):
    """Raised by a failpoint to model a process crash at that instant."""


class CountdownFailpoint:
    """Raises :class:`SimulatedCrash` on the n-th failpoint firing.

    With ``countdown=None`` it never crashes and just counts — one
    uncrashed reference run measures how many firings a full workload
    produces, which bounds the crash points later trials draw from.
    """

    def __init__(self, countdown: Optional[int] = None) -> None:
        self.countdown = countdown
        self.fired = 0
        self.crashed_at: Optional[str] = None

    def __call__(self, stage: str) -> None:
        self.fired += 1
        if self.countdown is not None and self.fired >= self.countdown:
            self.crashed_at = stage
            raise SimulatedCrash(f"failpoint {stage} (firing {self.fired})")


# -- workload scripts --------------------------------------------------------


def build_script(base: POICollection, num_ops: int, seed: int,
                 checkpoint_prob: float = 0.04,
                 delete_prob: float = 0.35,
                 rebuild_threshold: float = 0.25) -> List[Tuple]:
    """Record a concrete op script against a simulation of the index.

    Deletes must name ids that are live *at that point of the workload*
    (rebuilds re-densify ids), so the script is produced by actually
    running the ops on a plain :class:`MutableDesksIndex` and recording
    the concrete arguments used.
    """
    rng = random.Random(seed)
    sim = MutableDesksIndex(base, rebuild_threshold=rebuild_threshold)
    mbr = base.mbr
    script: List[Tuple] = []
    applied = 0
    while applied < num_ops:
        roll = rng.random()
        if roll < checkpoint_prob and applied > 0:
            script.append((OP_CHECKPOINT,))
            sim.compact()
            continue
        if roll < checkpoint_prob + delete_prob and len(sim) > 1:
            victim = rng.choice(sim.live_pois()).poi_id
            script.append((OP_DELETE, victim))
            sim.delete(victim)
        else:
            x = rng.uniform(mbr.min_x, mbr.max_x)
            y = rng.uniform(mbr.min_y, mbr.max_y)
            terms = tuple(sorted(rng.sample(CHAOS_TERMS,
                                            rng.randint(1, 4))))
            script.append((OP_INSERT, x, y, terms))
            sim.insert(x, y, terms)
        applied += 1
    return script


def apply_script(index, script: Sequence[Tuple],
                 durable_checkpoints: bool) -> None:
    """Apply a script; checkpoint markers call ``checkpoint()`` on durable
    indexes and ``compact()`` on plain ones (same id evolution)."""
    for entry in script:
        if entry[0] == OP_CHECKPOINT:
            if durable_checkpoints:
                index.checkpoint()
            else:
                index.compact()
        elif entry[0] == OP_INSERT:
            index.insert(entry[1], entry[2], entry[3])
        else:
            index.delete(entry[1])


def build_twin(base: POICollection, script: Sequence[Tuple],
               target_ops: int, snapshot_ops: int,
               rebuild_threshold: float = 0.25) -> MutableDesksIndex:
    """The never-crashed reference for one trial: the durable prefix.

    Applies the first ``target_ops`` mutations; a checkpoint marker
    compacts only when its position is covered by the recovered snapshot
    (``<= snapshot_ops``) — a checkpoint whose snapshot swap the crash
    pre-empted never durably re-densified ids, so the twin must not
    either.
    """
    twin = MutableDesksIndex(base, rebuild_threshold=rebuild_threshold)
    position = 0
    for entry in script:
        if entry[0] == OP_CHECKPOINT:
            if position <= snapshot_ops:
                twin.compact()
            continue
        if position >= target_ops:
            break
        if entry[0] == OP_INSERT:
            twin.insert(entry[1], entry[2], entry[3])
        else:
            twin.delete(entry[1])
        position += 1
    return twin


# -- probes ------------------------------------------------------------------


def probe_queries(base: POICollection, count: int, seed: int,
                  k: int = 8) -> List[DirectionalQuery]:
    """Deterministic probe set mixing directions, keyword counts, modes."""
    rng = random.Random(seed)
    mbr = base.mbr
    queries = []
    for _ in range(count):
        x = rng.uniform(mbr.min_x, mbr.max_x)
        y = rng.uniform(mbr.min_y, mbr.max_y)
        alpha = rng.uniform(0.0, 5.0)
        beta = alpha + rng.uniform(0.3, 4.0)
        terms = rng.sample(CHAOS_TERMS, rng.randint(1, 2))
        queries.append(DirectionalQuery.make(x, y, alpha, beta, terms, k))
    return queries


def answer_fingerprint(index, queries: Sequence[DirectionalQuery]
                       ) -> List[Tuple]:
    """Exact per-query answers: ``[(poi_id, distance), ...]`` per probe.

    Tuple equality over these is the byte-for-byte criterion — ids are
    ints and distances come out of the identical float computation on
    both sides, so any divergence in state shows up here.
    """
    fingerprint = []
    for query in queries:
        result = index.search(query)
        fingerprint.append(tuple((e.poi_id, e.distance)
                                 for e in result.entries))
    return fingerprint


def live_fingerprint(index) -> List[Tuple]:
    """Full visible state, id-free: sorted ``(x, y, keywords)`` rows."""
    return sorted((p.location.x, p.location.y, tuple(sorted(p.keywords)))
                  for p in index.live_pois())


# -- crash trials ------------------------------------------------------------


@dataclass
class CrashTrialResult:
    """Outcome of one kill-and-recover experiment."""

    trial: int
    crash_countdown: int
    crashed_at: Optional[str]        # None: workload completed uncrashed
    recovered_ops: int
    snapshot_ops: int
    identical: bool
    mismatches: List[str] = field(default_factory=list)


@dataclass
class ChaosReport:
    """Aggregate over a batch of crash trials."""

    trials: List[CrashTrialResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of crash trials run."""
        return len(self.trials)

    @property
    def identical(self) -> int:
        """Trials whose recovery matched the never-crashed twin."""
        return sum(1 for t in self.trials if t.identical)

    @property
    def all_identical(self) -> bool:
        """True when every trial recovered byte-identically."""
        return self.identical == self.total

    def failures(self) -> List[CrashTrialResult]:
        """The trials that diverged after recovery."""
        return [t for t in self.trials if not t.identical]

    def summary(self) -> str:
        """One human-readable line for a chaos report."""
        return (f"{self.identical}/{self.total} trials recovered "
                f"byte-identically")


def run_crash_trials(base: POICollection, script: Sequence[Tuple],
                     num_trials: int, seed: int, workdir: str,
                     probes: int = 6,
                     sync: str = "batch",
                     rebuild_threshold: float = 0.25) -> ChaosReport:
    """Kill the workload at ``num_trials`` seed-chosen WAL stages; assert
    each recovery answers identically to its never-crashed twin."""
    queries = probe_queries(base, probes, seed ^ 0x9E3779B9)
    # Reference run: counts failpoint firings so trials can target any
    # stage of the whole workload, including checkpoint internals.
    counter = CountdownFailpoint(None)
    ref_dir = os.path.join(workdir, "reference")
    reference = DurableMutableIndex.create(
        base, ref_dir, rebuild_threshold=rebuild_threshold, sync=sync,
        failpoint=counter)
    apply_script(reference, script, durable_checkpoints=True)
    reference.close()
    total_firings = max(counter.fired, 1)

    rng = random.Random(seed)
    report = ChaosReport()
    for trial in range(num_trials):
        countdown = rng.randint(1, total_firings)
        trial_dir = os.path.join(workdir, f"trial{trial}")
        failpoint = CountdownFailpoint(countdown)
        index = None
        try:
            index = DurableMutableIndex.create(
                base, trial_dir, rebuild_threshold=rebuild_threshold,
                sync=sync, failpoint=failpoint)
            apply_script(index, script, durable_checkpoints=True)
        except SimulatedCrash:
            pass
        finally:
            if index is not None:
                index.abandon()

        if is_durable_dir(trial_dir):
            recovered = DurableMutableIndex.recover(trial_dir, sync=sync)
        else:
            # The crash pre-empted create() itself (durable.json — the
            # commit record of creation — lands last); the documented
            # remedy is to simply re-run create().
            recovered = DurableMutableIndex.create(
                base, trial_dir, rebuild_threshold=rebuild_threshold,
                sync=sync)
        twin = build_twin(base, script, recovered.op_seq,
                          recovered.snapshot_op_seq, rebuild_threshold)
        mismatches = []
        if live_fingerprint(recovered) != live_fingerprint(twin):
            mismatches.append("live POI set diverged")
        if (answer_fingerprint(recovered, queries)
                != answer_fingerprint(twin, queries)):
            mismatches.append("probe answers diverged")
        scrub = recovered.scrub()
        if not scrub.clean:
            mismatches.append(f"post-recovery scrub dirty: "
                              f"{scrub.summary()}")
        report.trials.append(CrashTrialResult(
            trial=trial, crash_countdown=countdown,
            crashed_at=failpoint.crashed_at,
            recovered_ops=recovered.op_seq,
            snapshot_ops=recovered.snapshot_op_seq,
            identical=not mismatches, mismatches=mismatches))
        recovered.close()
        shutil.rmtree(trial_dir, ignore_errors=True)
    return report


# -- corruption injection ----------------------------------------------------

#: Supported page-corruption kinds, in the order the injector draws them.
PAGE_CORRUPTION_KINDS = ("flip", "truncate", "tear")


@dataclass(frozen=True)
class Corruption:
    """One injected corruption, for replay and assertions."""

    kind: str
    page_id: int
    detail: str


class CorruptionInjector:
    """Seeded bit flips, page truncations, and torn writes.

    All draws come from one private :class:`random.Random`, so a given
    seed produces the same corruption sequence regardless of wall clock or
    interpreter hashing — the property the chaos harness relies on to
    replay a failure.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.log: List[Corruption] = []

    # -- page-level ----------------------------------------------------------

    def corrupt_page(self, store: ChecksummedPageStore,
                     page_id: Optional[int] = None,
                     kind: Optional[str] = None) -> Corruption:
        """Corrupt one (random) page of ``store``'s physical bytes."""
        if store.num_pages == 0:
            raise ValueError("store has no pages to corrupt")
        if page_id is None:
            page_id = self._rng.randrange(store.num_pages)
        if kind is None:
            kind = self._rng.choice(PAGE_CORRUPTION_KINDS)
        inner = store.inner
        raw = bytearray(inner.read_page(page_id))
        if kind == "flip":
            bit = self._rng.randrange(len(raw) * 8)
            raw[bit // 8] ^= 1 << (bit % 8)
            detail = f"bit {bit}"
        elif kind == "truncate":
            keep = self._rng.randrange(1, len(raw))
            raw[keep:] = bytes(len(raw) - keep)
            detail = f"kept {keep} bytes"
        elif kind == "tear":
            # Header and trailing stamp disagree: the classic half-flushed
            # page.  +1 mod 2^32 guarantees a mismatch without relying on
            # the checksum to catch it.
            stamp_at = len(raw) - _FRAME_STAMP.size
            (stamp,) = _FRAME_STAMP.unpack_from(raw, stamp_at)
            _FRAME_STAMP.pack_into(raw, stamp_at, (stamp + 1) & 0xFFFFFFFF)
            detail = f"stamp {stamp} -> {(stamp + 1) & 0xFFFFFFFF}"
        else:
            raise ValueError(f"unknown corruption kind {kind!r}")
        inner.write_page(page_id, bytes(raw))
        corruption = Corruption(kind, page_id, detail)
        self.log.append(corruption)
        return corruption

    # -- file-level ----------------------------------------------------------

    def corrupt_file(self, path: str,
                     offset: Optional[int] = None) -> Corruption:
        """Flip one bit of a file on disk (saved-index blobs, WAL tails)."""
        size = os.path.getsize(path)
        if size == 0:
            raise ValueError(f"cannot corrupt empty file {path}")
        if offset is None:
            offset = self._rng.randrange(size)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ (1 << self._rng.randrange(8))]))
        corruption = Corruption("file-flip", -1, f"{path}@{offset}")
        self.log.append(corruption)
        return corruption

    def truncate_file(self, path: str, keep_bytes: int) -> Corruption:
        """Cut a file short, as an interrupted append would."""
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(keep_bytes)
        corruption = Corruption("file-truncate", -1,
                                f"{path} {size} -> {keep_bytes} bytes")
        self.log.append(corruption)
        return corruption


# -- corruption trials -------------------------------------------------------


@dataclass
class CorruptionTrialResult:
    """Outcome of one inject-and-query experiment."""

    trial: int
    kind: str
    page_id: int
    changed: bool                     # injection actually altered bytes
    scrub_detected: bool
    degraded_responses: int
    silent_wrong: int                 # MUST stay 0


@dataclass
class CorruptionReport:
    """Aggregate over a batch of corruption-injection trials."""

    trials: List[CorruptionTrialResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of injection trials run."""
        return len(self.trials)

    @property
    def silent_wrong(self) -> int:
        """Wrong answers served without any detection — must stay 0."""
        return sum(t.silent_wrong for t in self.trials)

    @property
    def undetected(self) -> int:
        """Injections that changed bytes but escaped the scrub."""
        return sum(1 for t in self.trials
                   if t.changed and not t.scrub_detected)

    @property
    def all_surfaced(self) -> bool:
        """True when every injection was detected or harmless."""
        return self.silent_wrong == 0 and self.undetected == 0

    def summary(self) -> str:
        """One human-readable line for a chaos report."""
        return (f"{self.total} injection(s): {self.undetected} undetected, "
                f"{self.silent_wrong} silently wrong answer(s)")


def run_corruption_trials(collection: POICollection, num_trials: int,
                          seed: int, workdir: str,
                          probes: int = 4,
                          page_size: int = 512) -> CorruptionReport:
    """Inject page corruption into a checksummed disk index; every probe
    must come back either correct or explicitly degraded."""
    index = DesksIndex(collection, disk_based=True,
                       disk_path_prefix=os.path.join(workdir, "pages"),
                       page_size=page_size, checksums=True)
    for anchor in index.anchors:
        if anchor is not None:
            anchor.store.flush()  # injections must not be flushed over
    queries = probe_queries(collection, probes, seed ^ 0x517CC1B7)
    engine = QueryEngine(index, num_workers=1)
    clean = [engine.execute(q).result for q in queries]

    injector = CorruptionInjector(seed)
    rng = random.Random(seed ^ 0x2545F491)
    report = CorruptionReport()
    stores = index.page_stores()
    for trial in range(num_trials):
        store = stores[rng.randrange(len(stores))]
        page_id = rng.randrange(store.num_pages)
        # Corruption is injected at the *physical* layer on purpose: going
        # through the pool would damage a cached frame, not the bytes the
        # recovery path re-reads.
        saved = store.inner.read_page(page_id)
        event = injector.corrupt_page(store, page_id=page_id)
        changed = store.verify_page(page_id) is not None
        # Damaged pages must actually be *read*: evict the buffer pools
        # and the engine's answer cache so every probe goes back to the
        # frames.
        index.drop_caches()
        engine.cache.clear()
        scrub_hit = not index.scrub().clean
        degraded = 0
        silent_wrong = 0
        for query, reference in zip(queries, clean):
            response = engine.execute(query)
            if response.degraded:
                degraded += 1
            elif response.result.entries != reference.entries:
                silent_wrong += 1
        report.trials.append(CorruptionTrialResult(
            trial=trial, kind=event.kind, page_id=page_id,
            changed=changed, scrub_detected=scrub_hit,
            degraded_responses=degraded, silent_wrong=silent_wrong))
        # The saved physical bytes verified before the injection, so
        # writing them back restores the exact pre-injection frame.
        store.inner.write_page(page_id, saved)
        index.drop_caches()
        engine.cache.clear()
    engine.close()
    index.close()
    return report


# -- overhead ----------------------------------------------------------------


def measure_wal_overhead(base: POICollection, script: Sequence[Tuple],
                         workdir: str, sync: str = "batch",
                         sync_interval: int = 32,
                         rebuild_threshold: float = 0.25,
                         repeats: int = 3) -> dict:
    """Time the same mutation stream with and without the WAL in front.

    Both variants run the script's insert/delete stream with its
    checkpoint markers stripped, so neither side compacts on a marker.
    The index still rebuilds itself whenever its delta or tombstones
    pass ``rebuild_threshold``, on both sides alike: those rebuilds land
    in both timings and in the plain denominator.  ``overhead_fraction``
    is therefore WAL cost over mutation *plus rebuild* cost, not the bare
    per-mutation price of logging, and it rises as rebuilds get cheaper.
    Checkpointing cost — snapshot + WAL truncation, paid occasionally
    and amortized by policy — is one ``checkpoint()`` after each durable
    run, reported as ``checkpoint_seconds_avg``.  Each variant takes the
    best of ``repeats`` runs (coarse clock noise).
    """
    stream = [entry for entry in script if entry[0] != OP_CHECKPOINT]
    mutations = len(stream)

    def run_plain() -> float:
        index = MutableDesksIndex(base,
                                  rebuild_threshold=rebuild_threshold)
        started = time.perf_counter()
        apply_script(index, stream, durable_checkpoints=False)
        return time.perf_counter() - started

    def run_durable(run: int) -> Tuple[float, float]:
        directory = os.path.join(workdir, f"overhead{run}")
        index = DurableMutableIndex.create(
            base, directory, rebuild_threshold=rebuild_threshold,
            sync=sync, sync_interval=sync_interval)
        started = time.perf_counter()
        apply_script(index, stream, durable_checkpoints=True)
        elapsed = time.perf_counter() - started
        checkpoint_started = time.perf_counter()
        index.checkpoint()
        checkpoint_s = time.perf_counter() - checkpoint_started
        index.close()
        shutil.rmtree(directory, ignore_errors=True)
        return elapsed, checkpoint_s

    run_plain()          # warm caches/allocator so neither side pays for it
    run_durable(-1)
    plain_times: List[float] = []
    durable_runs: List[Tuple[float, float]] = []
    for run in range(repeats):
        # Interleave the variants so clock drift and filesystem state
        # changes during the measurement hit both sides equally.
        plain_times.append(run_plain())
        durable_runs.append(run_durable(run))
    plain_s = min(plain_times)
    durable_s = min(elapsed for elapsed, _ in durable_runs)
    checkpoint_avg = (sum(c for _, c in durable_runs)
                      / len(durable_runs))
    overhead = (durable_s - plain_s) / plain_s if plain_s > 0 else 0.0
    return {
        "mutations": mutations,
        "sync": sync,
        "sync_interval": sync_interval,
        "plain_seconds": plain_s,
        "durable_seconds": durable_s,
        "plain_ops_per_sec": mutations / plain_s if plain_s else 0.0,
        "durable_ops_per_sec": (mutations / durable_s
                                if durable_s else 0.0),
        "overhead_fraction": overhead,
        "checkpoint_seconds_avg": checkpoint_avg,
    }

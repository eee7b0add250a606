"""Chaos harness: randomized crash trials and seeded file corruption.

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
* :class:`CorruptionInjector` flips seeded bits in files on disk (saved
  indexes, WAL segments), for the scrub and loader tests;
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

from repro.core import DirectionalQuery, MutableDesksIndex
from repro.datasets import POICollection
from repro.durability import DurableMutableIndex, is_durable_dir

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


@dataclass(frozen=True)
class Corruption:
    """One injected bit flip, for replay and assertions."""

    path: str
    offset: int
    bit: int


class CorruptionInjector:
    """Seeded bit flips in files on disk.

    All draws come from one private :class:`random.Random`, so a given
    seed produces the same corruption sequence regardless of wall clock or
    interpreter hashing — the property a test relies on to replay a
    failure.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.log: List[Corruption] = []

    def corrupt_file(self, path: str,
                     offset: Optional[int] = None) -> Corruption:
        """Flip one bit of a file on disk (saved-index blobs, WAL tails)."""
        size = os.path.getsize(path)
        if size == 0:
            raise ValueError(f"cannot corrupt empty file {path}")
        if offset is None:
            offset = self._rng.randrange(size)
        bit = self._rng.randrange(8)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ (1 << bit)]))
        corruption = Corruption(path, offset, bit)
        self.log.append(corruption)
        return corruption


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

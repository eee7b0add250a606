"""Crash-safe storage for DESKS: WAL-fronted mutable indexes, checkpoints,
recovery, scrubbing, and the chaos harness that proves them."""

from .chaos import (
    CHAOS_TERMS,
    ChaosReport,
    CorruptionReport,
    CorruptionTrialResult,
    CountdownFailpoint,
    CrashTrialResult,
    answer_fingerprint,
    apply_script,
    build_script,
    build_twin,
    live_fingerprint,
    measure_wal_overhead,
    probe_queries,
    run_corruption_trials,
    run_crash_trials,
)
from .durable import (
    DURABLE_VERSION,
    DurableMutableIndex,
    is_durable_dir,
    scrub_durable,
)

__all__ = [
    "CHAOS_TERMS",
    "ChaosReport",
    "CorruptionReport",
    "CorruptionTrialResult",
    "CountdownFailpoint",
    "CrashTrialResult",
    "DURABLE_VERSION",
    "DurableMutableIndex",
    "answer_fingerprint",
    "apply_script",
    "build_script",
    "build_twin",
    "is_durable_dir",
    "live_fingerprint",
    "measure_wal_overhead",
    "probe_queries",
    "run_corruption_trials",
    "run_crash_trials",
    "scrub_durable",
]

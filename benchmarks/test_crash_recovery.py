"""Durability chaos harness — crash/recovery at scale.

Beyond the paper: the durability layer (`repro.durability`) claims that a
mutation workload killed at ANY instant recovers to answer byte-for-byte
identically to a never-crashed twin.  This module stakes that claim on
randomized trials:

* ~120 crash points drawn over every WAL failpoint firing of a mixed
  insert/delete/checkpoint workload (including torn mid-record writes and
  crashes inside checkpoint's snapshot/truncate window);
* a WAL overhead measurement gated at <= 25% throughput cost.

Everything is seed-deterministic; results land in
``results/BENCH_durability.json`` for CI artifact upload.
"""

import pytest

from repro.datasets import SyntheticConfig, generate

from chaos_durability import (
    build_script,
    measure_wal_overhead,
    run_crash_trials,
)
from series import write_json_result, write_result

SEED = 1210
BASE_POIS = 400
SCRIPT_OPS = 140
CRASH_TRIALS = 120
#: Acceptance gate: WAL'd mutations may cost at most this much throughput.
MAX_WAL_OVERHEAD = 0.25
#: The overhead measurement needs a workload whose plain side does real
#: index maintenance (threshold rebuilds), or the ratio degenerates into
#: "syscall vs list.append" — hence a larger base and a longer stream
#: than the crash-trial script.
OVERHEAD_POIS = 2000
OVERHEAD_OPS = 1600
OVERHEAD_THRESHOLD = 0.1
OVERHEAD_SYNC_INTERVAL = 64
OVERHEAD_REPEATS = 9

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def chaos_base():
    return generate(SyntheticConfig(
        name="chaos", num_pois=BASE_POIS, num_unique_terms=200,
        avg_terms_per_poi=3.0, seed=SEED))


@pytest.fixture(scope="module")
def chaos_script(chaos_base):
    return build_script(chaos_base, SCRIPT_OPS, seed=SEED)


def test_crash_recovery_byte_identical(chaos_base, chaos_script, tmp_path):
    report = run_crash_trials(chaos_base, chaos_script, CRASH_TRIALS,
                              seed=SEED, workdir=str(tmp_path))
    lines = [report.summary()]
    stage_histogram = {}
    for trial in report.trials:
        stage = trial.crashed_at or "completed"
        stage_histogram[stage] = stage_histogram.get(stage, 0) + 1
    lines.extend(f"  crashed at {stage}: {count}"
                 for stage, count in sorted(stage_histogram.items()))
    for failure in report.failures():
        lines.append(f"  FAILED trial {failure.trial} "
                     f"(countdown {failure.crash_countdown}, "
                     f"stage {failure.crashed_at}): "
                     f"{'; '.join(failure.mismatches)}")
    write_result("chaos_crash_recovery", "\n".join(lines))
    test_crash_recovery_byte_identical.report = report
    assert report.total == CRASH_TRIALS
    assert report.all_identical, report.failures()


def test_wal_overhead_within_budget(tmp_path):
    base = generate(SyntheticConfig(
        name="overhead", num_pois=OVERHEAD_POIS, num_unique_terms=400,
        avg_terms_per_poi=3.0, seed=SEED))
    script = build_script(base, OVERHEAD_OPS, seed=SEED,
                          rebuild_threshold=OVERHEAD_THRESHOLD)
    overhead = measure_wal_overhead(
        base, script, str(tmp_path), sync="batch",
        sync_interval=OVERHEAD_SYNC_INTERVAL,
        rebuild_threshold=OVERHEAD_THRESHOLD, repeats=OVERHEAD_REPEATS)
    crash = getattr(test_crash_recovery_byte_identical, "report", None)
    payload = {
        "config": {
            "seed": SEED,
            "base_pois": BASE_POIS,
            "script_ops": SCRIPT_OPS,
            "crash_trials": CRASH_TRIALS,
            "max_wal_overhead": MAX_WAL_OVERHEAD,
            "overhead_pois": OVERHEAD_POIS,
            "overhead_ops": OVERHEAD_OPS,
            "overhead_rebuild_threshold": OVERHEAD_THRESHOLD,
        },
        "crash": {
            "trials": crash.total if crash else 0,
            "identical": crash.identical if crash else 0,
        },
        "wal_overhead": overhead,
    }
    write_json_result("BENCH_durability", payload)
    assert overhead["overhead_fraction"] <= MAX_WAL_OVERHEAD, overhead

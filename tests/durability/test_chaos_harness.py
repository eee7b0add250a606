"""A scaled-down run of the chaos harness (full scale: benchmarks/)."""

import random

import pytest

from benchmarks.chaos_durability import (
    CHAOS_TERMS,
    build_script,
    measure_wal_overhead,
    run_corruption_trials,
    run_crash_trials,
)
from repro.datasets import POI, POICollection

SEED = 77


@pytest.fixture(scope="module")
def base():
    rng = random.Random(SEED)
    return POICollection([
        POI.make(i, rng.uniform(0, 100), rng.uniform(0, 100),
                 rng.sample(CHAOS_TERMS, rng.randint(1, 3)))
        for i in range(120)
    ])


@pytest.fixture(scope="module")
def script(base):
    return build_script(base, 50, seed=SEED)


def test_script_is_deterministic(base, script):
    assert script == build_script(base, 50, seed=SEED)
    assert script != build_script(base, 50, seed=SEED + 1)


def test_crash_trials_recover_identically(base, script, tmp_path):
    report = run_crash_trials(base, script, 25, seed=SEED,
                              workdir=str(tmp_path))
    assert report.total == 25
    assert report.all_identical, [f.mismatches for f in report.failures()]
    # The countdown draw must actually spread crashes over stages.
    stages = {t.crashed_at for t in report.trials if t.crashed_at}
    assert len(stages) >= 2
    assert "25/25" in report.summary()


def test_corruption_trials_always_surface(base, tmp_path):
    report = run_corruption_trials(base, 8, seed=SEED,
                                   workdir=str(tmp_path))
    assert report.total == 8
    assert report.silent_wrong == 0
    assert report.undetected == 0
    assert report.all_surfaced
    kinds = {t.kind for t in report.trials}
    assert kinds  # every trial records what was injected


def test_overhead_measurement_reports_shape(base, script, tmp_path):
    overhead = measure_wal_overhead(base, script, str(tmp_path),
                                    sync="checkpoint", repeats=1)
    assert overhead["mutations"] == sum(
        1 for entry in script if entry[0] != "checkpoint")
    for key in ("plain_seconds", "durable_seconds", "overhead_fraction",
                "checkpoint_seconds_avg", "sync", "sync_interval"):
        assert key in overhead

"""A scaled-down run of the chaos harness (full scale: benchmarks/)."""

import random

import pytest

from benchmarks.chaos_durability import (
    CHAOS_TERMS,
    CorruptionInjector,
    build_script,
    measure_wal_overhead,
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


def test_overhead_measurement_reports_shape(base, script, tmp_path):
    overhead = measure_wal_overhead(base, script, str(tmp_path),
                                    sync="checkpoint", repeats=1)
    assert overhead["mutations"] == sum(
        1 for entry in script if entry[0] != "checkpoint")
    for key in ("plain_seconds", "durable_seconds", "overhead_fraction",
                "checkpoint_seconds_avg", "sync", "sync_interval"):
        assert key in overhead


class TestInjectorDeterminism:
    def test_same_seed_same_corruption_log(self, tmp_path):
        path = tmp_path / "blob.bin"

        def run(seed):
            path.write_bytes(bytes(64))
            injector = CorruptionInjector(seed=seed)
            for _ in range(4):
                injector.corrupt_file(str(path))
            return injector.log, path.read_bytes()

        assert run(11) == run(11)
        assert run(11)[0] != run(12)[0]

    def test_file_level_corruption(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(64))
        flip = CorruptionInjector(seed=5).corrupt_file(str(path))
        damaged = path.read_bytes()
        assert len(damaged) == 64
        assert damaged[flip.offset] == 1 << flip.bit
        assert damaged.count(0) == 63

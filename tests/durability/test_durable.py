"""Tests for DurableMutableIndex: WAL'd mutations, recovery, checkpoints."""

import json
import math
import os
import random
import struct

import pytest

from repro.core import DirectionalQuery
from repro.core.persistence import PersistenceError
from repro.datasets import POI, POICollection
from repro.durability import (
    DurableMutableIndex,
    is_durable_dir,
    scrub_durable,
)
from repro.durability.chaos import CorruptionInjector
from repro.storage import SimulatedCrash, WalCorruptionError

from ..reseal import reseal

KEYWORDS = ["cafe", "food", "gas", "atm", "pizza", "bank"]


def make_collection(n=120, seed=9):
    rng = random.Random(seed)
    return POICollection([
        POI.make(i, rng.uniform(0, 100), rng.uniform(0, 100),
                 rng.sample(KEYWORDS, rng.randint(1, 3)))
        for i in range(n)
    ])


def probe(index, seed=0, count=8, k=6):
    rng = random.Random(seed)
    answers = []
    for _ in range(count):
        alpha = rng.uniform(0, 2 * math.pi)
        query = DirectionalQuery.make(
            rng.uniform(0, 100), rng.uniform(0, 100),
            alpha, alpha + rng.uniform(0.3, 5.5),
            rng.sample(KEYWORDS, rng.randint(1, 2)), k)
        result = index.search(query)
        answers.append([(e.poi_id, e.distance) for e in result.entries])
    return answers


@pytest.fixture()
def base():
    return make_collection()


class TestLifecycle:
    def test_constructor_refused(self, base):
        with pytest.raises(TypeError, match="create"):
            DurableMutableIndex(base)

    def test_create_recover_empty(self, base, tmp_path):
        root = str(tmp_path / "dur")
        with DurableMutableIndex.create(base, root) as index:
            before = probe(index)
        with DurableMutableIndex.recover(root) as recovered:
            assert recovered.op_seq == 0
            assert probe(recovered) == before

    def test_create_refuses_existing_directory(self, base, tmp_path):
        root = str(tmp_path / "dur")
        DurableMutableIndex.create(base, root).close()
        with pytest.raises(PersistenceError, match="recover"):
            DurableMutableIndex.create(base, root)

    def test_is_durable_dir(self, base, tmp_path):
        root = str(tmp_path / "dur")
        assert not is_durable_dir(root)
        DurableMutableIndex.create(base, root).close()
        assert is_durable_dir(root)
        assert not is_durable_dir(str(tmp_path))


class TestRecovery:
    def test_mutations_survive_clean_close(self, base, tmp_path):
        root = str(tmp_path / "dur")
        with DurableMutableIndex.create(base, root) as index:
            pid = index.insert(12.0, 34.0, ["cafe", "pizza"])
            index.delete(3)
            index.insert(55.0, 5.0, ["bank"])
            before = probe(index)
            op_seq = index.op_seq
        with DurableMutableIndex.recover(root) as recovered:
            assert recovered.op_seq == op_seq
            assert probe(recovered) == before
            assert recovered.delete(pid)  # replayed ids line up

    def test_non_ascii_and_empty_keyword_sets_replay(self, base, tmp_path):
        root = str(tmp_path / "dur")
        with DurableMutableIndex.create(base, root) as index:
            index.insert(10.0, 10.0, ["café", "北京烤鸭"])
            index.insert(20.0, 20.0, [])
            index.insert(30.0, 30.0, ["пекарня"])
            before = probe(index)
        with DurableMutableIndex.recover(root) as recovered:
            assert probe(recovered) == before
            query = DirectionalQuery.make(0, 0, 0, 2 * math.pi,
                                          ["café"], 3)
            entries = recovered.search(query).entries
            assert len(entries) == 1

    def test_recovery_replays_only_unabsorbed_suffix(self, base, tmp_path):
        root = str(tmp_path / "dur")
        with DurableMutableIndex.create(base, root) as index:
            for i in range(10):
                index.insert(float(i), float(i), ["gas"])
            index.checkpoint()
            assert index.snapshot_op_seq == 10
            index.insert(99.0, 99.0, ["atm"])
            before = probe(index)
        with DurableMutableIndex.recover(root) as recovered:
            assert recovered.snapshot_op_seq == 10
            assert recovered.op_seq == 11
            assert probe(recovered) == before

    def test_crash_between_snapshot_and_truncation(self, base, tmp_path):
        """The double-apply window: snapshot swapped in, WAL still full."""
        root = str(tmp_path / "dur")

        def crash_at_truncation(stage):
            if stage == "checkpoint.before":
                raise SimulatedCrash(stage)

        index = DurableMutableIndex.create(base, root,
                                           failpoint=crash_at_truncation)
        for i in range(6):
            index.insert(float(i), 1.0, ["cafe"])
        with pytest.raises(SimulatedCrash):
            index.checkpoint()
        before = probe(index)
        index.abandon()
        with DurableMutableIndex.recover(root) as recovered:
            # Snapshot absorbed all 6 ops; the un-truncated WAL records
            # must be skipped, not applied twice.
            assert recovered.snapshot_op_seq == 6
            assert recovered.op_seq == 6
            assert probe(recovered) == before

    def test_torn_wal_tail_loses_only_final_record(self, base, tmp_path):
        root = str(tmp_path / "dur")
        crash = {"armed": False}

        def tear_last(stage):
            if crash["armed"] and stage == "append.torn":
                raise SimulatedCrash(stage)

        index = DurableMutableIndex.create(base, root, sync="always",
                                           failpoint=tear_last)
        index.insert(1.0, 1.0, ["cafe"])
        index.insert(2.0, 2.0, ["food"])
        crash["armed"] = True
        with pytest.raises(SimulatedCrash):
            index.insert(3.0, 3.0, ["gas"])
        index.abandon()
        with DurableMutableIndex.recover(root) as recovered:
            assert recovered.op_seq == 2  # torn third record dropped

    def test_mid_log_corruption_is_refused_not_truncated(self, base,
                                                         tmp_path):
        root = tmp_path / "dur"
        with DurableMutableIndex.create(base, str(root)) as index:
            for i in range(10):
                index.insert(float(i), float(i), ["cafe"])
        segment = sorted((root / "wal").glob("segment-*.wal"))[-1]
        blob = bytearray(segment.read_bytes())
        header = struct.Struct("<BII")
        offset = 0
        for _ in range(2):  # skip records 1 and 2
            offset += header.size + header.unpack_from(blob, offset)[1]
        length = header.unpack_from(blob, offset)[1]
        blob[offset + header.size + length // 2] ^= 0x10
        segment.write_bytes(bytes(blob))

        for _ in range(2):  # refused, and still refused: nothing truncated
            report = scrub_durable(str(root))
            assert [path for path, _ in report.corrupt] == [str(segment)]
            assert "torn" not in report.corrupt[0][1]
            with pytest.raises(WalCorruptionError,
                               match=f"record at byte {offset}"):
                DurableMutableIndex.recover(str(root))
            assert segment.read_bytes() == bytes(blob)

    def test_recover_missing_directory(self, tmp_path):
        with pytest.raises(PersistenceError, match="not a durable"):
            DurableMutableIndex.recover(str(tmp_path / "nothing"))

    def test_recover_rejects_bad_marker(self, base, tmp_path):
        root = tmp_path / "dur"
        DurableMutableIndex.create(base, str(root)).close()
        marker = root / "snapshot" / "durable.json"
        marker.write_text(json.dumps({"version": 1, "op_seq": -4}))
        reseal(root / "snapshot")
        with pytest.raises(PersistenceError, match="op_seq"):
            DurableMutableIndex.recover(str(root))


class TestCheckpointGuards:
    def test_bare_compact_refused(self, base, tmp_path):
        with DurableMutableIndex.create(base,
                                        str(tmp_path / "dur")) as index:
            with pytest.raises(PersistenceError, match="checkpoint"):
                index.compact()

    def test_failed_checkpoint_poisons_instance(self, base, tmp_path,
                                                monkeypatch):
        index = DurableMutableIndex.create(base, str(tmp_path / "dur"))
        monkeypatch.setattr(
            index, "_save_snapshot",
            lambda: (_ for _ in ()).throw(RuntimeError("disk full")))
        index.insert(1.0, 1.0, ["cafe"])
        with pytest.raises(RuntimeError, match="disk full"):
            index.checkpoint()
        with pytest.raises(PersistenceError, match="poisoned"):
            index.insert(2.0, 2.0, ["food"])
        with pytest.raises(PersistenceError, match="poisoned"):
            index.delete(0)
        index.abandon()
        # Recovery from disk is the documented remedy.
        with DurableMutableIndex.recover(str(tmp_path / "dur")) as fresh:
            assert fresh.op_seq == 1

    def test_checkpoint_truncates_wal(self, base, tmp_path):
        with DurableMutableIndex.create(base,
                                        str(tmp_path / "dur")) as index:
            for i in range(5):
                index.insert(float(i), 2.0, ["bank"])
            index.checkpoint()
            report = index.scrub()
            assert report.clean
            assert report.checked["wal record"] == 0

    def test_checkpoint_with_no_live_poi_keeps_the_wal(self, tmp_path):
        """Nothing to compact into: no snapshot, no truncation, and the
        instance stays usable (it used to raise and poison itself)."""
        root = str(tmp_path / "dur")
        index = DurableMutableIndex.create(make_collection(6), root,
                                           rebuild_threshold=1.0)
        for poi_id in range(6):
            assert index.delete(poi_id)
        index.checkpoint()
        assert index.snapshot_op_seq == 0
        new_id = index.insert(5.0, 5.0, ["cafe"])
        assert [p.poi_id for p in index.live_pois()] == [new_id]
        before = probe(index)
        index.close()
        # The snapshot is still the base: recovery replays every op.
        with DurableMutableIndex.recover(root) as recovered:
            assert (recovered.op_seq, len(recovered)) == (7, 1)
            assert probe(recovered) == before
            recovered.checkpoint()
            assert recovered.snapshot_op_seq == 7
            assert recovered.scrub().checked["wal record"] == 0


class TestScrub:
    def test_offline_scrub_clean(self, base, tmp_path):
        root = str(tmp_path / "dur")
        with DurableMutableIndex.create(base, root) as index:
            index.insert(5.0, 5.0, ["cafe"])
        report = scrub_durable(root)
        assert report.clean
        assert "clean" in report.summary()

    def test_offline_scrub_flags_snapshot_corruption(self, base, tmp_path):
        root = tmp_path / "dur"
        DurableMutableIndex.create(base, str(root)).close()
        CorruptionInjector(seed=2).corrupt_file(
            str(root / "snapshot" / "pois.csv"))
        report = scrub_durable(str(root))
        assert not report.clean
        assert any("pois.csv" in path for path, _ in report.corrupt)

    def test_offline_scrub_refuses_non_durable_dir(self, tmp_path):
        with pytest.raises(PersistenceError):
            scrub_durable(str(tmp_path))

    def test_one_changed_byte_of_the_build_parameters_is_refused(
            self, tmp_path):
        """A rebuild threshold of 0.05 instead of 0.25 would make recovery
        rebuild where the original never did, so a different live POI set
        answers: scrub must name the file and recover() must refuse it."""
        from repro.datasets import load_preset

        rng = random.Random(35)
        root = str(tmp_path / "dur")
        with DurableMutableIndex.create(load_preset("VA", scale=500),
                                        root) as index:
            for _ in range(150):
                index.insert(rng.uniform(0, 100), rng.uniform(0, 100),
                             rng.sample(KEYWORDS, 2))
            for poi_id in rng.sample(range(len(index)), 150):
                index.delete(poi_id)
        path = os.path.join(root, "durable.json")
        blob = open(path, "rb").read()
        assert blob.count(b'"rebuild_threshold": 0.25') == 1
        with open(path, "wb") as handle:
            handle.write(blob.replace(b"0.25", b"0.05"))
        report = scrub_durable(root)
        assert [location for location, _ in report.corrupt] == [path]
        with pytest.raises(PersistenceError, match="durable.json"):
            DurableMutableIndex.recover(root)

    def test_a_version_1_durable_json_is_refused(self, base, tmp_path):
        root = tmp_path / "dur"
        DurableMutableIndex.create(base, str(root)).close()
        (root / "durable.json").write_text(json.dumps(
            {"version": 1, "num_bands": 1, "num_wedges": 4,
             "rebuild_threshold": 0.25}))
        assert not scrub_durable(str(root)).clean
        with pytest.raises(PersistenceError, match="version 1"):
            DurableMutableIndex.recover(str(root))


class TestOneShotIterables:
    def test_generator_keywords_hit_wal_and_index_alike(self, base,
                                                        tmp_path):
        """A one-shot iterable must not be drained by the WAL encoding,
        leaving the live index with an empty keyword set."""
        root = str(tmp_path / "dur")
        with DurableMutableIndex.create(base, root) as index:
            pid = index.insert(40.0, 40.0,
                               (kw for kw in ["café", "pizza"]))
            live = {p.poi_id: p for p in index.live_pois()}
            assert live[pid].keywords == frozenset(["café", "pizza"])
            before = probe(index)
        with DurableMutableIndex.recover(root) as recovered:
            live = {p.poi_id: p for p in recovered.live_pois()}
            assert live[pid].keywords == frozenset(["café", "pizza"])
            assert probe(recovered) == before


class TestSnapshotSwapCrashes:
    def crash_at(self, stage_name):
        def failpoint(stage):
            if stage == stage_name:
                raise SimulatedCrash(stage)
        return failpoint

    @pytest.mark.parametrize("stage", ["swap.staged", "swap.displaced",
                                       "swap.complete"])
    def test_checkpoint_crash_inside_swap_recovers(self, base, tmp_path,
                                                   stage):
        """The high-severity window: between the swap's two renames the
        snapshot directory does not exist at all."""
        root = str(tmp_path / "dur")
        index = DurableMutableIndex.create(base, root)
        for i in range(6):
            index.insert(float(i), 3.0, ["cafe"])
        before = probe(index)
        index._failpoint = self.crash_at(stage)
        index._wal._failpoint = index._failpoint
        with pytest.raises(SimulatedCrash):
            index.checkpoint()
        index.abandon()
        with DurableMutableIndex.recover(root) as recovered:
            assert recovered.op_seq == 6
            assert probe(recovered) == before

    def test_create_crash_before_meta_restarts_cleanly(self, base,
                                                       tmp_path):
        """durable.json lands last, so a crash during create() leaves a
        directory create() itself restarts — never a wedged one."""
        root = str(tmp_path / "dur")
        with pytest.raises(SimulatedCrash):
            DurableMutableIndex.create(
                base, root, failpoint=self.crash_at("swap.staged"))
        assert not is_durable_dir(root)
        with pytest.raises(PersistenceError, match="not a durable"):
            DurableMutableIndex.recover(root)
        with DurableMutableIndex.create(base, root) as index:  # restart
            assert index.op_seq == 0
        with DurableMutableIndex.recover(root) as recovered:
            assert recovered.op_seq == 0


class TestScrubIsReadOnly:
    def test_offline_scrub_reports_torn_tail_without_repairing(
            self, base, tmp_path):
        root = tmp_path / "dur"
        with DurableMutableIndex.create(base, str(root)) as index:
            index.insert(1.0, 1.0, ["cafe"])
            index.insert(2.0, 2.0, ["food"])
        wal_dir = root / "wal"
        segment = sorted(wal_dir.glob("segment-*.wal"))[-1]
        torn = segment.read_bytes()[:-3]  # tear the final record
        segment.write_bytes(torn)
        listing_before = sorted(p.name for p in wal_dir.iterdir())

        report = scrub_durable(str(root))
        assert not report.clean
        assert any("torn" in reason for _, reason in report.corrupt)
        assert report.checked["wal record"] == 1
        assert "torn" in report.summary()
        # Strictly read-only: same files, same bytes, no new segment.
        assert sorted(p.name for p in wal_dir.iterdir()) == listing_before
        assert segment.read_bytes() == torn

        # recover() is what repairs: it truncates the tail and keeps the
        # intact prefix.
        with DurableMutableIndex.recover(str(root)) as recovered:
            assert recovered.op_seq == 1
        assert scrub_durable(str(root)).clean


class TestNonFiniteInsert:
    @pytest.mark.parametrize("x, y", [(math.inf, 100.0), (5.0, math.nan)])
    def test_refused_before_the_wal(self, base, tmp_path, x, y):
        root = tmp_path / "dur"

        def wal_files():
            return [(p.name, p.read_bytes())
                    for p in sorted((root / "wal").iterdir())]

        with DurableMutableIndex.create(base, str(root)) as index:
            index.insert(1.0, 1.0, ["cafe"])
            before = wal_files()
            with pytest.raises(ValueError, match="non-finite location"):
                index.insert(x, y, ["cafe"])
            assert index.op_seq == 1
            assert wal_files() == before
            assert len(index) == len(base) + 1
        with DurableMutableIndex.recover(str(root)) as recovered:
            assert recovered.op_seq == 1
            assert len(recovered) == len(base) + 1
            recovered.checkpoint()
            assert all(map(math.isfinite, recovered.collection.mbr))

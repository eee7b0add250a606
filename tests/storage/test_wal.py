"""Tests for the segmented write-ahead log: replay, tearing, failpoints."""

import os

import pytest

from benchmarks.chaos_durability import SimulatedCrash
from repro.storage import (
    IOStats,
    WalCorruptionError,
    WriteAheadLog,
    wal_scrub,
)


def replay_all(directory):
    with WriteAheadLog(str(directory)) as wal:
        return [(rectype, payload) for rectype, payload in wal.replay()]


class TestAppendReplay:
    def test_round_trip(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            for i in range(20):
                assert wal.append(b"record %d" % i) == i
        assert replay_all(tmp_path) == [
            (1, b"record %d" % i) for i in range(20)]

    def test_record_types_preserved(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append(b"a", rectype=1)
            wal.append(b"b", rectype=7)
        assert replay_all(tmp_path) == [(1, b"a"), (7, b"b")]

    def test_empty_payload_round_trips(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append(b"")
        assert replay_all(tmp_path) == [(1, b"")]

    def test_bad_rectype_rejected(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            with pytest.raises(ValueError):
                wal.append(b"x", rectype=0)
            with pytest.raises(ValueError):
                wal.append(b"x", rectype=256)

    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError, match="sync"):
            WriteAheadLog(str(tmp_path), sync="eventually")
        with pytest.raises(ValueError, match="segment_bytes"):
            WriteAheadLog(str(tmp_path), segment_bytes=4)
        with pytest.raises(ValueError, match="sync_interval"):
            WriteAheadLog(str(tmp_path), sync_interval=0)


class TestSegments:
    def test_rotation_splits_and_replay_spans_segments(self, tmp_path):
        with WriteAheadLog(str(tmp_path), segment_bytes=256) as wal:
            for i in range(40):
                wal.append(b"payload-%04d" % i)
            assert len(wal.segments()) > 1
        records = replay_all(tmp_path)
        assert [p for _, p in records] == [b"payload-%04d" % i
                                           for i in range(40)]

    def test_checkpoint_drops_all_segments(self, tmp_path):
        with WriteAheadLog(str(tmp_path), segment_bytes=256) as wal:
            for i in range(40):
                wal.append(b"payload-%04d" % i)
            wal.checkpoint()
            assert wal.segments() == [wal._segment_path(wal._segment_no)]
        assert replay_all(tmp_path) == []

    def test_appends_resume_after_checkpoint(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append(b"before")
            wal.checkpoint()
            wal.append(b"after")
        assert [p for _, p in replay_all(tmp_path)] == [b"after"]


class TestSyncPolicies:
    def test_always_fsyncs_each_append(self, tmp_path):
        stats = IOStats()
        with WriteAheadLog(str(tmp_path), sync="always",
                           stats=stats) as wal:
            for _ in range(5):
                wal.append(b"x")
        assert stats.fsyncs == 5

    def test_batch_fsyncs_every_interval(self, tmp_path):
        stats = IOStats()
        with WriteAheadLog(str(tmp_path), sync="batch", sync_interval=4,
                           stats=stats) as wal:
            for _ in range(8):
                wal.append(b"x")
            assert stats.fsyncs == 2

    def test_checkpoint_policy_defers_to_lifecycle_points(self, tmp_path):
        stats = IOStats()
        with WriteAheadLog(str(tmp_path), sync="checkpoint",
                           stats=stats) as wal:
            for _ in range(50):
                wal.append(b"x")
            assert stats.fsyncs == 0
            wal.checkpoint()
            assert stats.fsyncs == 1


def flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0x40]))


class TestTornTails:
    def test_flipped_byte_ends_replay_at_corruption(self, tmp_path):
        # A flip in the final record cannot be told from a torn write.
        with WriteAheadLog(str(tmp_path)) as wal:
            for i in range(10):
                wal.append(b"record %d" % i)
            path = wal.segments()[0]
        flip_byte(path, os.path.getsize(path) - 2)
        records = replay_all(tmp_path)
        assert records == [(1, b"record %d" % i) for i in range(9)]

    def test_truncated_tail_repaired_on_reopen(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            for i in range(10):
                wal.append(b"record %d" % i)
            path = wal.segments()[0]
        os.truncate(path, os.path.getsize(path) - 3)
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append(b"resumed")
        records = [p for _, p in replay_all(tmp_path)]
        assert records == [b"record %d" % i for i in range(9)] + [b"resumed"]

    def test_scrub_reports_torn_offset(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            for i in range(10):
                wal.append(b"record %d" % i)
            assert wal.scrub().clean
            path = wal.segments()[0]
        os.truncate(path, os.path.getsize(path) - 3)
        # Scan read-only — reopening the log would repair the tail first.
        report = wal_scrub(str(tmp_path))
        assert report.checked["wal record"] == 9
        assert [reason for _, reason in report.corrupt] == [
            f"torn at byte {os.path.getsize(path) - 14}"]


class TestMidLogCorruption:
    """A bad record that is not a torn tail is corruption: the log is
    refused and left byte-identical, never truncated to before it."""

    def write_log(self, directory, count=10, segment_bytes=256 * 1024):
        with WriteAheadLog(str(directory),
                           segment_bytes=segment_bytes) as wal:
            for i in range(count):
                wal.append(b"record %d" % i)
            return wal.segments()

    def assert_refused(self, directory, path):
        before = open(path, "rb").read()
        with pytest.raises(WalCorruptionError, match="fails verification"):
            replay_all(directory)
        assert open(path, "rb").read() == before
        report = wal_scrub(str(directory))
        assert [p for p, _ in report.corrupt] == [path]
        assert "fails verification" in report.corrupt[0][1]

    def test_flip_followed_by_a_verified_record(self, tmp_path):
        path = self.write_log(tmp_path)[0]
        flip_byte(path, os.path.getsize(path) // 2)
        self.assert_refused(tmp_path, path)

    def test_flip_in_an_earlier_segment(self, tmp_path):
        segments = self.write_log(tmp_path, count=40, segment_bytes=256)
        assert len(segments) > 1
        # The last record of the first segment: nothing follows it there.
        flip_byte(segments[0], os.path.getsize(segments[0]) - 2)
        self.assert_refused(tmp_path, segments[0])

    def test_torn_earlier_segment(self, tmp_path):
        segments = self.write_log(tmp_path, count=40, segment_bytes=256)
        os.truncate(segments[0], os.path.getsize(segments[0]) - 3)
        self.assert_refused(tmp_path, segments[0])


class TestFailpoints:
    def test_crash_mid_record_leaves_recoverable_prefix(self, tmp_path):
        torn_firings = {"n": 0}

        def failpoint(stage):
            if stage == "append.torn":
                torn_firings["n"] += 1
                if torn_firings["n"] == 2:  # crash inside the 2nd record
                    raise SimulatedCrash(stage)

        wal = WriteAheadLog(str(tmp_path), failpoint=failpoint)
        wal.append(b"whole record zero")
        with pytest.raises(SimulatedCrash):
            wal.append(b"this one tears mid-write")
        wal._file.close()  # what a crash leaves: no sync, no cleanup
        records = [p for _, p in replay_all(tmp_path)]
        assert records == [b"whole record zero"]
        # Reopening repairs the tail and appends continue cleanly.
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append(b"after recovery")
        assert [p for _, p in replay_all(tmp_path)] == [
            b"whole record zero", b"after recovery"]

    def test_crash_before_checkpoint_truncation_keeps_log(self, tmp_path):
        def failpoint(stage):
            if stage == "checkpoint.before":
                raise SimulatedCrash(stage)

        wal = WriteAheadLog(str(tmp_path), failpoint=failpoint)
        wal.append(b"survives")
        with pytest.raises(SimulatedCrash):
            wal.checkpoint()
        wal._file.close()
        assert [p for _, p in replay_all(tmp_path)] == [b"survives"]

    def test_failpoint_stages_fire_in_order(self, tmp_path):
        stages = []
        wal = WriteAheadLog(str(tmp_path), sync="always",
                            failpoint=stages.append)
        wal.append(b"x")
        wal.close()
        assert stages == ["append.header", "append.torn",
                          "append.complete", "sync"]

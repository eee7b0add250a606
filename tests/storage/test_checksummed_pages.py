"""Tests for CRC-32 page frames and deterministic corruption injection."""

import pytest

from benchmarks.chaos_durability import (
    PAGE_CORRUPTION_KINDS,
    CorruptionInjector,
)
from repro.storage import (
    FRAME_OVERHEAD,
    ChecksummedPageStore,
    FilePageStore,
    InMemoryPageStore,
    PageCorruptionError,
)

INNER_SIZE = 128


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        inner = InMemoryPageStore(page_size=INNER_SIZE)
    else:
        inner = FilePageStore(str(tmp_path / "pages.bin"),
                              page_size=INNER_SIZE)
    s = ChecksummedPageStore(inner)
    yield s
    s.close()


class TestFrameBasics:
    def test_logical_page_size_excludes_frame(self, store):
        assert store.page_size == INNER_SIZE - FRAME_OVERHEAD

    def test_round_trip(self, store):
        pid = store.allocate()
        store.write_page(pid, b"payload bytes")
        data = store.read_page(pid)
        assert data[:13] == b"payload bytes"
        assert len(data) == store.page_size

    def test_fresh_page_reads_zeroed(self, store):
        pid = store.allocate()
        assert store.read_page(pid) == bytes(store.page_size)
        assert store.verify_page(pid) is None

    def test_full_payload_round_trip(self, store):
        pid = store.allocate()
        payload = bytes(range(store.page_size % 256)) * 1
        payload = (payload + bytes(store.page_size))[:store.page_size]
        store.write_page(pid, payload)
        assert store.read_page(pid) == payload

    def test_oversized_payload_rejected(self, store):
        pid = store.allocate()
        with pytest.raises(ValueError):
            store.write_page(pid, bytes(store.page_size + 1))

    def test_inner_too_small_for_frame(self):
        with pytest.raises(ValueError, match="frame"):
            ChecksummedPageStore(InMemoryPageStore(page_size=FRAME_OVERHEAD))

    def test_rewrites_advance_epoch_and_stay_valid(self, store):
        pid = store.allocate()
        for round_no in range(5):
            store.write_page(pid, f"round {round_no}".encode())
            assert store.verify_page(pid) is None
        assert store.read_page(pid)[:7] == b"round 4"


class TestCorruptionDetection:
    @pytest.mark.parametrize("kind", PAGE_CORRUPTION_KINDS)
    def test_injected_corruption_raises_on_read(self, store, kind):
        pid = store.allocate()
        store.write_page(pid, b"precious data")
        CorruptionInjector(seed=7).corrupt_page(store, page_id=pid,
                                                kind=kind)
        with pytest.raises(PageCorruptionError) as err:
            store.read_page(pid)
        assert err.value.page_id == pid

    def test_tear_reports_torn_write(self, store):
        pid = store.allocate()
        store.write_page(pid, b"half flushed")
        CorruptionInjector(seed=1).corrupt_page(store, page_id=pid,
                                                kind="tear")
        assert "torn write" in store.verify_page(pid)

    def test_flip_reports_checksum_or_structural_damage(self, store):
        pid = store.allocate()
        store.write_page(pid, b"bits")
        CorruptionInjector(seed=2).corrupt_page(store, page_id=pid,
                                                kind="flip")
        assert store.verify_page(pid) is not None

    def test_every_single_bit_flip_of_a_frame_is_reported(self):
        store = ChecksummedPageStore(InMemoryPageStore(page_size=96))
        pid = store.allocate()
        store.write_page(pid, bytes(range(1, store.page_size + 1)))
        frame = store.inner.read_page(pid)
        for bit in range(len(frame) * 8):
            damaged = bytearray(frame)
            damaged[bit // 8] ^= 1 << (bit % 8)
            store.inner.write_page(pid, bytes(damaged))
            assert store.verify_page(pid) is not None, f"bit {bit}"
        store.inner.write_page(pid, frame)
        assert store.verify_page(pid) is None

    def test_scrub_localizes_damage(self, store):
        pids = [store.allocate() for _ in range(4)]
        for pid in pids:
            store.write_page(pid, b"page %d" % pid)
        CorruptionInjector(seed=3).corrupt_page(store, page_id=pids[2],
                                                kind="flip")
        report = store.scrub()
        assert report.checked["page"] == 4
        assert not report.clean
        assert [pid for pid, _ in report.corrupt] == [pids[2]]
        assert "corrupt" in report.summary()

    def test_clean_scrub(self, store):
        for _ in range(3):
            store.write_page(store.allocate(), b"fine")
        report = store.scrub()
        assert report.clean
        assert report.checked["page"] == 3

    def test_restore_heals(self, store):
        pid = store.allocate()
        store.write_page(pid, b"original")
        saved = store.inner.read_page(pid)
        CorruptionInjector(seed=4).corrupt_page(store, page_id=pid)
        assert store.verify_page(pid) is not None
        store.inner.write_page(pid, saved)
        assert store.verify_page(pid) is None
        assert store.read_page(pid)[:8] == b"original"


class TestInjectorDeterminism:
    def test_same_seed_same_corruption_log(self, tmp_path):
        def run(seed):
            store = ChecksummedPageStore(InMemoryPageStore(page_size=96))
            for i in range(6):
                store.write_page(store.allocate(), b"page %d" % i)
            injector = CorruptionInjector(seed=seed)
            for _ in range(4):
                injector.corrupt_page(store)
            return [(c.kind, c.page_id, c.detail) for c in injector.log]

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_file_level_corruption(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(64))
        injector = CorruptionInjector(seed=5)
        injector.corrupt_file(str(path))
        assert path.read_bytes() != bytes(64)
        injector.truncate_file(str(path), keep_bytes=10)
        assert path.stat().st_size == 10

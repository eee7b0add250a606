"""Page-granular storage backends.

A *page store* holds fixed-size pages addressed by integer id.  Two
implementations share the interface:

* :class:`InMemoryPageStore` — a list of bytearrays; the default for tests
  and for "if we have large memory" mode in the paper.
* :class:`FilePageStore` — a real file on disk, one page per ``PAGE_SIZE``
  slot; the "disk-based structure" mode.

Both report physical reads/writes to an :class:`~repro.storage.stats.IOStats`
so higher layers can account I/O identically regardless of backend.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import List, Optional, Tuple

from .stats import IOStats, ScrubReport

#: Default page size, matching the common 4 KiB database page.
PAGE_SIZE = 4096


class PageCorruptionError(RuntimeError):
    """A page failed frame verification (checksum / torn write / magic).

    Carries enough context for the serving layer to report a failure cause
    and for the cluster layer to quarantine the shard that produced it.
    """

    def __init__(self, page_id: int, reason: str,
                 path: Optional[str] = None) -> None:
        self.page_id = page_id
        self.reason = reason
        self.path = path
        where = f" in {path}" if path else ""
        super().__init__(f"page {page_id}{where}: {reason}")


class PageStore:
    """Abstract fixed-size page store."""

    def __init__(self, page_size: int = PAGE_SIZE,
                 stats: Optional[IOStats] = None) -> None:
        if page_size <= 0:
            raise ValueError(f"page size must be positive, got {page_size}")
        self.page_size = page_size
        self.stats = stats if stats is not None else IOStats()

    # -- interface ----------------------------------------------------------

    @property
    def num_pages(self) -> int:
        """Number of allocated pages."""
        raise NotImplementedError

    def allocate(self) -> int:
        """Allocate a fresh zeroed page and return its id."""
        raise NotImplementedError

    def read_page(self, page_id: int) -> bytes:
        """Return the page's ``page_size`` bytes (counts a physical read)."""
        raise NotImplementedError

    def write_page(self, page_id: int, data: bytes) -> None:
        """Overwrite a page (counts a physical write).

        ``data`` shorter than the page is zero-padded; longer is an error.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further access is an error."""

    # -- helpers -------------------------------------------------------------

    def _pad(self, data: bytes) -> bytes:
        if len(data) > self.page_size:
            raise ValueError(
                f"page payload of {len(data)} bytes exceeds page size "
                f"{self.page_size}")
        if len(data) < self.page_size:
            data = data + b"\x00" * (self.page_size - len(data))
        return data

    def _check_page_id(self, page_id: int) -> None:
        if not 0 <= page_id < self.num_pages:
            raise IndexError(
                f"page id {page_id} out of range [0, {self.num_pages})")

    def __enter__(self) -> "PageStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class InMemoryPageStore(PageStore):
    """Pages held in Python memory, with the same accounting as a file."""

    def __init__(self, page_size: int = PAGE_SIZE,
                 stats: Optional[IOStats] = None) -> None:
        super().__init__(page_size, stats)
        self._pages: List[bytes] = []

    @property
    def num_pages(self) -> int:
        return len(self._pages)

    def allocate(self) -> int:
        self._pages.append(bytes(self.page_size))
        return len(self._pages) - 1

    def read_page(self, page_id: int) -> bytes:
        self._check_page_id(page_id)
        self.stats.record_read(hit=False)
        return self._pages[page_id]

    def write_page(self, page_id: int, data: bytes) -> None:
        self._check_page_id(page_id)
        self._pages[page_id] = self._pad(data)
        self.stats.record_write()

    def close(self) -> None:
        self._pages = []


class FilePageStore(PageStore):
    """Pages stored in a real file, one ``page_size`` slot per page."""

    def __init__(self, path: str, page_size: int = PAGE_SIZE,
                 stats: Optional[IOStats] = None) -> None:
        super().__init__(page_size, stats)
        self.path = path
        # "x+b" would refuse existing files; benchmarks recreate stores per
        # run, so truncate-open keeps them self-cleaning.
        self._file = open(path, "w+b")
        self._num_pages = 0

    @property
    def num_pages(self) -> int:
        return self._num_pages

    def allocate(self) -> int:
        page_id = self._num_pages
        self._file.seek(page_id * self.page_size)
        self._file.write(bytes(self.page_size))
        self._num_pages += 1
        return page_id

    def read_page(self, page_id: int) -> bytes:
        self._check_page_id(page_id)
        self.stats.record_read(hit=False)
        self._file.seek(page_id * self.page_size)
        data = self._file.read(self.page_size)
        if len(data) < self.page_size:  # pragma: no cover - torn file
            data = data + b"\x00" * (self.page_size - len(data))
        return data

    def write_page(self, page_id: int, data: bytes) -> None:
        self._check_page_id(page_id)
        self._file.seek(page_id * self.page_size)
        self._file.write(self._pad(data))
        self.stats.record_write()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def unlink(self) -> None:
        """Close and remove the backing file."""
        self.close()
        if os.path.exists(self.path):
            os.unlink(self.path)


# -- checksummed page frames ---------------------------------------------------

#: Frame header: magic (2) + epoch (4) + reserved (2) + CRC-32 (4).  The
#: CRC is last so it can cover every other frame byte, trailing stamp
#: included — a flip anywhere in the frame is caught by exactly one check.
_FRAME_MAGIC = b"\xc5\xf0"
_FRAME_HEADER = struct.Struct("<2sI2sI")
_CRC_AT = _FRAME_HEADER.size - 4
#: Trailing epoch stamp, re-written last; a mismatch against the header
#: epoch means the page write was torn part-way through.
_FRAME_STAMP = struct.Struct("<I")
FRAME_OVERHEAD = _FRAME_HEADER.size + _FRAME_STAMP.size


class ChecksummedPageStore(PageStore):
    """CRC-32-framed pages over an inner store, with torn-write detection.

    Each physical page of the inner store holds one *frame*::

        [magic 2][epoch 4][reserved 2][crc32 4][payload][epoch stamp 4]

    The logical page exposed to clients is the payload — ``page_size`` here
    is the inner store's minus :data:`FRAME_OVERHEAD`, so record files and
    buffer pools layer on top unchanged.  ``epoch`` is a store-wide
    monotonic write counter written at both ends of the frame; a crash that
    tears a page write leaves the two copies disagreeing, which
    :meth:`read_page` reports as a torn write even when the bit pattern
    happens to checksum correctly on one side.  The CRC (``zlib.crc32``)
    covers every other frame byte, so it catches any single flipped bit
    and any burst of up to 32 bits.

    A page that was allocated but never written reads back as all zero
    bytes in the inner store and is served as a zeroed logical page — the
    same fresh-page semantics as the raw stores.
    """

    def __init__(self, inner: PageStore) -> None:
        if inner.page_size <= FRAME_OVERHEAD:
            raise ValueError(
                f"inner page size {inner.page_size} cannot hold a "
                f"{FRAME_OVERHEAD}-byte frame")
        super().__init__(inner.page_size - FRAME_OVERHEAD, inner.stats)
        self.inner = inner
        self._epoch = 0

    @property
    def num_pages(self) -> int:
        return self.inner.num_pages

    def allocate(self) -> int:
        return self.inner.allocate()

    def write_page(self, page_id: int, data: bytes) -> None:
        payload = self._pad(data)
        self._epoch += 1
        epoch = self._epoch & 0xFFFFFFFF
        prefix = _FRAME_MAGIC + struct.pack("<I", epoch) + b"\x00\x00"
        stamp = _FRAME_STAMP.pack(epoch)
        crc = zlib.crc32(prefix + payload + stamp)
        self.inner.write_page(
            page_id, prefix + struct.pack("<I", crc) + payload + stamp)

    def read_page(self, page_id: int) -> bytes:
        raw = self.inner.read_page(page_id)
        reason, payload = self._verify_raw(page_id, raw)
        if reason is not None:
            raise PageCorruptionError(page_id, reason, self._path())
        return payload

    def close(self) -> None:
        self.inner.close()

    # -- verification --------------------------------------------------------

    def verify_page(self, page_id: int) -> Optional[str]:
        """The corruption reason for one page, or ``None`` when intact."""
        reason, _ = self._verify_raw(page_id, self.inner.read_page(page_id))
        return reason

    def scrub(self) -> ScrubReport:
        """Verify every allocated page; never raises."""
        report = ScrubReport()
        report.count("page", self.num_pages)
        for page_id in range(self.num_pages):
            reason = self.verify_page(page_id)
            if reason is not None:
                report.corrupt.append((page_id, reason))
        return report

    def _verify_raw(self, page_id: int,
                    raw: bytes) -> Tuple[Optional[str], bytes]:
        if not any(raw):
            return None, bytes(self.page_size)  # allocated, never written
        magic, epoch, _, crc = _FRAME_HEADER.unpack_from(raw)
        if magic != _FRAME_MAGIC:
            return f"bad frame magic {magic!r}", b""
        (stamp,) = _FRAME_STAMP.unpack_from(raw, len(raw) - _FRAME_STAMP.size)
        if stamp != epoch:
            return (f"torn write (header epoch {epoch}, "
                    f"trailing stamp {stamp})"), b""
        payload = raw[_FRAME_HEADER.size:len(raw) - _FRAME_STAMP.size]
        if zlib.crc32(raw[:_CRC_AT] + raw[_FRAME_HEADER.size:]) != crc:
            return f"checksum mismatch at epoch {epoch}", b""
        return None, payload

    def _path(self) -> Optional[str]:
        path = getattr(self.inner, "path", None)
        return path if isinstance(path, str) else None

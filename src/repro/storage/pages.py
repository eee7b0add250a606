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
from typing import List, Optional

from .stats import IOStats

#: Default page size, matching the common 4 KiB database page.
PAGE_SIZE = 4096


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


"""An LRU buffer pool over a :class:`~repro.storage.pages.PageStore`.

The pool serves reads from cache when possible (counting a cache hit instead
of a physical read) and writes back dirty pages on eviction and on
:meth:`BufferPool.flush`.  It is deliberately simple — no pinning — but it
*is* thread-safe: the serving layer (:mod:`repro.service`) issues reads from
a pool of worker threads, so eviction, recency updates, and the I/O counters
are serialised by one lock.  Single-threaded workloads pay only an
uncontended lock acquire per page access.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from .pages import PageStore
from .stats import IOStats


@dataclass
class _Frame:
    """One resident page: its bytes and whether they are unflushed."""

    data: bytes
    dirty: bool


class BufferPool:
    """Fixed-capacity LRU page cache with write-back semantics."""

    def __init__(self, store: PageStore, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer capacity must be positive: {capacity}")
        self._store = store
        self.capacity = capacity
        # page_id -> frame; ordered by recency, most recent last.
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        # Guards frames, eviction, and the shared I/O counters.  RLock so
        # close() may call flush() without re-entrancy gymnastics.
        self._lock = threading.RLock()

    # -- metrics ------------------------------------------------------------

    @property
    def stats(self) -> IOStats:
        """The underlying store's I/O stats (hits are recorded there too)."""
        return self._store.stats

    @property
    def store(self) -> PageStore:
        """The backing page store (the durability layer scrubs through it)."""
        return self._store

    @property
    def num_cached(self) -> int:
        """Number of pages currently resident."""
        with self._lock:
            return len(self._frames)

    @property
    def page_size(self) -> int:
        return self._store.page_size

    @property
    def num_pages(self) -> int:
        return self._store.num_pages

    # -- operations ------------------------------------------------------------

    def allocate(self) -> int:
        """Allocate a new page in the store (not yet cached)."""
        with self._lock:
            return self._store.allocate()

    def read_page(self, page_id: int) -> bytes:
        """Read a page, via cache when resident."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                self._frames.move_to_end(page_id)
                self.stats.record_read(hit=True)
                return frame.data
            data = self._store.read_page(page_id)
            self._insert(page_id, data, dirty=False)
            return data

    def write_page(self, page_id: int, data: bytes) -> None:
        """Stage a page write; flushed to the store on eviction/flush."""
        if len(data) > self.page_size:
            raise ValueError(
                f"page payload of {len(data)} bytes exceeds page size "
                f"{self.page_size}")
        if len(data) < self.page_size:
            data = data + b"\x00" * (self.page_size - len(data))
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                frame.data = data
                frame.dirty = True
                self._frames.move_to_end(page_id)
            else:
                self._insert(page_id, data, dirty=True)

    def flush(self) -> None:
        """Write every dirty resident page back to the store."""
        with self._lock:
            for page_id, frame in self._frames.items():
                if frame.dirty:
                    self._store.write_page(page_id, frame.data)
                    frame.dirty = False

    def clear(self) -> None:
        """Flush and drop all resident pages (cold-cache reset)."""
        with self._lock:
            self.flush()
            self._frames.clear()

    def close(self) -> None:
        """Flush and close the underlying store."""
        with self._lock:
            self.flush()
            self._store.close()

    # -- internals ------------------------------------------------------------

    def _insert(self, page_id: int, data: bytes, dirty: bool) -> None:
        # Caller holds self._lock.
        while len(self._frames) >= self.capacity:
            evicted_id, evicted = self._frames.popitem(last=False)
            if evicted.dirty:
                self._store.write_page(evicted_id, evicted.data)
        self._frames[page_id] = _Frame(data, dirty)

    def __enter__(self) -> "BufferPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

"""Deterministic corruption injection for durability testing.

Whole-replica loss is already covered by the cluster's
:class:`~repro.cluster.replica.FaultInjector`; this module models the far
more common *partial* failures — a flipped bit, a torn page write, a
truncated file — at the byte level, deterministically under a seed so a
failing chaos run replays exactly.

The injector mutates the **physical** bytes beneath a
:class:`~repro.storage.pages.ChecksummedPageStore` (its ``inner`` store),
which is where real corruption lands: the framing layer must then *detect*
it on read.  Production code never imports this module.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import List, Optional

from .pages import ChecksummedPageStore, _FRAME_STAMP

#: Supported page-corruption kinds, in the order the injector draws them.
PAGE_CORRUPTION_KINDS = ("flip", "truncate", "tear")


@dataclass(frozen=True)
class Corruption:
    """One injected corruption, for replay and assertions."""

    kind: str
    page_id: int
    detail: str


class CorruptionInjector:
    """Seeded bit flips, page truncations, and torn writes.

    All draws come from one private :class:`random.Random`, so a given
    seed produces the same corruption sequence regardless of wall clock or
    interpreter hashing — the property the chaos harness relies on to
    replay a failure.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.log: List[Corruption] = []

    # -- page-level ----------------------------------------------------------

    def corrupt_page(self, store: ChecksummedPageStore,
                     page_id: Optional[int] = None,
                     kind: Optional[str] = None) -> Corruption:
        """Corrupt one (random) page of ``store``'s physical bytes."""
        if store.num_pages == 0:
            raise ValueError("store has no pages to corrupt")
        if page_id is None:
            page_id = self._rng.randrange(store.num_pages)
        if kind is None:
            kind = self._rng.choice(PAGE_CORRUPTION_KINDS)
        inner = store.inner
        raw = bytearray(inner.read_page(page_id))
        if kind == "flip":
            bit = self._rng.randrange(len(raw) * 8)
            raw[bit // 8] ^= 1 << (bit % 8)
            detail = f"bit {bit}"
        elif kind == "truncate":
            keep = self._rng.randrange(1, len(raw))
            raw[keep:] = bytes(len(raw) - keep)
            detail = f"kept {keep} bytes"
        elif kind == "tear":
            # Header and trailing stamp disagree: the classic half-flushed
            # page.  +1 mod 2^32 guarantees a mismatch without relying on
            # the checksum to catch it.
            stamp_at = len(raw) - _FRAME_STAMP.size
            (stamp,) = _FRAME_STAMP.unpack_from(raw, stamp_at)
            _FRAME_STAMP.pack_into(raw, stamp_at, (stamp + 1) & 0xFFFFFFFF)
            detail = f"stamp {stamp} -> {(stamp + 1) & 0xFFFFFFFF}"
        else:
            raise ValueError(f"unknown corruption kind {kind!r}")
        inner.write_page(page_id, bytes(raw))
        corruption = Corruption(kind, page_id, detail)
        self.log.append(corruption)
        return corruption

    # -- file-level ----------------------------------------------------------

    def corrupt_file(self, path: str,
                     offset: Optional[int] = None) -> Corruption:
        """Flip one bit of a file on disk (saved-index blobs, WAL tails)."""
        size = os.path.getsize(path)
        if size == 0:
            raise ValueError(f"cannot corrupt empty file {path}")
        if offset is None:
            offset = self._rng.randrange(size)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ (1 << self._rng.randrange(8))]))
        corruption = Corruption("file-flip", -1, f"{path}@{offset}")
        self.log.append(corruption)
        return corruption

    def truncate_file(self, path: str,
                      keep_bytes: Optional[int] = None) -> Corruption:
        """Cut a file short, as an interrupted append would."""
        size = os.path.getsize(path)
        if keep_bytes is None:
            keep_bytes = self._rng.randrange(size) if size else 0
        with open(path, "r+b") as handle:
            handle.truncate(keep_bytes)
        corruption = Corruption("file-truncate", -1,
                                f"{path} {size} -> {keep_bytes} bytes")
        self.log.append(corruption)
        return corruption

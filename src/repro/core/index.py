"""The DESKS index: four anchor structures plus keyword stores.

As in the paper, the full index is the band/sub-region structure *and* the
keyword lists replicated for all four corners of the dataset MBR — a basic
query in quadrant ``i`` runs entirely against anchor ``i``'s structure, and
a complex query fans out to the anchors its interval touches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..datasets import POICollection
from ..geometry import Anchor, CanonicalFrame
from ..storage import (
    ChecksummedPageStore,
    FilePageStore,
    IOStats,
    InMemoryPageStore,
    PageStore,
    ScrubReport,
)
from .regions import AnchorRegions
from .stores import (
    CompressedDiskKeywordStore,
    DiskKeywordStore,
    MemoryKeywordStore,
    TermPairs,
)

#: Paper guidance (Section VI-A): each band is best at ~10,000 POIs and each
#: sub-region at ~100 POIs; these helpers derive N and M that way.
POIS_PER_BAND = 10_000
POIS_PER_SUBREGION = 100


def recommended_bands(num_pois: int) -> int:
    """N from the paper's ~10k-POIs-per-band rule (at least 1)."""
    return max(1, round(num_pois / POIS_PER_BAND))


def recommended_wedges(num_pois: int, num_bands: Optional[int] = None) -> int:
    """M from the paper's ~100-POIs-per-sub-region rule (at least 1)."""
    bands = num_bands if num_bands is not None else recommended_bands(num_pois)
    per_band = num_pois / bands
    return max(1, round(per_band / POIS_PER_SUBREGION))


@dataclass
class AnchorIndex:
    """One anchor's region structure and keyword store."""

    frame: CanonicalFrame
    regions: AnchorRegions
    store: object  # MemoryKeywordStore | DiskKeywordStore


class DesksIndex:
    """The complete direction-aware index over a POI collection.

    Parameters
    ----------
    collection:
        The POIs to index.
    num_bands, num_wedges:
        The paper's ``N`` and ``M``; defaults follow the paper's tuning
        guidance (~10k POIs per band, ~100 per sub-region).
    disk_based:
        Keyword lists in a paged record file (True) or in memory (False).
    disk_path_prefix:
        When disk-based, store pages in real files ``{prefix}.a{i}.bin``;
        ``None`` keeps pages in memory while still counting page I/O.
    disk_format:
        ``"sliced"`` (default) keeps fixed-width POI lists readable by
        pointer slices — the paper's layout; ``"compressed"`` delta-varint
        encodes them (smaller, but every fetch reads the whole posting;
        see the storage ablation benchmark).
    checksums:
        When disk-based, wrap each anchor's page store in a
        :class:`~repro.storage.ChecksummedPageStore`: every page carries a
        CRC32C frame with torn-write detection, reads of damaged pages
        raise :class:`~repro.storage.PageCorruptionError`, and
        :meth:`scrub` can verify the whole index.
    """

    def __init__(self, collection: POICollection,
                 num_bands: Optional[int] = None,
                 num_wedges: Optional[int] = None,
                 disk_based: bool = False,
                 disk_path_prefix: Optional[str] = None,
                 buffer_capacity: int = 256,
                 anchors: Optional[Sequence[Anchor]] = None,
                 disk_format: str = "sliced",
                 page_size: Optional[int] = None,
                 checksums: bool = False) -> None:
        if disk_format not in ("sliced", "compressed"):
            raise ValueError(
                f"disk_format must be 'sliced' or 'compressed', got "
                f"{disk_format!r}")
        page_kwargs = {} if page_size is None else {"page_size": page_size}
        self.collection = collection
        n = len(collection)
        self.num_bands = (num_bands if num_bands is not None
                          else recommended_bands(n))
        self.num_wedges = (num_wedges if num_wedges is not None
                           else recommended_wedges(n, self.num_bands))
        self.disk_based = disk_based
        self.checksums = checksums and disk_based
        self.io_stats = IOStats()
        self.anchors: List[Optional[AnchorIndex]] = [None] * 4

        locations = [p.location for p in collection]
        term_pairs = TermPairs(
            [collection.term_ids(i) for i in range(n)])
        build_anchors = (list(anchors) if anchors is not None
                         else list(Anchor))

        started = time.perf_counter()
        for anchor in build_anchors:
            frame = CanonicalFrame(anchor, collection.mbr)
            regions = AnchorRegions(frame, locations,
                                    self.num_bands, self.num_wedges)
            if disk_based:
                if disk_path_prefix is not None:
                    page_store = FilePageStore(
                        f"{disk_path_prefix}.a{anchor.value}.bin",
                        stats=self.io_stats, **page_kwargs)
                else:
                    page_store = InMemoryPageStore(stats=self.io_stats,
                                                   **page_kwargs)
                if checksums:
                    page_store = ChecksummedPageStore(page_store)
                store_cls = (DiskKeywordStore if disk_format == "sliced"
                             else CompressedDiskKeywordStore)
                store = store_cls(regions, term_pairs, page_store,
                                  buffer_capacity=buffer_capacity)
            else:
                store = MemoryKeywordStore(regions, term_pairs)
            self.anchors[anchor.value] = AnchorIndex(frame, regions, store)
        self.build_seconds = time.perf_counter() - started

    # -- access ------------------------------------------------------------

    def anchor_index(self, quadrant: int) -> AnchorIndex:
        """The anchor structure serving basic queries in ``quadrant``."""
        anchor = self.anchors[quadrant]
        if anchor is None:
            raise ValueError(
                f"anchor {quadrant} was not built (anchors={self.built_anchors()})")
        return anchor

    def built_anchors(self) -> List[int]:
        """Quadrants whose anchor structures exist."""
        return [i for i, a in enumerate(self.anchors) if a is not None]

    # -- size accounting -------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Approximate total index size across all built anchors.

        Counts the keyword stores plus the region skeleton (radii, angles
        and slice bounds at ~8 bytes per value, poi_order at 4 bytes/POI).
        """
        total = 0
        for anchor in self.anchors:
            if anchor is None:
                continue
            total += anchor.store.size_bytes
            regions = anchor.regions
            total += 8 * (regions.num_bands + 4 * regions.num_subregions)
            total += 4 * len(regions.poi_order)
        return total

    def drop_caches(self) -> None:
        """Evict all disk-store buffer pools (cold-cache runs)."""
        for anchor in self.anchors:
            if anchor is not None and hasattr(anchor.store, "drop_cache"):
                anchor.store.drop_cache()

    # -- durability -------------------------------------------------------------

    def page_stores(self) -> List[PageStore]:
        """The page store beneath each disk-backed anchor (empty when the
        index is memory-resident)."""
        stores: List[PageStore] = []
        for anchor in self.anchors:
            if anchor is not None and hasattr(anchor.store, "page_store"):
                stores.append(anchor.store.page_store)
        return stores

    def scrub(self) -> ScrubReport:
        """Verify every page of every checksummed anchor store.

        Dirty buffered pages are flushed first so the verification covers
        what a crash-then-restart would actually read back.  Raises when
        the index was not built with ``checksums=True`` (there is nothing
        trustworthy to verify).
        """
        if not self.checksums:
            raise ValueError(
                "scrub() needs an index built with checksums=True")
        report = ScrubReport()
        for anchor in self.anchors:
            if anchor is None:
                continue
            anchor.store.flush()
            report.merge(anchor.store.page_store.scrub())
        return report

    def close(self) -> None:
        """Close disk-backed stores."""
        for anchor in self.anchors:
            if anchor is not None and hasattr(anchor.store, "close"):
                anchor.store.close()

    def __enter__(self) -> "DesksIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

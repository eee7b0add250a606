"""The DESKS index: four anchor structures plus keyword stores.

As in the paper, the full index is the band/sub-region structure *and* the
keyword lists replicated for all four corners of the dataset MBR — a basic
query in quadrant ``i`` runs entirely against anchor ``i``'s structure, and
a complex query fans out to the anchors its interval touches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, \
    Sequence

import numpy as np

from ..datasets import POICollection
from ..geometry import Anchor, CanonicalFrame
from ..storage import (
    FilePageStore,
    IOStats,
    InMemoryPageStore,
    PageStore,
)
from .regions import AnchorRegions, Orders
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


class Seed(NamedTuple):
    """What the next build of a mutable index's snapshot reads of the last
    built one (:meth:`DesksIndex._rebuildable`): its term pairs and each
    anchor's :class:`~repro.core.regions.Orders` (``None`` where that
    anchor kept no distance order).  No reference to the index."""

    term_pairs: TermPairs
    orders: List[Optional[Orders]]


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
    """

    def __init__(self, collection: POICollection,
                 num_bands: Optional[int] = None,
                 num_wedges: Optional[int] = None,
                 disk_based: bool = False,
                 disk_path_prefix: Optional[str] = None,
                 buffer_capacity: int = 256,
                 anchors: Optional[Sequence[Anchor]] = None,
                 disk_format: str = "sliced",
                 page_size: Optional[int] = None) -> None:
        if disk_format not in ("sliced", "compressed"):
            raise ValueError(
                f"disk_format must be 'sliced' or 'compressed', got "
                f"{disk_format!r}")
        page_kwargs = {} if page_size is None else {"page_size": page_size}

        def make_store(anchor: Anchor, regions: AnchorRegions):
            if not disk_based:
                return MemoryKeywordStore(regions, self.term_pairs)
            if disk_path_prefix is not None:
                page_store: PageStore = FilePageStore(
                    f"{disk_path_prefix}.a{anchor.value}.bin",
                    stats=self.io_stats, **page_kwargs)
            else:
                page_store = InMemoryPageStore(stats=self.io_stats,
                                               **page_kwargs)
            store_cls = (DiskKeywordStore if disk_format == "sliced"
                         else CompressedDiskKeywordStore)
            return store_cls(regions, self.term_pairs, page_store,
                             buffer_capacity=buffer_capacity)

        self._set_up(collection, num_bands, num_wedges, disk_based)
        self._lay_out(list(anchors) if anchors is not None else list(Anchor),
                      make_store, None, 0)
        # Only the next build of a mutable index reads the distance
        # orders (:meth:`_rebuildable`); a plain index drops them, as a
        # loaded one never had them.
        for anchor in self.anchors:
            if anchor is not None:
                anchor.regions.by_distance = None

    @classmethod
    def _rebuildable(cls, collection: POICollection,
                     num_bands: Optional[int], num_wedges: Optional[int],
                     seed: Optional[Seed] = None,
                     keep: int = 0) -> "DesksIndex":
        """``DesksIndex(collection, num_bands, num_wedges)``, bit for bit,
        that keeps each anchor's distance order for the next such build:
        a :class:`~repro.core.MutableDesksIndex`'s static snapshot.

        Built from ``seed`` (:meth:`_seed` of an index whose collection
        shares its first ``keep`` POIs with ``collection``, as
        :meth:`~repro.datasets.POICollection.derive` keeps them), the sorts
        and the term walk pay for the POIs after ``keep``, not for the
        collection: see :meth:`AnchorRegions.following` and
        :class:`~repro.core.stores.TermPairs`.  An anchor whose frame
        moved (the MBR changed) or whose seed kept no distance order (a
        loaded or a plain index) is built as a fresh one is.
        """
        index = cls.__new__(cls)
        index._set_up(collection, num_bands, num_wedges, False)
        index._lay_out(list(Anchor),
                       lambda anchor, regions: MemoryKeywordStore(
                           regions, index.term_pairs),
                       seed if keep else None, keep)
        return index

    def _seed(self) -> Seed:
        """What :meth:`_rebuildable` needs of this index to build the next
        snapshot after it."""
        return Seed(self.term_pairs,
                    [None if anchor is None else anchor.regions.orders()
                     for anchor in self.anchors])

    def _set_up(self, collection: POICollection, num_bands: Optional[int],
                num_wedges: Optional[int], disk_based: bool) -> None:
        """Every field but the layout's."""
        self.collection = collection
        n = len(collection)
        self.num_bands = (num_bands if num_bands is not None
                          else recommended_bands(n))
        self.num_wedges = (num_wedges if num_wedges is not None
                           else recommended_wedges(n, self.num_bands))
        self.disk_based = disk_based
        self.io_stats = IOStats()
        self.anchors: List[Optional[AnchorIndex]] = [None] * 4
        self._holders: Dict[int, FrozenSet[int]] = {}

    def _lay_out(self, build_anchors: Sequence[Anchor],
                 make_store: Callable[[Anchor, AnchorRegions], object],
                 seed: Optional[Seed], keep: int) -> None:
        """Flatten the term pairs and build each anchor; from ``seed``'s
        orders where it can (see :meth:`_rebuildable`)."""
        collection = self.collection
        #: Every (POI, term) pair, flattened once for all four anchors.
        self.term_pairs = TermPairs(
            collection.term_id_sets,
            seed.term_pairs if seed is not None else None, keep)
        xs = ys = None
        started = time.perf_counter()
        for anchor in build_anchors:
            frame = CanonicalFrame(anchor, collection.mbr)
            before = seed.orders[anchor.value] if seed is not None else None
            if before is not None and before.can_precede(frame):
                regions = AnchorRegions.following(
                    before, frame, keep, collection.xs[keep:],
                    collection.ys[keep:], self.num_bands, self.num_wedges)
            else:
                if xs is None:
                    xs = np.asarray(collection.xs, dtype=np.float64)
                    ys = np.asarray(collection.ys, dtype=np.float64)
                regions = AnchorRegions(frame, xs, ys,
                                        self.num_bands, self.num_wedges)
            self.anchors[anchor.value] = AnchorIndex(
                frame, regions, make_store(anchor, regions))
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

    def holders(self, term_id: int) -> FrozenSet[int]:
        """Ids of the POIs that hold ``term_id``: built on first use from
        :attr:`term_pairs`, so no page is read, and kept for the index's
        life (a mutable index's next snapshot starts with none).  Workers
        sharing the index may build one term's set at once; each stores
        an equal set, so no lock is taken."""
        found = self._holders.get(term_id)
        if found is None:
            pairs = self.term_pairs
            slot = pairs.slot_of.get(term_id)
            found = frozenset() if slot is None else frozenset(
                pairs.poi[pairs.bounds[slot]:pairs.bounds[slot + 1]].tolist())
            self._holders[term_id] = found
        return found

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

    # -- disk --------------------------------------------------------------

    def page_stores(self) -> List[PageStore]:
        """The page store beneath each disk-backed anchor (empty when the
        index is memory-resident)."""
        stores: List[PageStore] = []
        for anchor in self.anchors:
            if anchor is not None and hasattr(anchor.store, "page_store"):
                stores.append(anchor.store.page_store)
        return stores

    def close(self) -> None:
        """Close disk-backed stores."""
        for anchor in self.anchors:
            if anchor is not None and hasattr(anchor.store, "close"):
                anchor.store.close()

    def __enter__(self) -> "DesksIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Keyword stores: the paper's region and POI inverted lists.

For each keyword ``k`` and anchor, the index keeps (Section II-B):

* the **region list** ``LR_k`` — sorted ids of sub-regions containing ``k``,
  each with a *pointer*: the position in the POI list where that
  sub-region's POIs begin;
* the **POI list** ``LP_k`` — ids of POIs containing ``k``, sorted by
  sub-region order and, within a sub-region, by direction.

The pointers let a query read exactly the slice ``LP_k[l_ij, l_ij+1)`` for
sub-region ``R_ij`` — the paper's key trick for cheap per-sub-region
fetches.  Two implementations share the access protocol: an in-memory store
("if we have large memory") and a disk-backed one ("if we have small
memory") that lays both lists out in a paged record file, with POI ids at
fixed width so a pointer slice maps to a byte range.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from itertools import chain
from typing import Collection, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..storage import (
    InMemoryPageStore,
    PageStore,
    RecordFile,
    RecordPointer,
    decode_uint_list,
    encode_sorted_ids,
    decode_sorted_ids,
    encode_uint_list,
)
from .regions import AnchorRegions


class TermPostings:
    """One keyword's region list, and its POI list read by pointer slice.

    A store's view supplies the lists and :meth:`_read` — how entries
    ``[start, end)`` of the POI list are fetched.
    """

    def __init__(self, region_gids: Sequence[int], pointers: Sequence[int],
                 num_pois: int) -> None:
        #: Sorted sub-region gids containing the keyword.
        self.region_gids = region_gids
        self._pointers = pointers
        self._num_pois = num_pois

    def _read(self, start: int, end: int) -> Sequence[int]:
        raise NotImplementedError

    def pois_in(self, gid: int) -> Sequence[int]:
        """POI ids with this keyword inside sub-region ``gid``."""
        idx = bisect_left(self.region_gids, gid)
        if idx == len(self.region_gids) or self.region_gids[idx] != gid:
            return []
        pointers = self._pointers
        end = (pointers[idx + 1] if idx + 1 < len(pointers)
               else self._num_pois)
        return self._read(pointers[idx], end)

    def pois(self) -> Sequence[int]:
        """The whole POI list ``LP_k``: every POI id holding the keyword."""
        return self._read(0, self._num_pois)


#: Per-POI term-id sets (``poi_term_ids[poi_id]``), raw or already flattened.
PoiTermIds = Union["TermPairs", Sequence[Collection[int]]]


class TermPairs:
    """Every (POI, term) pair of a collection, flattened once, term-major.

    The four anchors of an index lay out the same pairs, so the walk over
    the per-POI term sets happens once, here; an anchor's
    :class:`TermLayout` only re-sorts each term's run by that anchor's
    ``poi_order``.  ``slot`` is a term's rank among the terms present.
    """

    __slots__ = ("term", "poi", "bounds", "slot_of")

    def __init__(self, poi_term_ids: Sequence[Collection[int]]) -> None:
        num_pois = len(poi_term_ids)
        counts = np.fromiter((len(terms) for terms in poi_term_ids),
                             dtype=np.int64, count=num_pois)
        term = np.fromiter(chain.from_iterable(poi_term_ids),
                           dtype=np.int64, count=int(counts.sum()))
        poi = np.repeat(np.arange(num_pois, dtype=np.int64), counts)
        # One sort of the fused key (term, poi) orders the pairs; ids are
        # dense and far below 2**31, so the key stays inside int64.
        key = term * num_pois + poi
        key.sort()
        #: Term id of each pair, ascending; and the pair's POI id.
        self.term, self.poi = np.divmod(key, num_pois)
        terms, starts = np.unique(self.term, return_index=True)
        #: Term ``slot`` owns pairs ``[bounds[slot], bounds[slot + 1])``.
        self.bounds = np.append(starts, self.term.size)
        self.slot_of: Dict[int, int] = {
            term_id: slot for slot, term_id in enumerate(terms.tolist())}

    @classmethod
    def of(cls, poi_term_ids: PoiTermIds) -> "TermPairs":
        """``poi_term_ids`` flattened, or itself when it already is."""
        if isinstance(poi_term_ids, cls):
            return poi_term_ids
        return cls(poi_term_ids)


class TermLayout:
    """One anchor's region and POI lists for every term, as flat arrays.

    The paper's ``LP_k`` of all terms lie end to end in :attr:`positions`
    (as positions into the anchor's ``poi_order``, which realises the
    sub-region-major, direction-minor ordering; the POI id at a position
    is ``regions.order_array[position]``), term ``slot`` owning the range
    ``pairs.bounds[slot:slot + 2]``.  The ``LR_k`` lie end to end in
    :attr:`region_gids` with their :attr:`pointers` (relative to the
    start of the term's own POI list), term ``slot`` owning the range
    ``region_bounds[slot:slot + 2]``.
    """

    __slots__ = ("pairs", "order", "positions", "region_gids", "pointers",
                 "region_bounds")

    def __init__(self, regions: AnchorRegions,
                 poi_term_ids: PoiTermIds) -> None:
        pairs = self.pairs = TermPairs.of(poi_term_ids)
        self.order = regions.order_array
        # Sorting the fused key (term, position) sorts each term's run by
        # position; the terms stay where ``pairs.term`` has them.
        term_base = pairs.term * regions.order_array.size
        key = term_base + regions.position_array[pairs.poi]
        key.sort()
        self.positions = key - term_base
        gid_by_position = np.repeat(
            np.arange(regions.num_subregions, dtype=np.int64),
            np.diff(regions.sub_starts))
        gids = gid_by_position[self.positions]
        # A term's region list gets an entry wherever the sub-region
        # changes along its POI list, and at the list's first POI.
        opens_region = np.ones(gids.size, dtype=bool)
        opens_region[1:] = gids[1:] != gids[:-1]
        opens_region[pairs.bounds[:-1]] = True
        region_starts = np.flatnonzero(opens_region)
        self.region_gids = gids[region_starts]
        self.region_bounds = np.searchsorted(region_starts, pairs.bounds)
        self.pointers = region_starts - np.repeat(
            pairs.bounds[:-1], np.diff(self.region_bounds))

    def term_arrays(self, slot: int,
                    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """``(region_gids, pointers, positions)`` of one term: slices of
        the flat arrays, not copies."""
        lo, hi = self.pairs.bounds[slot:slot + 2]
        region_lo, region_hi = self.region_bounds[slot:slot + 2]
        return (self.region_gids[region_lo:region_hi],
                self.pointers[region_lo:region_hi],
                self.positions[lo:hi])

    def term_lists(self, slot: int) -> Tuple[List[int], List[int], List[int]]:
        """``(region_gids, pointers, poi_list)`` of one term."""
        region_gids, pointers, positions = self.term_arrays(slot)
        return (region_gids.tolist(), pointers.tolist(),
                self.order[positions].tolist())


def build_term_layout(regions: AnchorRegions, poi_term_ids: PoiTermIds,
                      ) -> Dict[int, Tuple[List[int], List[int], List[int]]]:
    """Compute, per term, ``(region_gids, pointers, poi_list)``.

    ``poi_term_ids[poi_id]`` is the term-id set of each POI.  POI lists are
    sorted by the anchor's ``poi_order`` position, which realises the
    paper's sub-region-major, direction-minor ordering.
    """
    layout = TermLayout(regions, poi_term_ids)
    return {term_id: layout.term_lists(slot)
            for term_id, slot in layout.pairs.slot_of.items()}


# -- in-memory store ------------------------------------------------------------


class _MemoryTermPostings(TermPostings):
    def __init__(self, region_gids: List[int], pointers: List[int],
                 poi_list: List[int]) -> None:
        super().__init__(region_gids, pointers, len(poi_list))
        self._poi_list = poi_list

    def _read(self, start: int, end: int) -> Sequence[int]:
        return self._poi_list[start:end]


class MemoryKeywordStore:
    """All region/POI lists resident in memory, as one :class:`TermLayout`.

    A term's postings view — plain Python lists, what the searcher's hot
    loop iterates fastest — is cut from the flat arrays on first use and
    kept, so a build allocates per index, not per term.
    """

    def __init__(self, regions: AnchorRegions,
                 poi_term_ids: PoiTermIds) -> None:
        self.layout = TermLayout(regions, poi_term_ids)
        self._views: Dict[int, _MemoryTermPostings] = {}

    def term_postings(self, term_id: int) -> Optional[TermPostings]:
        """The postings view for ``term_id``, or ``None`` when absent."""
        view = self._views.get(term_id)
        if view is None:
            slot = self.layout.pairs.slot_of.get(term_id)
            if slot is None:
                return None
            # Racing first uses both build a view; setdefault keeps one.
            view = self._views.setdefault(
                term_id, _MemoryTermPostings(*self.layout.term_lists(slot)))
        return view

    @property
    def size_bytes(self) -> int:
        """Approximate footprint: 4 bytes per stored integer."""
        layout = self.layout
        return 4 * (2 * layout.region_gids.size + layout.positions.size)


# -- disk-backed store -------------------------------------------------------------


class _DiskTermPostings(TermPostings):
    """Postings view that reads POI slices from the record file.

    The region list (gids + pointers) is decoded eagerly — the paper reads
    ``LR_k`` up front too — while POI slices are fetched lazily by byte
    range, touching only the pages the slice spans.
    """

    def __init__(self, record_file: RecordFile, region_record: RecordPointer,
                 poi_record: RecordPointer) -> None:
        self._file = record_file
        self._poi_record = poi_record
        blob = record_file.read(region_record)
        gids, offset = decode_uint_list(blob)
        pointers, _ = decode_uint_list(blob, offset)
        super().__init__(gids, pointers, poi_record.length // 4)

    def _read(self, start: int, end: int) -> Sequence[int]:
        ptr = RecordPointer(self._poi_record.offset + 4 * start,
                            4 * (end - start))
        blob = self._file.read(ptr)
        return list(struct.unpack(f"<{end - start}I", blob))


class _RecordFileStore:
    """What the disk stores share: the paged record file they append to."""

    def __init__(self, store: Optional[PageStore],
                 buffer_capacity: int) -> None:
        if store is None:
            store = InMemoryPageStore()
        self._file = RecordFile(store, buffer_capacity=buffer_capacity)

    @property
    def io_stats(self):
        """Page-level I/O counters of the backing record file."""
        return self._file.stats

    @property
    def size_bytes(self) -> int:
        """Bytes appended to the record file."""
        return self._file.size_in_bytes

    @property
    def page_store(self):
        """The page store beneath the record file (scrub/injection)."""
        return self._file.page_store

    def flush(self) -> None:
        """Write back dirty buffered pages."""
        self._file.flush()

    def drop_cache(self) -> None:
        """Evict the buffer pool (cold-cache measurements)."""
        self._file.drop_cache()

    def close(self) -> None:
        self._file.close()


class DiskKeywordStore(_RecordFileStore):
    """Region/POI lists in a paged record file behind a buffer pool.

    The term directory (term id -> two record pointers) stays in memory,
    mirroring the paper's in-memory vocabulary over disk-resident lists.
    """

    def __init__(self, regions: AnchorRegions,
                 poi_term_ids: PoiTermIds,
                 store: Optional[PageStore] = None,
                 buffer_capacity: int = 256) -> None:
        super().__init__(store, buffer_capacity)
        self._directory: Dict[int, Tuple[RecordPointer, RecordPointer]] = {}
        layout = build_term_layout(regions, poi_term_ids)
        for term_id in sorted(layout):
            region_gids, pointers, poi_list = layout[term_id]
            region_blob = (encode_uint_list(region_gids)
                           + encode_uint_list(pointers))
            poi_blob = struct.pack(f"<{len(poi_list)}I", *poi_list)
            region_ptr = self._file.append(region_blob)
            poi_ptr = self._file.append(poi_blob)
            self._directory[term_id] = (region_ptr, poi_ptr)
        self._file.flush()

    def term_postings(self, term_id: int) -> Optional[TermPostings]:
        """The postings view for ``term_id``, or ``None`` when absent."""
        pointers = self._directory.get(term_id)
        if pointers is None:
            return None
        return _DiskTermPostings(self._file, *pointers)


# -- compressed disk store (ablation) ---------------------------------------------


class _CompressedTermPostings(TermPostings):
    """Postings view over one delta-compressed record.

    The whole term record — region gids, pointers and the *positions* of
    the POIs in the anchor's ``poi_order`` (sorted, hence delta-friendly)
    — is read and decoded on first access.  Any slice therefore costs the
    full record's pages: this is what the pointer layout of the default
    store is buying.
    """

    def __init__(self, record_file: RecordFile, record: RecordPointer,
                 poi_order: Sequence[int]) -> None:
        blob = record_file.read(record)
        gids, offset = decode_uint_list(blob)
        pointers, offset = decode_uint_list(blob, offset)
        positions, _ = decode_sorted_ids(blob, offset)
        super().__init__(gids, pointers, len(positions))
        self._positions = positions
        self._poi_order = poi_order

    def _read(self, start: int, end: int) -> Sequence[int]:
        return [self._poi_order[p] for p in self._positions[start:end]]


class CompressedDiskKeywordStore(_RecordFileStore):
    """Delta-varint POI lists: smallest on disk, no sliced reads.

    The ablation counterpart of :class:`DiskKeywordStore` (DESIGN.md §4,
    item 4): compression shrinks the index but every sub-region fetch
    reads the keyword's entire posting record.
    """

    def __init__(self, regions: AnchorRegions,
                 poi_term_ids: PoiTermIds,
                 store: Optional[PageStore] = None,
                 buffer_capacity: int = 256) -> None:
        super().__init__(store, buffer_capacity)
        self._poi_order = regions.poi_order
        self._directory: Dict[int, RecordPointer] = {}
        layout = TermLayout(regions, poi_term_ids)
        # slot_of is in ascending term order, like the sliced store's walk.
        for term_id, slot in layout.pairs.slot_of.items():
            region_gids, pointers, positions = layout.term_arrays(slot)
            blob = (encode_uint_list(region_gids.tolist())
                    + encode_uint_list(pointers.tolist())
                    + encode_sorted_ids(positions.tolist()))
            self._directory[term_id] = self._file.append(blob)
        self._file.flush()

    def term_postings(self, term_id: int) -> Optional[TermPostings]:
        """The postings view for ``term_id``, or ``None`` when absent."""
        record = self._directory.get(term_id)
        if record is None:
            return None
        return _CompressedTermPostings(self._file, record, self._poi_order)

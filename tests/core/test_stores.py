"""Tests for the keyword stores (region/POI inverted lists with pointers)."""

import pytest

from repro.core.regions import AnchorRegions
from repro.core.stores import (
    DiskKeywordStore,
    MemoryKeywordStore,
    build_term_layout,
)
from repro.geometry import Anchor, CanonicalFrame, MBR, Point
from repro.storage import InMemoryPageStore


def make_fixture():
    """A small hand-checkable anchor structure with term sets."""
    points = [Point(float(x), float(y))
              for x in range(6) for y in range(6)]
    mbr = MBR.from_points(points)
    frame = CanonicalFrame(Anchor.BOTTOM_LEFT, mbr)
    regions = AnchorRegions(frame, [p.x for p in points],
                            [p.y for p in points], num_bands=3, num_wedges=3)
    # Term 0 everywhere; term 1 on even ids; term 2 on a single POI.
    term_ids = []
    for i in range(len(points)):
        terms = {0}
        if i % 2 == 0:
            terms.add(1)
        if i == 17:
            terms.add(2)
        term_ids.append(frozenset(terms))
    return regions, term_ids


class TestBuildTermLayout:
    def test_poi_lists_follow_poi_order(self):
        regions, term_ids = make_fixture()
        layout = build_term_layout(regions, term_ids)
        gids, pointers, poi_list = layout[0]
        assert poi_list == regions.poi_order  # term 0 is everywhere
        assert gids == [s.gid for s in regions.subregions
                        if s.size > 0]

    def test_pointers_align_with_subregions(self):
        regions, term_ids = make_fixture()
        layout = build_term_layout(regions, term_ids)
        gids, pointers, poi_list = layout[1]
        assert len(gids) == len(pointers)
        assert pointers == sorted(pointers)
        # Every POI in the slice belongs to the claimed sub-region.
        for idx, gid in enumerate(gids):
            start = pointers[idx]
            end = pointers[idx + 1] if idx + 1 < len(gids) else len(poi_list)
            sub = regions.subregions[gid]
            for poi_id in poi_list[start:end]:
                pos = regions.position_of[poi_id]
                assert sub.start <= pos < sub.end

    def test_rare_term(self):
        regions, term_ids = make_fixture()
        layout = build_term_layout(regions, term_ids)
        gids, pointers, poi_list = layout[2]
        assert poi_list == [17]
        assert len(gids) == 1
        assert regions.subregion_of_poi(17).gid == gids[0]


@pytest.fixture(params=["memory", "disk"])
def store(request):
    regions, term_ids = make_fixture()
    if request.param == "memory":
        return regions, MemoryKeywordStore(regions, term_ids)
    return regions, DiskKeywordStore(
        regions, term_ids, InMemoryPageStore(page_size=64))


class TestKeywordStores:
    def test_unknown_term(self, store):
        _, s = store
        assert s.term_postings(99) is None

    def test_region_gids_sorted(self, store):
        _, s = store
        view = s.term_postings(1)
        assert list(view.region_gids) == sorted(view.region_gids)

    def test_pois_in_matches_membership(self, store):
        regions, s = store
        view = s.term_postings(1)
        for gid in view.region_gids:
            pois = list(view.pois_in(gid))
            assert pois, f"empty advertised sub-region {gid}"
            for poi_id in pois:
                assert poi_id % 2 == 0
                assert regions.subregion_of_poi(poi_id).gid == gid

    def test_pois_in_absent_gid(self, store):
        _, s = store
        view = s.term_postings(2)
        missing = [g for g in range(20) if g not in view.region_gids]
        assert list(view.pois_in(missing[0])) == []

    def test_size_bytes_positive(self, store):
        _, s = store
        assert s.size_bytes > 0


class TestDiskStoreIO:
    def test_slice_reads_touch_few_pages(self):
        regions, term_ids = make_fixture()
        page_store = InMemoryPageStore(page_size=64)
        s = DiskKeywordStore(regions, term_ids, page_store,
                             buffer_capacity=4)
        s.drop_cache()
        s.io_stats.reset()
        view = s.term_postings(2)  # rare term: tiny records
        view.pois_in(view.region_gids[0])
        # Region record + one short POI slice: a handful of pages at most.
        assert s.io_stats.logical_reads <= 4

    def test_cold_vs_warm_cache(self):
        regions, term_ids = make_fixture()
        s = DiskKeywordStore(regions, term_ids,
                             InMemoryPageStore(page_size=64),
                             buffer_capacity=64)
        view = s.term_postings(0)
        for gid in view.region_gids:
            view.pois_in(gid)
        s.io_stats.reset()
        view2 = s.term_postings(0)
        for gid in view2.region_gids:
            view2.pois_in(gid)
        assert s.io_stats.physical_reads == 0  # all hits, pool is warm
        assert s.io_stats.cache_hits > 0

    def test_disk_and_memory_agree(self):
        regions, term_ids = make_fixture()
        mem = MemoryKeywordStore(regions, term_ids)
        disk = DiskKeywordStore(regions, term_ids,
                                InMemoryPageStore(page_size=128))
        for term in (0, 1, 2):
            mv = mem.term_postings(term)
            dv = disk.term_postings(term)
            assert list(mv.region_gids) == list(dv.region_gids)
            for gid in mv.region_gids:
                assert list(mv.pois_in(gid)) == list(dv.pois_in(gid))


class TestCompressedStore:
    def make_stores(self):
        from repro.core.stores import CompressedDiskKeywordStore
        regions, term_ids = make_fixture()
        sliced = DiskKeywordStore(regions, term_ids,
                                  InMemoryPageStore(page_size=64))
        compressed = CompressedDiskKeywordStore(
            regions, term_ids, InMemoryPageStore(page_size=64))
        return regions, sliced, compressed

    def test_same_answers_as_sliced(self):
        regions, sliced, compressed = self.make_stores()
        for term in (0, 1, 2):
            sv = sliced.term_postings(term)
            cv = compressed.term_postings(term)
            assert list(sv.region_gids) == list(cv.region_gids)
            for gid in range(regions.num_subregions):
                assert list(sv.pois_in(gid)) == list(cv.pois_in(gid))

    def test_unknown_term(self):
        _, _, compressed = self.make_stores()
        assert compressed.term_postings(42) is None

    def test_empty_range(self):
        regions, _, compressed = self.make_stores()
        view = compressed.term_postings(2)
        absent = set(range(regions.num_subregions)) - set(view.region_gids)
        assert absent
        assert all(list(view.pois_in(gid)) == [] for gid in absent)

    def test_smaller_on_disk(self):
        _, sliced, compressed = self.make_stores()
        assert compressed.size_bytes < sliced.size_bytes

    def test_reads_whole_record(self):
        """A single-sub-region fetch costs the term's full record.

        Needs a posting long enough to span many pages — with a toy list
        the whole compressed record fits in one page and the asymmetry
        vanishes, so this test builds a 900-POI single-term fixture.
        """
        from repro.core.stores import CompressedDiskKeywordStore

        points = [Point(float(x), float(y))
                  for x in range(30) for y in range(30)]
        frame = CanonicalFrame(Anchor.BOTTOM_LEFT, MBR.from_points(points))
        regions = AnchorRegions(frame, [p.x for p in points],
                                [p.y for p in points],
                                num_bands=3, num_wedges=5)
        term_ids = [frozenset({0}) for _ in points]
        sliced = DiskKeywordStore(regions, term_ids,
                                  InMemoryPageStore(page_size=64))
        compressed = CompressedDiskKeywordStore(
            regions, term_ids, InMemoryPageStore(page_size=64))
        gid = sliced.term_postings(0).region_gids[0]

        sliced.drop_cache()
        sliced.io_stats.reset()
        sliced.term_postings(0).pois_in(gid)
        sliced_reads = sliced.io_stats.logical_reads

        compressed.drop_cache()
        compressed.io_stats.reset()
        compressed.term_postings(0).pois_in(gid)
        compressed_reads = compressed.io_stats.logical_reads
        # The compressed store decodes the full 900-entry record; the
        # sliced store touches the region list plus one short slice.
        assert compressed_reads > 2 * sliced_reads

    def test_index_level_equivalence(self):
        import random

        from repro.core import (
            DesksIndex,
            DesksSearcher,
            DirectionalQuery,
            brute_force_search,
        )
        from ..core.conftest import make_collection, random_query_params

        col = make_collection(200, seed=51)
        compressed = DesksSearcher(DesksIndex(
            col, num_bands=3, num_wedges=3, disk_based=True,
            disk_format="compressed"))
        rng = random.Random(52)
        for _ in range(25):
            x, y, a, b, kws, k = random_query_params(rng)
            q = DirectionalQuery.make(x, y, a, b, kws, k)
            got = compressed.search(q).distances()
            expect = brute_force_search(col, q).distances()
            assert [round(d, 9) for d in got] == \
                [round(d, 9) for d in expect]

    def test_bad_disk_format_rejected(self):
        import pytest as _pytest

        from repro.core import DesksIndex
        from ..core.conftest import make_collection

        col = make_collection(20, seed=53)
        with _pytest.raises(ValueError, match="disk_format"):
            DesksIndex(col, num_bands=2, num_wedges=2, disk_based=True,
                       disk_format="nope")

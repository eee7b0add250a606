"""Structure identity: the vectorised build against the pure-Python one.

``reference_layout`` holds the loops the index was built with before
construction moved to numpy.  An index built by the shipped code must be
*the same index*: the same ``poi_order``, band radii, sub-region bounds
and per-term ``(region_gids, pointers, poi_list)``, to the last bit and
on every anchor — answers, ``SearchStats`` and ``IOStats`` are then
unchanged by construction.  The cases aim at the places a sort or a cut
could differ: ties at a band cut, ties at a wedge cut, a POI on the
anchor, duplicates, POIs without keywords.
"""

import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DesksIndex,
    DesksSearcher,
    build_term_layout,
    load_index,
    save_index,
)
from repro.datasets import (
    POI,
    POICollection,
    china_like,
    generate,
    virginia_like,
)
from repro.geometry import Anchor

from ..kernel.conftest import make_collection as corpus_collection
from ..kernel.conftest import make_corpus
from .conftest import make_collection
from .reference_layout import ReferenceRegions, reference_term_layout


def collection_of(points, keywords=("cafe",)):
    """A collection over ``points``; ``keywords`` is one set for all, or a
    list with one set per point."""
    if keywords and isinstance(keywords[0], str):
        keywords = [keywords] * len(points)
    return POICollection([POI.make(i, float(x), float(y), kws)
                          for i, ((x, y), kws) in
                          enumerate(zip(points, keywords))])


def assert_same_structure(index):
    """Every built anchor of ``index`` equals the reference construction."""
    collection = index.collection
    locations = [p.location for p in collection]
    term_ids = [collection.term_id_sets[i] for i in range(len(collection))]
    all_terms = set().union(*term_ids)
    assert index.built_anchors()
    for quadrant in index.built_anchors():
        anchor = index.anchors[quadrant]
        regions = anchor.regions
        reference = ReferenceRegions(anchor.frame, locations,
                                     index.num_bands, index.num_wedges)
        assert regions.poi_order == reference.poi_order
        assert regions.position_of == reference.position_of
        assert ([b.inner_radius for b in regions.bands]
                == reference.band_radii)
        assert ([len(b.subregions) for b in regions.bands]
                == reference.band_wedge_counts)
        assert ([(s.theta_lo, s.theta_hi, s.start, s.end)
                 for s in regions.subregions] == reference.subregions)
        expected = reference_term_layout(
            reference.poi_order,
            [(start, end) for _, _, start, end in reference.subregions],
            term_ids)
        assert set(expected) == all_terms
        assert build_term_layout(regions, term_ids) == expected
        if not index.disk_based:
            for term_id, lists in expected.items():
                view = anchor.store.term_postings(term_id)
                assert (view.region_gids, view._pointers,
                        view._poi_list) == lists
            assert anchor.store.term_postings(len(all_terms) + 7) is None
            assert anchor.store.size_bytes == 4 * sum(
                2 * len(gids) + len(pois)
                for gids, _, pois in expected.values())


# Points whose MBR has its bottom-left corner at the origin, so distances
# and directions to anchor 0 are the ones written here.
ON_ONE_CIRCLE = [(0, 5), (3, 4), (4, 3), (5, 0)]          # all at distance 5
ON_ONE_RAY = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]     # all at pi/4


class TestBoundaryCases:
    def test_equal_distances_straddling_a_band_cut(self):
        # 10 POIs in 2 bands: the cut after 5 would fall inside the run of
        # four at distance 5 (ranks 3-6); the run goes to the first band.
        points = [(0, 0), (1, 0), (0, 2)] + ON_ONE_CIRCLE + [
            (6, 1), (7, 7), (2, 8)]
        index = DesksIndex(collection_of(points), 2, 2)
        assert_same_structure(index)
        regions = index.anchors[0].regions
        assert [b.size for b in regions.bands] == [7, 3]

    def test_equal_directions_straddling_a_wedge_cut(self):
        # One band, 3 wedges over 9 POIs: the cut after 3 falls inside
        # the five POIs at exactly pi/4.
        points = [(5, 0), (6, 1)] + ON_ONE_RAY + [(1, 6), (0, 5)]
        index = DesksIndex(collection_of(points), 1, 3)
        assert_same_structure(index)
        sizes = [s.size for s in index.anchors[0].regions.subregions]
        assert sizes == [7, 2]

    def test_poi_on_the_anchor(self):
        points = [(0, 0), (10, 10), (3, 1), (1, 3), (10, 0), (0, 10)]
        index = DesksIndex(collection_of(points), 2, 2)
        assert_same_structure(index)
        for quadrant in range(4):   # every corner of the MBR holds a POI
            regions = index.anchors[quadrant].regions
            assert regions.distances[regions.poi_order[0]] == 0.0
            assert regions.subregions[0].theta_lo == 0.0

    def test_duplicate_coordinates(self):
        points = [(2, 3)] * 4 + [(0, 0), (9, 9), (2, 3), (5, 1), (5, 1)]
        keywords = [("a",), ("b",), ("a", "b"), ("c",), ("a",), ("b",),
                    ("c",), ("a", "c"), ("a", "c")]
        assert_same_structure(DesksIndex(collection_of(points, keywords),
                                         3, 2))

    def test_pois_with_an_empty_keyword_set(self):
        points = [(0, 0), (4, 1), (1, 4), (6, 6), (3, 3), (8, 2)]
        keywords = [(), ("a",), (), ("a", "b"), (), ("b",)]
        assert_same_structure(DesksIndex(collection_of(points, keywords),
                                         2, 2))

    def test_collection_with_no_keywords_at_all(self):
        points = [(0, 0), (4, 1), (1, 4), (6, 6)]
        index = DesksIndex(collection_of(points, [()] * 4), 2, 2)
        assert_same_structure(index)
        for anchor in index.anchors:
            assert anchor.store.size_bytes == 0
            assert anchor.store.term_postings(0) is None

    def test_one_poi(self):
        assert_same_structure(DesksIndex(collection_of([(3, 4)]), 3, 3))

    def test_one_term(self):
        points = [(x, (7 * x) % 11) for x in range(40)]
        assert_same_structure(DesksIndex(collection_of(points, ("only",)),
                                         3, 4))

    @pytest.mark.parametrize("anchors", [
        [Anchor.BOTTOM_LEFT], [Anchor.TOP_RIGHT],
        [Anchor.BOTTOM_RIGHT, Anchor.TOP_LEFT]])
    def test_anchor_subsets(self, anchors):
        index = DesksIndex(make_collection(n=150, seed=9), 3, 4,
                           anchors=anchors)
        assert index.built_anchors() == sorted(a.value for a in anchors)
        assert_same_structure(index)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6),
                       st.sets(st.sampled_from("abcd"), max_size=3)),
             min_size=1, max_size=40),
    st.integers(1, 5), st.integers(1, 5))
def test_generated_collections(rows, num_bands, num_wedges):
    """A 7x7 integer grid makes ties at cuts, duplicates and POIs on the
    anchors the common case, not the rare one."""
    collection = collection_of([(x, y) for x, y, _ in rows],
                               [tuple(sorted(kws)) for _, _, kws in rows])
    assert_same_structure(DesksIndex(collection, num_bands, num_wedges))


@pytest.mark.parametrize("config", [virginia_like(scale=200),
                                    china_like(scale=800)],
                         ids=["VA/200", "CN/800"])
def test_preset_datasets(config):
    assert_same_structure(DesksIndex(generate(config)))


def test_save_load_save_is_byte_identical(tmp_path):
    index = DesksIndex(make_collection(n=300, seed=3), 3, 5)
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    save_index(index, first)
    loaded = load_index(first)
    assert_same_structure(loaded)
    save_index(loaded, second)
    assert sorted(os.listdir(first)) == sorted(os.listdir(second))
    for name in os.listdir(first):
        with open(os.path.join(first, name), "rb") as a, \
                open(os.path.join(second, name), "rb") as b:
            assert a.read() == b.read(), name


#: Measured at the last commit that built the lists pair by pair:
#: ``(physical_reads, physical_writes, cache_hits)`` after the build and
#: after the 240-query corpus through the region search (the store's
#: page walk), CRC32 over every page, and ``size_bytes``.
DISK_STORE_BASELINE = {
    "sliced": ((60, 60, 60), (948, 60, 5886), 3437833493, 24064),
    "compressed": ((20, 20, 28), (20, 20, 1311), 4035794817, 14436),
}


@pytest.mark.parametrize("disk_format", sorted(DISK_STORE_BASELINE))
def test_disk_store_pages_and_io_counts_do_not_change(disk_format):
    index = DesksIndex(corpus_collection(), 4, 6, disk_based=True,
                       disk_format=disk_format, page_size=256,
                       buffer_capacity=8)
    io = index.io_stats

    def counters():
        return (io.physical_reads, io.physical_writes, io.cache_hits)

    built = counters()
    crc = 0
    for store in index.page_stores():
        for page_id in range(store.num_pages):
            crc = zlib.crc32(store._pages[page_id], crc)
    searcher = DesksSearcher(index)
    for query in make_corpus():
        searcher.search_regions(query)
    assert (built, counters(), crc,
            index.size_bytes) == DISK_STORE_BASELINE[disk_format]

"""Structure identity: the vectorised build against the pure-Python one,
and a rebuild against the fresh build.

``reference_layout`` holds the loops the index was built with before
construction moved to numpy.  An index built by the shipped code must be
*the same index*: the same ``poi_order``, band radii, sub-region bounds
and per-term ``(region_gids, pointers, poi_list)``, to the last bit and
on every anchor — answers, ``SearchStats`` and ``IOStats`` are then
unchanged by construction.  The cases aim at the places a sort or a cut
could differ: ties at a band cut, ties at a wedge cut, a POI on the
anchor, duplicates, POIs without keywords.

A :class:`MutableDesksIndex` rebuild sorts from the previous static
index's orders; after every rebuild of a generated insert / delete /
compact history its static index must equal
``DesksIndex(index.collection, N, M)`` field by field, down to the
bytes :func:`save_index` writes.  A rebuild lays nothing out until a
read needs the index, so a chain of rebuilds builds once, from the last
built snapshot's orders: every such build must be the fresh one too.
"""

import os
import tempfile
import zlib
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    MutableDesksIndex,
    brute_force_search,
    build_term_layout,
    load_index,
    save_index,
)
from repro.core.regions import AnchorRegions
from repro.datasets import (
    POI,
    POICollection,
    SyntheticConfig,
    china_like,
    generate,
    virginia_like,
)
from repro.geometry import Anchor
from repro.trace import Tracer

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


# -- rebuilds: the successor build against the fresh one ---------------------


def bits(values):
    """Floats told apart to the bit, ``0.0`` from ``-0.0``."""
    return [float(value).hex() for value in values]


def assert_same_index(built, fresh):
    """``built`` equals ``fresh`` field by field: the pairs, every
    anchor's orders, bands, sub-regions and ``TermLayout`` arrays."""
    assert (built.num_bands, built.num_wedges) == (fresh.num_bands,
                                                   fresh.num_wedges)
    assert built.built_anchors() == fresh.built_anchors()
    for name in ("term", "poi", "bounds"):
        assert (getattr(built.term_pairs, name).tobytes()
                == getattr(fresh.term_pairs, name).tobytes()), name
    assert built.term_pairs.slot_of == fresh.term_pairs.slot_of
    for quadrant in fresh.built_anchors():
        ours, theirs = built.anchors[quadrant], fresh.anchors[quadrant]
        assert mbr_bits(ours.frame) == mbr_bits(theirs.frame)
        regions, expected = ours.regions, theirs.regions
        assert regions.poi_order == expected.poi_order
        assert regions.position_of == expected.position_of
        for name in ("distances", "thetas", "by_distance", "order_array",
                     "position_array", "sub_starts"):
            assert (getattr(regions, name).tobytes()
                    == getattr(expected, name).tobytes()), name
        assert ([bits((b.inner_radius, b.outer_radius)) + [b.size]
                 for b in regions.bands]
                == [bits((b.inner_radius, b.outer_radius)) + [b.size]
                    for b in expected.bands])
        assert ([bits((s.theta_lo, s.theta_hi)) + [s.start, s.end]
                 for s in regions.subregions]
                == [bits((s.theta_lo, s.theta_hi)) + [s.start, s.end]
                    for s in expected.subregions])
        layout, reference = ours.store.layout, theirs.store.layout
        for name in ("order", "positions", "region_gids", "pointers",
                     "region_bounds"):
            assert (getattr(layout, name).tobytes()
                    == getattr(reference, name).tobytes()), name


def mbr_bits(frame):
    return bounds_bits(frame.mbr)


def bounds_bits(mbr):
    return bits((mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y))


def saved_bytes(index):
    """Every file :func:`save_index` writes for ``index``, by name."""
    with tempfile.TemporaryDirectory() as directory:
        target = os.path.join(directory, "index")
        save_index(index, target)
        files = {}
        for name in sorted(os.listdir(target)):
            with open(os.path.join(target, name), "rb") as handle:
                files[name] = handle.read()
        return files


def assert_rebuilt_as_fresh(index, num_bands, num_wedges):
    # A mutable index's snapshot keeps its distance orders for the next
    # rebuild; a plain build drops them once laid out, and is otherwise
    # the same build (test_only_a_mutable_index_keeps_its_distance_orders).
    fresh = DesksIndex._rebuildable(index.collection, num_bands, num_wedges)
    assert_same_index(index.static_index, fresh)
    return fresh


class Builds:
    """Counts which constructor built each anchor's regions."""

    def __init__(self, monkeypatch):
        self.fresh = self.following = self.seeded = 0
        build, following, lay_out = (AnchorRegions.__init__,
                                     AnchorRegions.following.__func__,
                                     AnchorRegions._lay_out)

        def counting_build(regions, *args):
            self.fresh += 1
            build(regions, *args)

        def counting_following(cls, *args):
            self.following += 1
            return following(cls, *args)

        def counting_lay_out(regions, *args):
            self.seeded += args[-1] is not None
            lay_out(regions, *args)

        monkeypatch.setattr(AnchorRegions, "__init__", counting_build)
        monkeypatch.setattr(AnchorRegions, "following",
                            classmethod(counting_following))
        monkeypatch.setattr(AnchorRegions, "_lay_out", counting_lay_out)


def grid_collection(side, keywords=("a", "b", "c")):
    """``side`` x ``side`` integer points (ties in distance and in
    direction everywhere), keywords dealt round-robin."""
    return collection_of(
        [(x, y) for x in range(side) for y in range(side)],
        [(keywords[i % len(keywords)],) for i in range(side * side)])


class TestRebuildPaths:
    """Which build each kind of rebuild takes, and that each gives the
    fresh build's index."""

    def test_a_compaction_of_appends_sorts_from_the_previous_orders(
            self, monkeypatch):
        index = MutableDesksIndex(make_collection(n=300, seed=4), 2, 3)
        for step in range(5):
            index.insert(10.5 + step, 20.25 + 3 * step, ["cafe", "new"])
        builds = Builds(monkeypatch)
        assert index.compact()
        index.static_index      # builds the compacted snapshot
        assert (builds.fresh, builds.following, builds.seeded) == (0, 4, 4)
        assert_rebuilt_as_fresh(index, 2, 3)

    def test_a_direction_shared_with_a_kept_poi_sorts_each_band(
            self, monkeypatch):
        index = MutableDesksIndex(grid_collection(6), 2, 2)
        index.insert(2.0, 2.0, ["a"])      # on the diagonal of anchor 0
        builds = Builds(monkeypatch)
        assert index.compact()
        index.static_index      # builds the compacted snapshot
        assert builds.following == 4 and builds.seeded < 4
        assert_rebuilt_as_fresh(index, 2, 2)

    def test_an_insert_that_grows_the_mbr_builds_afresh(self, monkeypatch):
        index = MutableDesksIndex(grid_collection(5), 2, 2)
        index.insert(9.0, 1.0, ["b"])
        builds = Builds(monkeypatch)
        assert index.compact()
        index.static_index      # builds the compacted snapshot
        assert (builds.fresh, builds.following) == (4, 0)
        assert_rebuilt_as_fresh(index, 2, 2)

    def test_a_static_tombstone_keeps_the_prefix_before_it(
            self, monkeypatch):
        index = MutableDesksIndex(grid_collection(6), 2, 3)
        for first in (17, 0):
            assert index.delete(first) and index.delete(first + 5)
            index.insert(2.5, 1.5, ["c", "d"])
            builds = Builds(monkeypatch)
            assert index.compact()
            index.static_index      # builds the compacted snapshot
            # A tombstone at id 0 keeps nothing: every sort starts afresh.
            assert builds.following == (4 if first else 0)
            assert_rebuilt_as_fresh(index, 2, 3)
            monkeypatch.undo()

    def test_a_loaded_index_sorts_afresh_once(self, tmp_path, monkeypatch):
        save_index(DesksIndex(grid_collection(7), 2, 3), str(tmp_path / "i"))
        index = MutableDesksIndex.from_static(load_index(str(tmp_path / "i")))
        counts = []
        for rebuild in range(2):
            index.insert(3.5, 2.5 + rebuild, ["a"])
            builds = Builds(monkeypatch)
            assert index.compact()
            index.static_index      # builds the compacted snapshot
            counts.append((builds.fresh, builds.following))
            monkeypatch.undo()
            assert_rebuilt_as_fresh(index, 2, 3)
        assert counts == [(4, 0), (0, 4)]

    def test_bands_and_wedges_follow_the_collection_size(self):
        # Unset N and M track n: 144 -> 156 POIs moves M from 1 to 2.
        index = MutableDesksIndex(grid_collection(12), rebuild_threshold=1.0)
        for step in range(12):
            index.insert(1.5 + step * 0.5, 7.25, ["b"])
        assert index.compact()
        fresh = assert_rebuilt_as_fresh(index, None, None)
        assert (fresh.num_bands, fresh.num_wedges) == (1, 2)

    def test_band_count_crossing_recommended_bands(self):
        # 14 995 POIs take N = 1; 15 005 take N = 2 (recommended_bands).
        collection = generate(SyntheticConfig(
            name="cross", num_pois=14_995, num_unique_terms=300,
            avg_terms_per_poi=2.0, seed=31))
        index = MutableDesksIndex(collection)
        assert index.static_index.num_bands == 1
        mbr = collection.mbr
        for step in range(10):
            index.insert(mbr.min_x + (step + 1) * 0.01 * mbr.width,
                         mbr.min_y + 0.5 * mbr.height, ["crossing"])
        assert index.compact()
        fresh = assert_rebuilt_as_fresh(index, None, None)
        assert fresh.num_bands == 2

    def test_rebuild_saves_the_bytes_a_fresh_build_saves(self):
        index = MutableDesksIndex(make_collection(n=200, seed=8), 3, 4)
        index.insert(50.0, 50.0, ["cafe"])
        index.delete(120)
        index.insert(0.0, 0.0, ["park"])
        assert index.compact()
        fresh = assert_rebuilt_as_fresh(index, 3, 4)
        assert saved_bytes(index.static_index) == saved_bytes(fresh)


def test_only_a_mutable_index_keeps_its_distance_orders(monkeypatch):
    collection = make_collection(n=300, seed=4)
    plain = DesksIndex(collection, 2, 3)
    assert all(plain.anchors[quadrant].regions.by_distance is None
               for quadrant in plain.built_anchors())
    kept = DesksIndex._rebuildable(collection, 2, 3)
    for quadrant in plain.built_anchors():
        assert (plain.anchors[quadrant].regions.order_array.tobytes()
                == kept.anchors[quadrant].regions.order_array.tobytes())
    assert saved_bytes(plain) == saved_bytes(kept)
    index = MutableDesksIndex(collection, 2, 3)
    index.insert(10.5, 20.25, ["cafe"])
    builds = Builds(monkeypatch)
    assert index.compact()
    index.static_index      # builds the compacted snapshot
    assert (builds.fresh, builds.following) == (0, 4)
    assert_rebuilt_as_fresh(index, 2, 3)


#: Coordinates of a 0..8 grid, with a rare step outside it (an insert
#: that grows the MBR).
COORDINATE = st.one_of(st.integers(0, 8), st.integers(0, 8),
                       st.integers(0, 8), st.integers(-2, 10))

OPERATION = st.one_of(
    st.tuples(st.just("insert"), COORDINATE, COORDINATE,
              st.sets(st.sampled_from("abcde"), max_size=3)),
    st.tuples(st.just("insert"), COORDINATE, COORDINATE,
              st.sets(st.sampled_from("abcde"), max_size=3)),
    # A tombstone at id 0 is drawn on purpose, not by luck.
    st.tuples(st.just("delete"), st.one_of(st.just(0),
                                           st.integers(0, 200))),
    st.tuples(st.just("compact")))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                       st.sets(st.sampled_from("abcd"), max_size=3)),
             min_size=1, max_size=40),
    st.lists(OPERATION, min_size=1, max_size=40),
    st.sampled_from([(None, None), (1, 1), (2, 3), (3, 2), (4, 5)]),
    st.sampled_from([0.1, 0.3, 1.0]),
    st.booleans())
def test_generated_histories(rows, operations, shape, threshold, loaded):
    """After every rebuild — a ``compact()`` or a threshold rebuild inside
    ``insert``/``delete`` — the static index is the fresh build's."""
    num_bands, num_wedges = shape
    collection = collection_of([(x, y) for x, y, _ in rows],
                               [tuple(sorted(kws)) for _, _, kws in rows])
    if loaded:
        with tempfile.TemporaryDirectory() as directory:
            save_index(DesksIndex(collection, num_bands, num_wedges),
                       directory + "/index")
            index = MutableDesksIndex.from_static(
                load_index(directory + "/index"), threshold)
        # from_static keeps the loaded N and M, never None.
        num_bands, num_wedges = (index.static_index.num_bands,
                                 index.static_index.num_wedges)
    else:
        index = MutableDesksIndex(collection, num_bands, num_wedges,
                                  rebuild_threshold=threshold)
    rebuilds = index.rebuild_count
    for operation in operations:
        if operation[0] == "insert":
            _, x, y, keywords = operation
            index.insert(float(x), float(y), sorted(keywords))
        elif operation[0] == "delete":
            total = len(index.collection) + index.num_pending
            index.delete(operation[1] % total)
        else:
            index.compact()
        if index.rebuild_count != rebuilds:
            rebuilds = index.rebuild_count
            assert_rebuilt_as_fresh(index, num_bands, num_wedges)
    if rebuilds:
        fresh = DesksIndex(index.collection, num_bands, num_wedges)
        assert saved_bytes(index.static_index) == saved_bytes(fresh)


# -- deferred builds: a chain of rebuilds, then the read that builds -------


READ_OPERATION = st.tuples(st.just("read"), st.integers(0, 8),
                           st.integers(0, 8), st.sampled_from("abcde"),
                           st.integers(1, 4))
CHAINED_OPERATION = st.one_of(OPERATION, st.tuples(st.just("compact")),
                               READ_OPERATION)


class ChainedHistory:
    """One generated history whose reads are the only thing that builds
    a static index; each build is checked against the fresh one."""

    def __init__(self, index, shape, loaded, seen):
        self.index = index
        self.shape = shape
        self.seen = seen
        self.loaded = loaded
        self.deleted = set()    # tombstones since the last rebuild
        # One (kept prefix, threshold?, moved the MBR?) per rebuild since
        # the last build.
        self.chain = []
        self.builds = 0

    def run(self, operation):
        index = self.index
        kind = operation[0]
        if kind == "read":
            self.read(*operation[1:])
            return
        before, collection = index.rebuild_count, index.collection
        if kind == "insert":
            _, x, y, keywords = operation
            index.insert(float(x), float(y), sorted(keywords))
        elif kind == "delete":
            poi_id = operation[1] % (len(collection) + index.num_pending)
            if index.delete(poi_id):
                self.deleted.add(poi_id)
        else:
            index.compact()
        if index.rebuild_count != before:
            self.chain.append((
                collection.kept_prefix(self.deleted), kind != "compact",
                bounds_bits(index.collection.mbr)
                != bounds_bits(collection.mbr)))
            self.deleted = set()

    def read(self, x, y, keyword, k):
        index = self.index
        query = DirectionalQuery.undirected(float(x), float(y), [keyword], k)
        tracer = Tracer()
        with tracer.activate():
            result = index.search(query)
        assert result.entries == brute_force_search(
            index.live_pois(), query).entries
        build = tracer.find("desks.build")
        if build is None:
            self.seen["reads without a build"] += 1
            return
        chain, self.chain = self.chain, []
        keeps = [keep for keep, _, _ in chain]
        assert build.attrs == {"keep": min(keeps),
                               "compactions": len(chain)}
        assert_rebuilt_as_fresh(index, *self.shape)
        assert saved_bytes(index.static_index) == saved_bytes(
            DesksIndex(index.collection, *self.shape))
        self.tally(chain, keeps)
        self.builds += 1

    def tally(self, chain, keeps):
        seen = self.seen
        seen["chain of %s" % (len(chain) if len(chain) < 4 else "4+")] += 1
        seen["threshold rebuild in a chain"] += any(t for _, t, _ in chain)
        seen["tombstone mid-chain"] += min(keeps[:-1], default=keeps[-1]) \
            < keeps[-1]
        seen["MBR moved mid-chain"] += any(m for _, _, m in chain[:-1])
        seen["loaded seed"] += self.loaded and not self.builds


def test_generated_chains_build_once_as_fresh():
    """A read that misses both caches is the only thing that builds here:
    each build follows a chain of 1-4+ rebuilds (compactions and threshold
    rebuilds), sorts from the last built snapshot with the chain's
    shortest kept prefix, and is the fresh build's index."""
    seen = Counter()

    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                           st.sets(st.sampled_from("abcd"), max_size=3)),
                 min_size=1, max_size=30),
        st.lists(CHAINED_OPERATION, min_size=5, max_size=60),
        st.sampled_from([(None, None), (1, 1), (2, 3), (4, 5)]),
        st.sampled_from([0.1, 0.3, 1.0]),
        st.booleans())
    def run(rows, operations, shape, threshold, loaded):
        collection = collection_of(
            [(x, y) for x, y, _ in rows],
            [tuple(sorted(kws)) for _, _, kws in rows])
        if loaded:
            with tempfile.TemporaryDirectory() as directory:
                save_index(DesksIndex(collection, *shape),
                           directory + "/index")
                index = MutableDesksIndex.from_static(
                    load_index(directory + "/index"), threshold)
            shape = (index.static_index.num_bands,
                     index.static_index.num_wedges)
        else:
            index = MutableDesksIndex(collection, *shape,
                                      rebuild_threshold=threshold)
        history = ChainedHistory(index, shape, loaded, seen)
        for operation in operations:
            history.run(operation)

    run()
    for needed in ("reads without a build", "chain of 1", "chain of 2",
                   "chain of 3", "chain of 4+",
                   "threshold rebuild in a chain",
                   "tombstone mid-chain", "MBR moved mid-chain",
                   "loaded seed"):
        assert seen[needed] >= 1, seen

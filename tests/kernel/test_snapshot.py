"""Structural invariants of the columnar snapshot's memory layout.

These pin the documented contract of ``repro.kernel.snapshot`` (see the
module docstring's table and ``docs/KERNEL.md``): positional indexing by
``poi_order``, contiguous wedge slices, sorted term runs.  The search
kernel assumes every one of these without checking.
"""

import numpy as np
import pytest

from repro.core import DesksIndex
from repro.datasets import china_like, generate
from repro.kernel import ColumnarSnapshot


def built_anchors(snapshot):
    return [columns for columns in snapshot.anchors if columns is not None]


def test_sub_starts_are_monotone_slice_bounds(snapshot):
    for columns in built_anchors(snapshot):
        starts = columns.sub_starts
        assert starts[0] == 0
        assert starts[-1] == columns.xs.size
        assert np.all(np.diff(starts) >= 0)
        assert starts.size == columns.regions.num_subregions + 1


def test_poi_ids_is_the_poi_order_permutation(snapshot, collection):
    for columns in built_anchors(snapshot):
        ids = columns.poi_ids
        assert ids.size == len(collection)
        assert np.array_equal(np.sort(ids), np.arange(len(collection)))
        assert ids.tolist() == list(columns.regions.poi_order)


def test_coordinates_are_world_coordinates(snapshot, collection):
    for columns in built_anchors(snapshot):
        for position in range(0, columns.xs.size, 37):
            location = collection.location(int(columns.poi_ids[position]))
            assert columns.xs[position] == location.x
            assert columns.ys[position] == location.y


def test_wedge_slices_partition_the_positions(snapshot):
    for columns in built_anchors(snapshot):
        covered = 0
        for gid in range(columns.regions.num_subregions):
            lo = int(columns.sub_starts[gid])
            hi = int(columns.sub_starts[gid + 1])
            assert hi - lo == columns.regions.subregions[gid].size
            covered += hi - lo
        assert covered == columns.xs.size


def test_term_runs_are_sorted_unique_and_complete(snapshot, collection):
    for columns in built_anchors(snapshot):
        total = 0
        for term_id, term in columns.terms.items():
            positions = term.positions
            assert np.all(np.diff(positions) > 0)  # sorted, no duplicates
            gids = np.unique(np.searchsorted(columns.sub_starts, positions,
                                             side="right") - 1)
            assert np.array_equal(gids, term.region_gids)
            for position in positions[::11]:
                poi_id = int(columns.poi_ids[int(position)])
                assert term_id in collection.term_ids(poi_id)
            total += positions.size
        # Every (POI, term) pair appears exactly once.
        expected = sum(len(collection.term_ids(poi_id))
                       for poi_id in range(len(collection)))
        assert total == expected


def test_dtypes_match_the_documented_table(snapshot):
    for columns in built_anchors(snapshot):
        assert columns.xs.dtype == np.float64
        assert columns.ys.dtype == np.float64
        assert columns.poi_ids.dtype == np.int64
        assert columns.sub_starts.dtype == np.int64
        for term in columns.terms.values():
            assert term.positions.dtype == np.int64
            assert term.region_gids.dtype == np.int64


def test_nbytes_counts_every_array(snapshot):
    assert snapshot.nbytes == sum(columns.nbytes
                                  for columns in built_anchors(snapshot))
    assert snapshot.nbytes > 0
    assert snapshot.build_seconds >= 0.0


def test_term_columns_are_views_of_the_stores_arrays(index, snapshot):
    """Shared, not copied: the keyword columns, ``poi_ids`` and
    ``sub_starts`` are the index's own arrays; only ``xs``/``ys`` are
    gathered per snapshot."""
    for columns in built_anchors(snapshot):
        anchor = index.anchors[columns.quadrant]
        layout = anchor.store.layout
        assert columns.poi_ids is anchor.regions.order_array
        assert columns.sub_starts is anchor.regions.sub_starts
        assert len(columns.terms) == len(layout.pairs.slot_of)
        for term_id, term in columns.terms.items():
            assert np.shares_memory(term.positions, layout.positions)
            assert np.shares_memory(term.region_gids, layout.region_gids)
            assert columns.terms.get(term_id) is term   # made once, kept
        assert columns.terms.get(len(columns.terms) + 7) is None


def test_disk_backed_index_compiles_to_the_same_columns(collection, snapshot):
    """A disk store keeps no layout; the snapshot lays one out itself."""
    on_disk = ColumnarSnapshot(DesksIndex(collection, num_bands=4,
                                          num_wedges=6, disk_based=True))
    assert on_disk.nbytes == snapshot.nbytes
    for ours, theirs in zip(built_anchors(on_disk), built_anchors(snapshot)):
        assert np.array_equal(ours.xs, theirs.xs)
        assert list(ours.terms) == list(theirs.terms)
        for term_id, term in theirs.terms.items():
            assert np.array_equal(ours.terms[term_id].positions,
                                  term.positions)
            assert np.array_equal(ours.terms[term_id].region_gids,
                                  term.region_gids)


def test_nbytes_on_the_benchmark_dataset_is_unchanged():
    """``kernel.snapshot.nbytes`` of the end-to-end benchmark (CN/800)."""
    cn800 = generate(china_like(scale=800))
    assert ColumnarSnapshot(DesksIndex(cn800)).nbytes == 5_917_152


def test_missing_anchor_raises(collection):
    snapshot = ColumnarSnapshot(DesksIndex(collection))
    quadrant = next(q for q, columns in enumerate(snapshot.anchors)
                    if columns is not None)
    snapshot.anchors[quadrant] = None
    with pytest.raises(ValueError, match="was not built"):
        snapshot.anchor_columns(quadrant)


def test_from_index_alias(index):
    snapshot = ColumnarSnapshot.from_index(index)
    assert snapshot.index is index

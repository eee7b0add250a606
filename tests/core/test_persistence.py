"""Tests for index save/load (core.persistence + regions blobs)."""

import json
import math
import random

import pytest

from repro.core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    load_index,
    save_index,
)
from repro.core.regions import AnchorRegions
from repro.geometry import Anchor, CanonicalFrame, MBR, Point

from .conftest import make_collection, random_query_params


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    collection = make_collection(250, seed=41)
    index = DesksIndex(collection, num_bands=4, num_wedges=5)
    directory = tmp_path_factory.mktemp("idx") / "desks"
    save_index(index, str(directory))
    return collection, index, directory


class TestRegionsBlob:
    def make_regions(self):
        rng = random.Random(3)
        points = [Point(rng.uniform(0, 50), rng.uniform(0, 50))
                  for _ in range(120)]
        frame = CanonicalFrame(Anchor.TOP_RIGHT, MBR.from_points(points))
        return AnchorRegions(frame, points, 4, 3), frame, points

    def test_round_trip_structure(self):
        regions, frame, points = self.make_regions()
        restored = AnchorRegions.from_blob(frame, points, regions.to_blob())
        assert restored.poi_order == regions.poi_order
        assert restored.position_of == regions.position_of
        assert restored.num_bands == regions.num_bands
        assert restored.num_subregions == regions.num_subregions
        for a, b in zip(regions.bands, restored.bands):
            assert a.inner_radius == b.inner_radius
            assert a.outer_radius == b.outer_radius
        for a, b in zip(regions.subregions, restored.subregions):
            assert (a.gid, a.band_index, a.start, a.end) == \
                (b.gid, b.band_index, b.start, b.end)
            assert a.theta_lo == b.theta_lo
            assert a.theta_hi == b.theta_hi

    def test_wrong_collection_size_rejected(self):
        regions, frame, points = self.make_regions()
        with pytest.raises(ValueError, match="indexes"):
            AnchorRegions.from_blob(frame, points[:-1], regions.to_blob())

    def test_truncated_blob_rejected(self):
        regions, frame, points = self.make_regions()
        blob = regions.to_blob()
        with pytest.raises(ValueError):
            AnchorRegions.from_blob(frame, points, blob[:10])


class TestSaveIndex:
    def test_files_written(self, saved):
        _, _, directory = saved
        assert (directory / "meta.json").exists()
        assert (directory / "pois.csv").exists()
        for quadrant in range(4):
            assert (directory / f"anchor{quadrant}.bin").exists()

    def test_meta_contents(self, saved):
        _, index, directory = saved
        meta = json.loads((directory / "meta.json").read_text())
        assert meta["num_bands"] == index.num_bands
        assert meta["num_wedges"] == index.num_wedges
        assert meta["num_pois"] == len(index.collection)

    def test_disk_based_rejected(self, tmp_path):
        collection = make_collection(30, seed=2)
        index = DesksIndex(collection, num_bands=2, num_wedges=2,
                           disk_based=True)
        with pytest.raises(ValueError, match="disk-based"):
            save_index(index, str(tmp_path / "nope"))


class TestLoadIndex:
    def test_round_trip_answers_identical(self, saved):
        collection, index, directory = saved
        loaded = load_index(str(directory))
        original = DesksSearcher(index)
        restored = DesksSearcher(loaded)
        rng = random.Random(6)
        for _ in range(40):
            x, y, a, b, kws, k = random_query_params(rng)
            q = DirectionalQuery.make(x, y, a, b, kws, k)
            assert restored.search(q).distances() == pytest.approx(
                original.search(q).distances())

    def test_loaded_structure_matches(self, saved):
        _, index, directory = saved
        loaded = load_index(str(directory))
        assert loaded.num_bands == index.num_bands
        assert loaded.built_anchors() == index.built_anchors()
        for quadrant in range(4):
            assert (loaded.anchor_index(quadrant).regions.poi_order
                    == index.anchor_index(quadrant).regions.poi_order)

    def test_loaded_index_has_every_field_of_a_built_one(self, saved):
        _, index, directory = saved
        loaded = load_index(str(directory))
        assert vars(loaded).keys() == vars(index).keys()
        for probe in (index, loaded):
            with pytest.raises(ValueError, match="checksums=True"):
                probe.scrub()

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(str(tmp_path / "missing"))

    def test_version_mismatch(self, saved, tmp_path):
        _, _, directory = saved
        import shutil
        copy = tmp_path / "v99"
        shutil.copytree(directory, copy)
        meta = json.loads((copy / "meta.json").read_text())
        meta["version"] = 99
        (copy / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version"):
            load_index(str(copy))

    def test_poi_count_mismatch(self, saved, tmp_path):
        _, _, directory = saved
        import shutil
        copy = tmp_path / "short"
        shutil.copytree(directory, copy)
        lines = (copy / "pois.csv").read_text().splitlines()
        (copy / "pois.csv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="promises"):
            load_index(str(copy))

    def test_partial_anchor_save(self, tmp_path):
        collection = make_collection(60, seed=3)
        index = DesksIndex(collection, num_bands=2, num_wedges=2,
                           anchors=[Anchor.BOTTOM_LEFT])
        directory = tmp_path / "partial"
        save_index(index, str(directory))
        loaded = load_index(str(directory))
        assert loaded.built_anchors() == [0]
        q = DirectionalQuery.make(50, 50, 0.1, 1.0, ["cafe"], 3)
        assert DesksSearcher(loaded).search(q).distances() == \
            pytest.approx(DesksSearcher(index).search(q).distances())


class TestPersistenceProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=15, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.floats(0, 50).map(lambda v: round(v, 2)),
                  st.floats(0, 50).map(lambda v: round(v, 2)),
                  st.sets(st.sampled_from("abcd"), min_size=1, max_size=3)),
        min_size=1, max_size=30),
        bands=st.integers(1, 4), wedges=st.integers(1, 4))
    def test_round_trip_any_collection(self, rows, bands, wedges,
                                       tmp_path_factory):
        import math
        import random as _random

        from repro.core import brute_force_search
        from repro.datasets import POI, POICollection

        col = POICollection([POI.make(i, x, y, ks)
                             for i, (x, y, ks) in enumerate(rows)])
        index = DesksIndex(col, num_bands=bands, num_wedges=wedges)
        directory = tmp_path_factory.mktemp("prt") / "idx"
        save_index(index, str(directory))
        loaded = load_index(str(directory))
        searcher = DesksSearcher(loaded)
        rng = _random.Random(1)
        for _ in range(5):
            a = rng.uniform(0, 2 * math.pi)
            q = DirectionalQuery.make(
                rng.uniform(0, 50), rng.uniform(0, 50),
                a, a + rng.uniform(0.1, 6.0),
                rng.sample("abcd", rng.randint(1, 2)), 5)
            assert searcher.search(q).distances() == pytest.approx(
                brute_force_search(loaded.collection, q).distances())

    def test_missing_anchor_file(self, saved, tmp_path):
        import shutil

        _, _, directory = saved
        copy = tmp_path / "noanchor"
        shutil.copytree(directory, copy)
        (copy / "anchor2.bin").unlink()
        with pytest.raises(FileNotFoundError):
            load_index(str(copy))

    def test_corrupt_anchor_blob(self, saved, tmp_path):
        import shutil

        _, _, directory = saved
        copy = tmp_path / "corrupt"
        shutil.copytree(directory, copy)
        (copy / "anchor1.bin").write_bytes(b"\x07garbage")
        with pytest.raises(ValueError):
            load_index(str(copy))


class TestExtraFiles:
    def test_extras_ride_the_atomic_swap(self, tmp_path):
        collection = make_collection(40, seed=8)
        index = DesksIndex(collection, num_bands=2, num_wedges=2)
        directory = tmp_path / "extras"
        save_index(index, str(directory),
                   extra_files={"marker.json": b'{"op_seq": 7}'})
        assert (directory / "marker.json").read_bytes() == b'{"op_seq": 7}'
        load_index(str(directory), verify=True)  # manifest covers extras

    def test_extras_are_checksummed(self, tmp_path):
        from repro.core.persistence import PersistenceError, scrub_saved

        collection = make_collection(40, seed=8)
        index = DesksIndex(collection, num_bands=2, num_wedges=2)
        directory = tmp_path / "extras"
        save_index(index, str(directory), extra_files={"marker.json": b"7"})
        (directory / "marker.json").write_bytes(b"8")
        report = scrub_saved(str(directory))
        assert not report.clean
        assert any("marker.json" in path for path, _ in report.corrupt)
        with pytest.raises(PersistenceError, match="verification"):
            load_index(str(directory), verify=True)


class TestKeywordEdgeCases:
    """Round trips for keyword sets the CSV/blob formats could mangle."""

    def make_index(self):
        from repro.datasets import POI, POICollection

        pois = [
            POI.make(0, 1.0, 1.0, ["café", "北京烤鸭"]),
            POI.make(1, 2.0, 2.0, []),            # no keywords at all
            POI.make(2, 3.0, 3.0, ["مقهى", "пекарня"]),
            POI.make(3, 4.0, 4.0, ["plain"]),
        ]
        return DesksIndex(POICollection(pois), num_bands=2, num_wedges=2)

    def test_non_ascii_and_empty_sets_round_trip(self, tmp_path):
        index = self.make_index()
        directory = tmp_path / "uni"
        save_index(index, str(directory))
        loaded = load_index(str(directory), verify=True)
        for i in range(4):
            assert (loaded.collection[i].keywords
                    == index.collection[i].keywords)
        q = DirectionalQuery.make(0, 0, 0, 2 * math.pi, ["café"], 4)
        assert [e.poi_id for e in DesksSearcher(loaded).search(q).entries] \
            == [0]

    def test_unicode_queries_match_after_reload(self, tmp_path):
        index = self.make_index()
        directory = tmp_path / "uni2"
        save_index(index, str(directory))
        loaded = load_index(str(directory))
        for term, expect in (("北京烤鸭", [0]), ("пекарня", [2]),
                             ("missing", [])):
            q = DirectionalQuery.make(0, 0, 0, 2 * math.pi, [term], 4)
            assert [e.poi_id
                    for e in DesksSearcher(loaded).search(q).entries] \
                == expect


class TestShardedManifestValidation:
    def make_deployment(self, tmp_path, name="dep", meta=None):
        from repro.core.persistence import save_sharded

        shards = [DesksIndex(make_collection(30, seed=s),
                             num_bands=2, num_wedges=2) for s in (1, 2, 3)]
        directory = tmp_path / name
        save_sharded(shards, str(directory), meta=meta)
        return directory

    def test_missing_shard_directory_is_typed(self, tmp_path):
        from repro.core.persistence import (
            MissingPersistenceFile,
            load_sharded,
        )

        directory = self.make_deployment(tmp_path)
        import shutil
        shutil.rmtree(directory / "shard1")
        with pytest.raises(MissingPersistenceFile, match="shard1"):
            load_sharded(str(directory))

    def test_extra_shard_directory_rejected(self, tmp_path):
        from repro.core.persistence import PersistenceError, load_sharded

        directory = self.make_deployment(tmp_path)
        import shutil
        shutil.copytree(directory / "shard0", directory / "shard9")
        with pytest.raises(PersistenceError, match="holds 4"):
            load_sharded(str(directory))

    def test_invalid_num_shards_rejected(self, tmp_path):
        from repro.core.persistence import PersistenceError, load_sharded

        directory = self.make_deployment(tmp_path)
        meta = json.loads((directory / "meta.json").read_text())
        meta["num_shards"] = 0
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(PersistenceError, match="num_shards"):
            load_sharded(str(directory))

    def test_global_id_lists_must_match_shard_count(self, tmp_path):
        from repro.core.persistence import PersistenceError, load_sharded

        directory = self.make_deployment(
            tmp_path, meta={"shard_global_ids": [[0], [1]]})
        with pytest.raises(PersistenceError, match="global ids"):
            load_sharded(str(directory))

    def test_non_object_manifest_rejected(self, tmp_path):
        from repro.core.persistence import PersistenceError, load_sharded

        directory = self.make_deployment(tmp_path)
        (directory / "meta.json").write_text("[1, 2, 3]")
        with pytest.raises(PersistenceError, match="not an object"):
            load_sharded(str(directory))

    def test_scrub_covers_every_shard(self, tmp_path):
        from repro.core.persistence import scrub_saved
        from repro.storage import CorruptionInjector

        directory = self.make_deployment(tmp_path)
        assert scrub_saved(str(directory)).clean
        CorruptionInjector(seed=4).corrupt_file(
            str(directory / "shard2" / "anchor0.bin"))
        report = scrub_saved(str(directory))
        assert not report.clean
        assert any("shard2" in path for path, _ in report.corrupt)


class TestInterruptedSwap:
    """A crash between the swap's two renames must not lose the save."""

    def make_index(self, seed=8):
        collection = make_collection(40, seed=seed)
        return DesksIndex(collection, num_bands=2, num_wedges=2)

    def crash_mid_swap(self, tmp_path):
        """Save twice, killing the second save between its renames."""
        from repro.storage import SimulatedCrash

        directory = tmp_path / "idx"
        save_index(self.make_index(seed=8), str(directory))

        def crash(stage):
            if stage == "swap.displaced":
                raise SimulatedCrash(stage)

        with pytest.raises(SimulatedCrash):
            save_index(self.make_index(seed=9), str(directory),
                       extra_files={"marker.json": b"new"},
                       failpoint=crash)
        assert not directory.exists()
        assert (tmp_path / "idx.saving").is_dir()
        assert (tmp_path / "idx.displaced").is_dir()
        return directory

    def test_load_rolls_forward_to_completed_staging(self, tmp_path):
        directory = self.crash_mid_swap(tmp_path)
        loaded = load_index(str(directory), verify=True)
        # The staging dir was complete when the crash hit, so repair
        # adopts the NEW save (marker.json only exists in it).
        assert (directory / "marker.json").read_bytes() == b"new"
        assert len(loaded.collection) == 40
        assert not (tmp_path / "idx.saving").exists()
        assert not (tmp_path / "idx.displaced").exists()

    def test_next_save_repairs_before_staging(self, tmp_path):
        directory = self.crash_mid_swap(tmp_path)
        save_index(self.make_index(seed=10), str(directory))
        load_index(str(directory), verify=True)
        assert not (tmp_path / "idx.saving").exists()
        assert not (tmp_path / "idx.displaced").exists()

    def test_repair_rolls_back_without_staging(self, tmp_path):
        import shutil

        from repro.core import repair_interrupted_swap

        directory = self.crash_mid_swap(tmp_path)
        shutil.rmtree(tmp_path / "idx.saving")
        assert repair_interrupted_swap(str(directory))
        # Only the displaced old save is left; roll back to it.
        assert not (directory / "marker.json").exists()
        load_index(str(directory), verify=True)

    def test_repair_is_noop_on_intact_directory(self, tmp_path):
        from repro.core import repair_interrupted_swap

        directory = tmp_path / "idx"
        save_index(self.make_index(), str(directory))
        assert not repair_interrupted_swap(str(directory))
        load_index(str(directory), verify=True)

    def test_partial_staging_alone_is_not_adopted(self, tmp_path):
        from repro.core import repair_interrupted_swap
        from repro.core.persistence import MissingPersistenceFile

        staging = tmp_path / "idx.saving"
        staging.mkdir()
        (staging / "meta.json").write_text("{")  # torn mid-write
        assert not repair_interrupted_swap(str(tmp_path / "idx"))
        with pytest.raises(MissingPersistenceFile):
            load_index(str(tmp_path / "idx"))

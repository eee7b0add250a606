"""Tests for the POI model, synthetic generators, and loaders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    POI,
    POICollection,
    SyntheticConfig,
    california_like,
    china_like,
    dataset_statistics,
    format_table2,
    generate,
    load_csv,
    load_preset,
    save_csv,
    virginia_like,
)
from repro.geometry import Point


def small_collection():
    return POICollection([
        POI.make(0, 1.0, 2.0, ["cafe", "coffee"]),
        POI.make(1, 3.0, 4.0, ["atm", "bank"]),
        POI.make(2, 5.0, 0.0, ["cafe"]),
    ])


class TestPOI:
    def test_make(self):
        p = POI.make(7, 1.5, 2.5, ["a", "b", "a"])
        assert p.poi_id == 7
        assert p.location == Point(1.5, 2.5)
        assert p.keywords == frozenset({"a", "b"})

    def test_contains_all(self):
        p = POI.make(0, 0, 0, ["x", "y"])
        assert p.contains_all(["x"])
        assert p.contains_all(["x", "y"])
        assert not p.contains_all(["x", "z"])


class TestPOICollection:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            POICollection([])

    def test_ids_renumbered_dense(self):
        col = POICollection([POI.make(99, 0, 0, ["a"]),
                             POI.make(42, 1, 1, ["b"])])
        assert [p.poi_id for p in col] == [0, 1]
        assert col[1].location == Point(1, 1)

    def test_term_ids_interned(self):
        col = small_collection()
        cafe = col.vocabulary.id_of("cafe")
        assert cafe in col.term_id_sets[0]
        assert cafe in col.term_id_sets[2]
        assert col.term_id_sets[1].isdisjoint(col.term_id_sets[2])

    def test_query_term_ids(self):
        col = small_collection()
        assert col.query_term_ids(["cafe"]) is not None
        assert col.query_term_ids(["cafe", "nothere"]) is None

    def test_mbr_covers_all(self):
        col = small_collection()
        for p in col:
            assert col.mbr.contains_point(p.location)

    def test_statistics(self):
        col = small_collection()
        assert col.total_term_occurrences == 5
        assert col.num_unique_terms == 4
        assert col.avg_terms_per_poi == pytest.approx(5 / 3)

    def test_subset(self):
        col = small_collection()
        sub = col.subset(2)
        assert len(sub) == 2
        assert sub[0].keywords == col[0].keywords
        with pytest.raises(ValueError):
            col.subset(0)
        with pytest.raises(ValueError):
            col.subset(4)


class TestSyntheticConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig("x", 0, 100, 3.0)
        with pytest.raises(ValueError):
            SyntheticConfig("x", 10, 5, 3.0)
        with pytest.raises(ValueError):
            SyntheticConfig("x", 10, 100, 0.5)
        with pytest.raises(ValueError):
            SyntheticConfig("x", 10, 100, 3.0, cluster_fraction=1.5)


class TestGenerate:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate(SyntheticConfig(
            "test", num_pois=2000, num_unique_terms=500,
            avg_terms_per_poi=4.0, seed=3))

    def test_size(self, dataset):
        assert len(dataset) == 2000

    def test_deterministic(self):
        cfg = SyntheticConfig("t", 200, 100, 3.0, seed=5)
        a, b = generate(cfg), generate(cfg)
        assert all(pa.location == pb.location and pa.keywords == pb.keywords
                   for pa, pb in zip(a, b))

    def test_seed_changes_output(self):
        a = generate(SyntheticConfig("t", 200, 100, 3.0, seed=5))
        b = generate(SyntheticConfig("t", 200, 100, 3.0, seed=6))
        assert any(pa.location != pb.location for pa, pb in zip(a, b))

    def test_locations_in_extent(self, dataset):
        assert dataset.mbr.min_x >= 0.0
        assert dataset.mbr.max_x <= 10_000.0
        assert dataset.mbr.min_y >= 0.0
        assert dataset.mbr.max_y <= 10_000.0

    def test_avg_terms_near_target(self, dataset):
        assert dataset.avg_terms_per_poi == pytest.approx(4.0, rel=0.15)

    def test_keyword_skew(self, dataset):
        """Zipf sampling must make some terms far more frequent than others."""
        freqs = sorted(
            (dataset.vocabulary.doc_frequency(t)
             for t in range(len(dataset.vocabulary))), reverse=True)
        assert freqs[0] > 20 * max(freqs[len(freqs) // 2], 1)

    def test_every_poi_has_keywords(self, dataset):
        assert all(p.keywords for p in dataset)

    def test_spatial_clustering(self, dataset):
        """Clustered data: a small area around a dense cell holds many POIs."""
        from collections import Counter
        cells = Counter(
            (int(p.location.x // 500), int(p.location.y // 500))
            for p in dataset)
        top = cells.most_common(1)[0][1]
        expected_uniform = len(dataset) / 400  # 20x20 grid
        assert top > 3 * expected_uniform


class TestPresets:
    def test_preset_scaling(self):
        cfg = california_like(scale=1000.0)
        assert cfg.num_pois == 910
        assert cfg.avg_terms_per_poi == pytest.approx(8.57)

    def test_all_presets_generate(self):
        for factory in (california_like, virginia_like, china_like):
            cfg = factory(scale=5000.0)
            col = generate(cfg)
            assert len(col) == cfg.num_pois

    def test_load_preset(self):
        col = load_preset("va", scale=5000.0)
        assert len(col) > 0

    def test_load_preset_unknown(self):
        with pytest.raises(ValueError):
            load_preset("mars")

    def test_table2_ratios_preserved(self):
        """CA must be term-richer per POI than CN, as in Table II."""
        ca = generate(california_like(scale=2000.0))
        cn = generate(china_like(scale=20000.0))
        assert ca.avg_terms_per_poi > 1.5 * cn.avg_terms_per_poi


class TestStats:
    def test_statistics_values(self):
        stats = dataset_statistics("X", small_collection())
        assert stats.num_pois == 3
        assert stats.total_terms == 5
        assert stats.num_unique_terms == 4

    def test_format_table2(self):
        table = format_table2([dataset_statistics("X", small_collection())])
        assert "Total number of POIs" in table
        assert "X" in table
        assert "1.67" in table


class TestCSV:
    def test_round_trip(self, tmp_path):
        col = small_collection()
        path = tmp_path / "pois.csv"
        save_csv(col, path)
        loaded = load_csv(path)
        assert len(loaded) == len(col)
        for a, b in zip(col, loaded):
            assert a.location == b.location
            assert a.keywords == b.keywords

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('id,x,y,keywords\n0,1.0\n')
        with pytest.raises(ValueError, match="malformed"):
            load_csv(path)

    def test_bad_coordinates_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('id,x,y,keywords\n0,oops,2.0,cafe\n')
        with pytest.raises(ValueError, match="coordinates"):
            load_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,x,y,keywords\n")
        with pytest.raises(ValueError, match="no POIs"):
            load_csv(path)

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(
        st.tuples(
            st.floats(-1e3, 1e3).map(lambda v: round(v, 3)),
            st.floats(-1e3, 1e3).map(lambda v: round(v, 3)),
            st.sets(st.sampled_from(["cafe", "atm", "gas", "pizza"]),
                    min_size=1),
        ),
        min_size=1, max_size=20))
    def test_round_trip_property(self, rows, tmp_path_factory):
        col = POICollection([
            POI.make(i, x, y, kws) for i, (x, y, kws) in enumerate(rows)])
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        save_csv(col, path)
        loaded = load_csv(path)
        for a, b in zip(col, loaded):
            assert a.location == b.location
            assert a.keywords == b.keywords

"""Tests for the cardinality estimator: calibration, not exactness."""

import math
import random

import pytest

from repro.core import (
    CardinalityEstimator,
    DirectionalQuery,
    MatchMode,
    brute_force_search,
)
from repro.datasets import POI, POICollection

from .conftest import KEYWORD_POOL, make_collection


@pytest.fixture(scope="module")
def setup():
    collection = make_collection(2000, seed=97)
    return collection, CardinalityEstimator(collection)


class TestSelectivities:
    def test_unknown_keyword_zero(self, setup):
        _, est = setup
        q = DirectionalQuery.make(50, 50, 0, 1, ["nope"], 5)
        assert est.keyword_selectivity(q) == 0.0
        assert est.estimate_matching_pois(q) == 0.0
        assert est.estimate_kth_distance(q) is None

    def test_all_mode_product(self):
        col = POICollection(
            [POI.make(i, float(i), 0.0, ["a", "b"]) for i in range(5)]
            + [POI.make(5 + i, float(i), 1.0, ["a"]) for i in range(5)])
        est = CardinalityEstimator(col)
        q_a = DirectionalQuery.make(0, 0, 0, 1, ["a"], 1)
        q_ab = DirectionalQuery.make(0, 0, 0, 1, ["a", "b"], 1)
        assert est.keyword_selectivity(q_a) == pytest.approx(1.0)
        assert est.keyword_selectivity(q_ab) == pytest.approx(0.5)

    def test_any_mode_inclusion_exclusion(self):
        col = POICollection(
            [POI.make(0, 0, 0, ["a"]), POI.make(1, 1, 0, ["b"]),
             POI.make(2, 2, 0, ["c"]), POI.make(3, 3, 0, ["c"])])
        est = CardinalityEstimator(col)
        q = DirectionalQuery.make(0, 0, 0, 1, ["a", "b"], 1,
                                  match_mode=MatchMode.ANY)
        # 1 - (1 - 1/4)(1 - 1/4) = 7/16
        assert est.keyword_selectivity(q) == pytest.approx(7 / 16)

    def test_direction_fraction(self, setup):
        _, est = setup
        q = DirectionalQuery.make(50, 50, 0, math.pi, ["cafe"], 1)
        assert est.direction_selectivity(q) == pytest.approx(0.5)
        full = DirectionalQuery.undirected(50, 50, ["cafe"], 1)
        assert est.direction_selectivity(full) == pytest.approx(1.0)


class TestCalibration:
    def test_matching_count_correlates(self, setup):
        """Estimates must rank query result sizes roughly correctly."""
        collection, est = setup
        rng = random.Random(5)
        pairs = []
        for _ in range(30):
            width = rng.choice([0.5, 2.0, 6.0])
            kws = rng.sample(KEYWORD_POOL, rng.randint(1, 2))
            a = rng.uniform(0, 2 * math.pi)
            q = DirectionalQuery.make(50, 50, a, a + width, kws, 100000)
            actual = len(brute_force_search(collection, q))
            pairs.append((est.estimate_matching_pois(q), actual))
        # Rank correlation via concordant-pair counting (Kendall-ish).
        concordant = discordant = 0
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                de = pairs[i][0] - pairs[j][0]
                da = pairs[i][1] - pairs[j][1]
                if de * da > 0:
                    concordant += 1
                elif de * da < 0:
                    discordant += 1
        assert concordant > 2 * discordant

    def test_count_estimate_within_factor(self, setup):
        """For central, wide queries the count estimate is in the right
        ballpark (factor ~3, uniform-ish data)."""
        collection, est = setup
        q = DirectionalQuery.make(50, 50, 0.0, 2 * math.pi, ["food"],
                                  100000)
        actual = len(brute_force_search(collection, q))
        estimate = est.estimate_matching_pois(q)
        assert actual / 3 <= estimate <= actual * 3

    def test_kth_distance_monotone_in_k(self, setup):
        _, est = setup
        q1 = DirectionalQuery.make(50, 50, 0.0, 1.0, ["food"], 1)
        q10 = DirectionalQuery.make(50, 50, 0.0, 1.0, ["food"], 10)
        d1, d10 = est.estimate_kth_distance(q1), est.estimate_kth_distance(q10)
        assert d1 is not None and d10 is not None
        assert d10 > d1

    def test_kth_distance_monotone_in_width(self, setup):
        _, est = setup
        narrow = DirectionalQuery.make(50, 50, 0.0, 0.3, ["food"], 10)
        wide = DirectionalQuery.make(50, 50, 0.0, 3.0, ["food"], 10)
        dn = est.estimate_kth_distance(narrow)
        dw = est.estimate_kth_distance(wide)
        if dn is not None and dw is not None:
            assert dw < dn

    def test_kth_distance_roughly_calibrated(self, setup):
        """Central wide query: estimate within 3x of the true k-th."""
        collection, est = setup
        q = DirectionalQuery.make(50, 50, 0.0, 2 * math.pi, ["food"], 10)
        actual = brute_force_search(collection, q).kth_distance
        estimate = est.estimate_kth_distance(q)
        assert estimate is not None
        assert actual / 3 <= estimate <= actual * 3

    def test_kth_distance_is_never_nearer_than_the_data(self, setup):
        """A query outside the MBR reaches no POI before crossing the gap:
        the estimate is the inside one, counted from the MBR's edge."""
        collection, est = setup
        inside = DirectionalQuery.make(50, 50, 0.0, 2 * math.pi, ["food"],
                                       10)
        outside = DirectionalQuery.make(50, 400, 0.0, 2 * math.pi,
                                        ["food"], 10)
        gap = collection.mbr.min_distance_to_point(outside.location)
        assert gap > 250
        estimate = est.estimate_kth_distance(outside)
        assert estimate == pytest.approx(
            gap + est.estimate_kth_distance(inside))
        actual = brute_force_search(collection, outside).kth_distance
        assert actual / 3 <= estimate <= actual * 3

    @pytest.mark.parametrize("match_mode", list(MatchMode))
    def test_resolved_term_ids_give_the_same_estimates(self, setup,
                                                       match_mode):
        collection, est = setup
        q = DirectionalQuery.make(30, 70, 0.5, 2.5, ["food", "cafe"], 10,
                                  match_mode)
        term_ids = collection.query_term_ids(
            q.keywords, require_all=match_mode is MatchMode.ALL)
        assert est.keyword_selectivity(q, term_ids) == \
            est.keyword_selectivity(q)
        assert est.estimate_matching_pois(q, term_ids) == \
            est.estimate_matching_pois(q)
        assert est.estimate_kth_distance(q, term_ids) == \
            est.estimate_kth_distance(q)


class TestSyntheticCalibration:
    """The estimator on generated datasets — the satellite acceptance:
    direction selectivity must track true in-sector fractions on uniform
    data (and keep ranking power on clustered data), and k-th-distance
    estimates must correlate with measured k-th distances."""

    @staticmethod
    def _dataset(cluster_fraction):
        from repro.datasets.synthetic import SyntheticConfig, generate

        return generate(SyntheticConfig(
            name="est-cal", num_pois=3000, num_unique_terms=60,
            avg_terms_per_poi=2.5, cluster_fraction=cluster_fraction,
            extent=1000.0, seed=19))

    @staticmethod
    def _in_sector_fraction(collection, query, matching):
        inside = sum(1 for poi in matching
                     if poi.location == query.location
                     or query.interval.contains(
                         query.location.direction_to(poi.location)))
        return inside / len(matching)

    def test_direction_selectivity_uniform(self):
        """Uniform data, central query: predicted fraction ~ observed."""
        collection = self._dataset(cluster_fraction=0.0)
        est = CardinalityEstimator(collection)
        matching = [poi for poi in collection if "food" in poi.keywords]
        assert len(matching) > 100
        rng = random.Random(3)
        for width in (math.pi / 2, math.pi, 1.5 * math.pi):
            alpha = rng.uniform(0, 2 * math.pi)
            q = DirectionalQuery.make(500, 500, alpha, alpha + width,
                                      ["food"], 10)
            predicted = est.direction_selectivity(q)
            observed = self._in_sector_fraction(collection, q, matching)
            assert abs(predicted - observed) < 0.12

    def test_direction_selectivity_ranks_on_clustered(self):
        """Clustered data breaks the uniform assumption pointwise, but
        widening the interval must still widen the observed fraction."""
        collection = self._dataset(cluster_fraction=0.9)
        est = CardinalityEstimator(collection)
        matching = [poi for poi in collection if "food" in poi.keywords]
        assert len(matching) > 100
        widths = [math.pi / 4, math.pi / 2, math.pi, 2 * math.pi]
        observed = []
        for width in widths:
            q = DirectionalQuery.make(500, 500, 0.7, 0.7 + width,
                                      ["food"], 10)
            assert est.direction_selectivity(q) == \
                pytest.approx(width / (2 * math.pi))
            observed.append(
                self._in_sector_fraction(collection, q, matching))
        assert observed == sorted(observed)
        assert observed[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("cluster_fraction", [0.0, 0.9])
    def test_kth_distance_correlates_with_truth(self, cluster_fraction):
        collection = self._dataset(cluster_fraction)
        est = CardinalityEstimator(collection)
        rng = random.Random(29)
        pairs = []
        for _ in range(40):
            alpha = rng.uniform(0, 2 * math.pi)
            width = rng.choice([1.0, 3.0, 2 * math.pi])
            k = rng.choice([1, 5, 25])
            x, y = rng.uniform(300, 700), rng.uniform(300, 700)
            q = DirectionalQuery.make(x, y, alpha, alpha + width,
                                      ["food"], k)
            predicted = est.estimate_kth_distance(q)
            result = brute_force_search(collection, q)
            if predicted is None or len(result) < k:
                continue
            pairs.append((predicted, result.kth_distance))
        assert len(pairs) >= 20
        concordant = discordant = 0
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                dp = pairs[i][0] - pairs[j][0]
                dt = pairs[i][1] - pairs[j][1]
                if dp * dt > 0:
                    concordant += 1
                elif dp * dt < 0:
                    discordant += 1
        assert concordant > 2 * discordant

"""Tests for the searcher's ``d_k`` estimate: calibration, not exactness.

The cost model estimates the k-th answer's distance from the exact number
of keyword holders (``DesksSearcher.cost_terms``), the interval's share of
the circle and the data's area (``DesksSearcher._estimated_kth``).
"""

import functools
import math
import random

import pytest

from repro.core import (
    DesksIndex,
    DesksSearcher,
    DirectionalQuery,
    MatchMode,
    brute_force_search,
)

from .conftest import make_collection


@pytest.fixture(scope="module")
def setup():
    collection = make_collection(2000, seed=97)
    return collection, DesksSearcher(DesksIndex(collection))


def kth_estimate(searcher, query):
    """The searcher's estimated ``d_k``; ``None`` when fewer than ``k``
    matches are expected (or no POI holds the keywords)."""
    terms = searcher.cost_terms(query)
    if terms is None:
        return None
    return searcher._estimated_kth(query, terms.holders)


class TestSelectivities:
    def test_unknown_keyword_zero(self, setup):
        _, searcher = setup
        q = DirectionalQuery.make(50, 50, 0, 1, ["nope"], 5)
        assert searcher.cost_terms(q) is None
        assert searcher.access_costs(q) is None
        assert kth_estimate(searcher, q) is None

    def test_direction_fraction(self, setup):
        """Half the circle holds half the matches, so the k-th of a
        central query is expected sqrt(2) times farther."""
        _, searcher = setup
        half = DirectionalQuery.make(50, 50, 0, math.pi, ["cafe"], 10)
        full = DirectionalQuery.undirected(50, 50, ["cafe"], 10)
        assert kth_estimate(searcher, half) == pytest.approx(
            math.sqrt(2) * kth_estimate(searcher, full))


class TestCalibration:
    def test_kth_distance_monotone_in_k(self, setup):
        _, searcher = setup
        q1 = DirectionalQuery.make(50, 50, 0.0, 1.0, ["food"], 1)
        q10 = DirectionalQuery.make(50, 50, 0.0, 1.0, ["food"], 10)
        d1, d10 = kth_estimate(searcher, q1), kth_estimate(searcher, q10)
        assert d1 is not None and d10 is not None
        assert d10 > d1

    def test_kth_distance_monotone_in_width(self, setup):
        _, searcher = setup
        narrow = DirectionalQuery.make(50, 50, 0.0, 0.3, ["food"], 10)
        wide = DirectionalQuery.make(50, 50, 0.0, 3.0, ["food"], 10)
        dn = kth_estimate(searcher, narrow)
        dw = kth_estimate(searcher, wide)
        if dn is not None and dw is not None:
            assert dw < dn

    def test_kth_distance_roughly_calibrated(self, setup):
        """Central wide query: estimate within 3x of the true k-th."""
        collection, searcher = setup
        q = DirectionalQuery.make(50, 50, 0.0, 2 * math.pi, ["food"], 10)
        actual = brute_force_search(collection, q).kth_distance
        estimate = kth_estimate(searcher, q)
        assert estimate is not None
        assert actual / 3 <= estimate <= actual * 3

    def test_kth_distance_is_never_nearer_than_the_data(self, setup):
        """A query outside the MBR reaches no POI before crossing the gap:
        the estimate is the inside one, counted from the MBR's edge."""
        collection, searcher = setup
        inside = DirectionalQuery.make(50, 50, 0.0, 2 * math.pi, ["food"],
                                       10)
        outside = DirectionalQuery.make(50, 400, 0.0, 2 * math.pi,
                                        ["food"], 10)
        gap = collection.mbr.min_distance_to_point(outside.location)
        assert gap > 250
        estimate = kth_estimate(searcher, outside)
        assert estimate == pytest.approx(
            gap + kth_estimate(searcher, inside))
        actual = brute_force_search(collection, outside).kth_distance
        assert actual / 3 <= estimate <= actual * 3

    @pytest.mark.parametrize("match_mode", list(MatchMode))
    def test_resolved_term_ids_give_the_same_estimates(self, setup,
                                                       match_mode):
        """The term ids as a set (the object scanner's) or sorted either
        way (the columnar scanner's) give the same counts."""
        collection, searcher = setup
        q = DirectionalQuery.make(30, 70, 0.5, 2.5, ["food", "cafe"], 10,
                                  match_mode)
        conjunctive = match_mode is MatchMode.ALL
        term_ids = collection.query_term_ids(q.keywords,
                                             require_all=conjunctive)
        expected = searcher.cost_terms(q)
        for resolved in (term_ids, tuple(sorted(term_ids)),
                         tuple(sorted(term_ids, reverse=True))):
            candidates = searcher._keyword_holders(resolved, conjunctive)
            assert searcher._cost_terms(q, resolved, conjunctive,
                                        candidates) == expected


class TestSyntheticCalibration:
    """The estimate on generated datasets: the direction share it
    assumes must track true in-sector fractions on uniform data (and
    keep ranking power on clustered data), and its k-th distances must
    correlate with measured ones."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _dataset(cluster_fraction):
        from repro.datasets.synthetic import SyntheticConfig, generate

        collection = generate(SyntheticConfig(
            name="est-cal", num_pois=3000, num_unique_terms=60,
            avg_terms_per_poi=2.5, cluster_fraction=cluster_fraction,
            extent=1000.0, seed=19))
        return collection, DesksSearcher(DesksIndex(collection))

    @staticmethod
    def _in_sector_fraction(collection, query, matching):
        inside = sum(1 for poi in matching
                     if poi.location == query.location
                     or query.interval.contains(
                         query.location.direction_to(poi.location)))
        return inside / len(matching)

    def test_direction_selectivity_uniform(self):
        """Uniform data, central query: the expected share of the holders
        in the interval (``w / 2pi``) ~ the observed share."""
        collection, searcher = self._dataset(cluster_fraction=0.0)
        matching = [poi for poi in collection if "food" in poi.keywords]
        assert len(matching) > 100
        rng = random.Random(3)
        for width in (math.pi / 2, math.pi, 1.5 * math.pi):
            alpha = rng.uniform(0, 2 * math.pi)
            q = DirectionalQuery.make(500, 500, alpha, alpha + width,
                                      ["food"], 10)
            holders = searcher.cost_terms(q).holders
            assert holders == len(matching)
            predicted = holders * width / (2 * math.pi) / len(matching)
            observed = self._in_sector_fraction(collection, q, matching)
            assert abs(predicted - observed) < 0.12

    def test_direction_selectivity_ranks_on_clustered(self):
        """Clustered data breaks the uniform assumption pointwise, but
        widening the interval must still widen the observed fraction;
        the holder count is exact whatever the clustering."""
        collection, searcher = self._dataset(cluster_fraction=0.9)
        matching = [poi for poi in collection if "food" in poi.keywords]
        assert len(matching) > 100
        widths = [math.pi / 4, math.pi / 2, math.pi, 2 * math.pi]
        observed = []
        for width in widths:
            q = DirectionalQuery.make(500, 500, 0.7, 0.7 + width,
                                      ["food"], 10)
            assert searcher.cost_terms(q).holders == len(matching)
            observed.append(
                self._in_sector_fraction(collection, q, matching))
        assert observed == sorted(observed)
        assert observed[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("cluster_fraction", [0.0, 0.9])
    def test_kth_distance_correlates_with_truth(self, cluster_fraction):
        collection, searcher = self._dataset(cluster_fraction)
        rng = random.Random(29)
        pairs = []
        for _ in range(40):
            alpha = rng.uniform(0, 2 * math.pi)
            width = rng.choice([1.0, 3.0, 2 * math.pi])
            k = rng.choice([1, 5, 25])
            x, y = rng.uniform(300, 700), rng.uniform(300, 700)
            q = DirectionalQuery.make(x, y, alpha, alpha + width,
                                      ["food"], k)
            predicted = kth_estimate(searcher, q)
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

"""Tests for the baseline competitors: correctness and pruning behaviour."""

import math
import random

import pytest

from repro.baselines import FilterThenVerify, IRTree, MIR2Tree
from repro.core import DirectionalQuery, brute_force_search
from repro.geometry import (
    DirectionInterval,
    MBR,
    Point,
    direction_overlaps_mbr,
    subtended_interval,
)
from repro.storage import SearchStats

from ..core.conftest import make_collection, random_query_params

BASELINE_CLASSES = [FilterThenVerify, MIR2Tree, IRTree]


@pytest.fixture(scope="module")
def collection():
    return make_collection(350, seed=61)


@pytest.fixture(scope="module", params=BASELINE_CLASSES,
                ids=lambda c: c.name)
def baseline(request, collection):
    return request.param(collection, fanout=8)


class TestSubtendedInterval:
    def test_center_inside_is_none(self):
        assert subtended_interval(Point(5, 5), MBR(0, 0, 10, 10)) is None

    def test_east_of_square(self):
        iv = subtended_interval(Point(20, 5), MBR(0, 0, 10, 10))
        # The square sits west of the viewpoint: directions near pi.
        assert iv.contains(math.pi)
        assert not iv.contains(0.0)

    def test_interval_covers_all_corner_directions(self):
        q = Point(-3, 17)
        box = MBR(2, 2, 9, 6)
        iv = subtended_interval(q, box)
        for corner in box.corners():
            assert iv.contains(q.direction_to(corner))

    def test_wrapping_case(self):
        # Box east of viewpoint straddling the x-axis: arc wraps 0.
        iv = subtended_interval(Point(0, 0), MBR(5, -2, 8, 2))
        assert iv.contains(0.0)
        assert iv.width < math.pi

    def test_interval_is_minimal_arc(self):
        q = Point(20, 5)
        box = MBR(0, 0, 10, 10)
        iv = subtended_interval(q, box)
        assert iv.width < math.pi  # a finite box never subtends a half turn
        # Sampled interior points stay inside the subtended arc.
        rng = random.Random(0)
        for _ in range(50):
            p = Point(rng.uniform(0, 10), rng.uniform(0, 10))
            assert iv.contains(q.direction_to(p))


class TestDirectionOverlapsMBR:
    def test_full_interval_always_overlaps(self):
        assert direction_overlaps_mbr(Point(100, 100),
                                      DirectionInterval.full(),
                                      MBR(0, 0, 1, 1))

    def test_center_inside_always_overlaps(self):
        assert direction_overlaps_mbr(Point(5, 5),
                                      DirectionInterval(0, 0.1),
                                      MBR(0, 0, 10, 10))

    def test_disjoint_direction(self):
        # Box due east; query pointing due west.
        assert not direction_overlaps_mbr(
            Point(0, 0), DirectionInterval(math.pi - 0.3, math.pi + 0.3),
            MBR(5, -1, 8, 1))

    def test_never_prunes_boxes_with_answers(self):
        """Soundness: if some point of the box is in-direction, no prune."""
        rng = random.Random(4)
        for _ in range(200):
            q = Point(rng.uniform(-20, 20), rng.uniform(-20, 20))
            x1, y1 = rng.uniform(-15, 15), rng.uniform(-15, 15)
            box = MBR(x1, y1, x1 + rng.uniform(0.1, 8),
                      y1 + rng.uniform(0.1, 8))
            a = rng.uniform(0, 2 * math.pi)
            iv = DirectionInterval(a, a + rng.uniform(0.1, 3.0))
            # Sample points of the box; if any is within direction, the
            # overlap test must say True.
            any_inside = False
            for _ in range(40):
                p = Point(rng.uniform(box.min_x, box.max_x),
                          rng.uniform(box.min_y, box.max_y))
                if p != q and iv.contains(q.direction_to(p)):
                    any_inside = True
                    break
            if any_inside:
                assert direction_overlaps_mbr(q, iv, box)


class TestBaselineCorrectness:
    def test_matches_brute_force(self, collection, baseline):
        rng = random.Random(13)
        for _ in range(50):
            x, y, a, b, kws, k = random_query_params(rng)
            q = DirectionalQuery.make(x, y, a, b, kws, k)
            got = baseline.search(q)
            expect = brute_force_search(collection, q)
            assert [round(d, 9) for d in got.distances()] == \
                [round(d, 9) for d in expect.distances()]

    def test_unknown_keyword(self, baseline):
        q = DirectionalQuery.make(50, 50, 0, 1, ["zzz"], 5)
        assert len(baseline.search(q)) == 0

    def test_narrow_direction(self, collection, baseline):
        q = DirectionalQuery.make(50, 50, 1.0, 1.05, ["food"], 10)
        got = baseline.search(q)
        expect = brute_force_search(collection, q)
        assert got.distances() == pytest.approx(expect.distances())

    def test_build_time_recorded(self, baseline):
        assert baseline.build_seconds > 0

    def test_size_positive(self, baseline):
        assert baseline.size_bytes > baseline.tree_size_bytes or \
            isinstance(baseline, FilterThenVerify)


class TestTextualPruning:
    def test_mir2_prunes_nodes(self, collection):
        """Signature pruning must reduce examined nodes for rare keywords."""
        plain = FilterThenVerify(collection, fanout=8)
        mir2 = MIR2Tree(collection, fanout=8)
        # Pick the rarest keyword present.
        vocab = collection.vocabulary
        rare = min(vocab.terms(),
                   key=lambda t: vocab.doc_frequency(vocab.id_of(t)))
        q = DirectionalQuery.undirected(50, 50, [rare], 1000)
        s_plain, s_mir2 = SearchStats(), SearchStats()
        plain.search(q, s_plain)
        mir2.search(q, s_mir2, prune_direction=True)
        assert s_mir2.pois_examined <= s_plain.pois_examined

    def test_irtree_prunes_at_least_as_well_as_signatures(self, collection):
        """Exact inverted files never examine more than signatures."""
        mir2 = MIR2Tree(collection, fanout=8, signature_bits=64)
        irt = IRTree(collection, fanout=8)
        rng = random.Random(21)
        total_mir2 = total_irt = 0
        for _ in range(20):
            x, y, a, b, kws, k = random_query_params(rng)
            q = DirectionalQuery.make(x, y, a, b, kws, k)
            s1, s2 = SearchStats(), SearchStats()
            mir2.search(q, s1)
            irt.search(q, s2)
            total_mir2 += s1.pois_examined
            total_irt += s2.pois_examined
        assert total_irt <= total_mir2

    def test_direction_pruning_helps_narrow_queries(self, collection):
        mir2 = MIR2Tree(collection, fanout=8)
        q = DirectionalQuery.make(50, 50, 1.0, 1.1, ["food"], 10)
        with_dir, without_dir = SearchStats(), SearchStats()
        mir2.search(q, with_dir, prune_direction=True)
        mir2.search(q, without_dir, prune_direction=False)
        assert with_dir.pois_examined <= without_dir.pois_examined

    def test_lkt_index_larger_than_mir2(self):
        """Table III's size ordering: LkT >> MIR2-tree.

        The ordering depends on vocabulary richness (inverted files grow
        with distinct terms, signatures are fixed-width), so it needs a
        realistically skewed dataset, not the 8-keyword toy pool.
        """
        from repro.datasets import generate, virginia_like
        realistic = generate(virginia_like(scale=1000.0))
        mir2 = MIR2Tree(realistic, fanout=16)
        irt = IRTree(realistic, fanout=16)
        assert irt.size_bytes > mir2.size_bytes


class TestFilterThenVerifyVariants:
    def test_two_step_equals_integrated(self, collection):
        ftv = FilterThenVerify(collection, fanout=8)
        rng = random.Random(31)
        for _ in range(15):
            x, y, a, b, kws, k = random_query_params(rng)
            q = DirectionalQuery.make(x, y, a, b, kws, k)
            two_step = ftv.search(q, prune_direction=False)
            integrated = ftv.search(q, prune_direction=True)
            assert two_step.distances() == pytest.approx(
                integrated.distances())

    def test_two_step_examines_more(self, collection):
        ftv = FilterThenVerify(collection, fanout=8)
        q = DirectionalQuery.make(50, 50, 1.0, 1.2, ["food"], 10)
        s_two, s_int = SearchStats(), SearchStats()
        ftv.search(q, s_two, prune_direction=False)
        ftv.search(q, s_int, prune_direction=True)
        assert s_int.pois_examined <= s_two.pois_examined

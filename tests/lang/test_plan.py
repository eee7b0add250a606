"""Logical-plan unit tests: validation, canonical render, derived query."""

import math

import pytest

from repro.core import DirectionalQuery, MatchMode, PruningMode
from repro.lang import (
    ExplainPlan,
    SelectPlan,
    ShowPlan,
    canonical_keywords,
    parse,
    plan_from_query,
)

TWO_PI = 2.0 * math.pi


def select(**overrides):
    base = dict(k=5, x=10.0, y=20.0, keywords=("cafe",))
    base.update(overrides)
    return SelectPlan(**base)


class TestCanonicalKeywords:
    def test_string_and_iterable_agree(self):
        assert canonical_keywords("Sushi  Cafe") == \
            canonical_keywords(["cafe", "SUSHI"])

    def test_sorted_and_deduplicated(self):
        assert canonical_keywords("zeta alpha zeta") == ("alpha", "zeta")

    def test_nothing_usable_raises(self):
        with pytest.raises(ValueError, match="no usable keywords"):
            canonical_keywords("&&&")


class TestSelectPlanValidation:
    def test_k_must_be_positive_integer(self):
        for bad in (0, -3, 2.5):
            with pytest.raises(ValueError, match="k must"):
                select(k=bad)

    def test_float_integral_k_coerced(self):
        assert select(k=3.0).k == 3

    def test_coordinates_must_be_finite(self):
        with pytest.raises(ValueError, match="x must be finite"):
            select(x=float("nan"))
        with pytest.raises(ValueError, match="y must be finite"):
            select(y=float("inf"))

    def test_heading_needs_both_bounds(self):
        with pytest.raises(ValueError, match="HEADING"):
            select(alpha=1.0)

    def test_interval_validated_but_stored_raw(self):
        plan = select(alpha=-1.0, beta=1.0)
        assert plan.alpha == -1.0 and plan.beta == 1.0  # raw, not wrapped
        interval = plan.interval()
        assert interval.lower == pytest.approx(TWO_PI - 1.0)

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            select(alpha=2.0, beta=1.0)

    def test_within_and_timeout_positive(self):
        with pytest.raises(ValueError, match="WITHIN"):
            select(within=0.0)
        with pytest.raises(ValueError, match="TIMEOUT"):
            select(timeout_ms=-5.0)


class TestRender:
    def test_defaults_omitted(self):
        assert select().render() == "SELECT 5 NEAR (10.0, 20.0) " \
            "MATCHING 'cafe'"

    def test_every_clause_rendered(self):
        plan = select(alpha=0.5, beta=2.5,
                      match_mode=MatchMode.ANY, within=99.5,
                      timeout_ms=250.0)
        assert plan.render() == (
            "SELECT 5 NEAR (10.0, 20.0) HEADING [0.5, 2.5] "
            "MATCHING 'cafe' MATCH ANY WITHIN 99.5 TIMEOUT 250.0")
        # The pruning mode is an EXPLAIN clause.
        assert ExplainPlan(plan, PruningMode.R).render() == \
            f"EXPLAIN {plan.render()} MODE R"

    def test_render_parses_back_equal(self):
        plan = select(alpha=-0.25, beta=0.25, within=500.0)
        assert parse(plan.render()) == plan

    def test_show_and_explain_render(self):
        assert ShowPlan("shards").render() == "SHOW SHARDS"
        assert ExplainPlan(select()).render().startswith("EXPLAIN SELECT")


class TestDerivedQuery:
    def test_query_matches_direct_construction(self):
        plan = select(alpha=0.5, beta=2.0, k=7)
        expected = DirectionalQuery.make(10.0, 20.0, 0.5, 2.0, ["cafe"], 7)
        assert plan.query() == expected

    def test_no_heading_means_full_circle(self):
        assert select().interval().is_full

    def test_two_spellings_one_query(self):
        # Plans differ (raw bounds kept), queries normalise identically.
        a = select(alpha=-1.0, beta=1.0)
        b = select(alpha=TWO_PI - 1.0, beta=TWO_PI + 1.0)
        assert a != b
        assert a.query() == b.query()

    def test_timeout_seconds(self):
        assert select(timeout_ms=250.0).timeout_seconds() == 0.25
        assert select().timeout_seconds() is None


class TestPlanFromQuery:
    def test_round_trips_through_query(self):
        query = DirectionalQuery.make(3.0, 4.0, 0.1, 2.2,
                                      ["cafe", "gas"], 9,
                                      match_mode=MatchMode.ANY)
        plan = plan_from_query(query)
        assert plan.query() == query

    def test_full_circle_drops_heading(self):
        query = DirectionalQuery.make(0.0, 0.0, 0.0, TWO_PI, ["cafe"], 1)
        plan = plan_from_query(query)
        assert plan.alpha is None and plan.beta is None


class TestShowPlan:
    def test_targets_case_insensitive(self):
        assert ShowPlan("metrics").target == "METRICS"

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="SHOW target"):
            ShowPlan("TABLES")


class TestExplainPlan:
    def test_wraps_select_only(self):
        with pytest.raises(ValueError, match="EXPLAIN"):
            ExplainPlan("SELECT 1")  # type: ignore[arg-type]

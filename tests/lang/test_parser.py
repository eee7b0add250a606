"""Parser tests: grammar, caret positions, round-trip property, fuzz.

The robustness contract under test is the one :mod:`repro.lang.errors`
states: *every* failure — lexical garbage, a grammar violation, or a
statement that parses but describes an invalid plan — raises a
positioned :class:`DqlSyntaxError`, and nothing else ever escapes
:func:`repro.lang.parse`.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MatchMode, PruningMode
from repro.lang import DqlSyntaxError, ExplainPlan, SelectPlan, ShowPlan, \
    parse

TWO_PI = 2.0 * math.pi


def fails_at(statement, position=None, fragment=None):
    with pytest.raises(DqlSyntaxError) as info:
        parse(statement)
    if position is not None:
        assert info.value.position == position, info.value.render()
    if fragment is not None:
        assert fragment in info.value.reason, info.value.render()
    return info.value


class TestGrammar:
    def test_minimal_select(self):
        plan = parse("SELECT 5 NEAR (1.5, -2.5) MATCHING 'cafe'")
        assert plan == SelectPlan(k=5, x=1.5, y=-2.5, keywords=("cafe",))

    def test_case_insensitive_keywords(self):
        assert parse("select 1 near (0, 0) matching 'cafe'") == \
            parse("SELECT 1 NEAR (0, 0) MATCHING 'cafe'")

    def test_heading_clause(self):
        plan = parse("SELECT 3 NEAR (0, 0) HEADING [0.5, 2.0] "
                     "MATCHING 'cafe'")
        assert (plan.alpha, plan.beta) == (0.5, 2.0)

    def test_heading_degrees_suffix(self):
        plan = parse("SELECT 3 NEAR (0, 0) HEADING [45 DEG, 90 DEG] "
                     "MATCHING 'cafe'")
        assert plan.alpha == pytest.approx(math.radians(45))
        assert plan.beta == pytest.approx(math.radians(90))

    def test_all_clauses_any_order(self):
        a = parse("EXPLAIN SELECT 2 NEAR (0, 0) MATCHING 'cafe' "
                  "MODE R MATCH ANY WITHIN 10 TIMEOUT 50")
        b = parse("EXPLAIN SELECT 2 NEAR (0, 0) MATCHING 'cafe' "
                  "TIMEOUT 50 WITHIN 10 MATCH ANY MODE R")
        assert a == b
        assert a.mode is PruningMode.R
        assert a.target.match_mode is MatchMode.ANY
        assert a.target.within == 10.0 and a.target.timeout_ms == 50.0

    def test_explain_wraps_select(self):
        plan = parse("EXPLAIN SELECT 1 NEAR (0, 0) MATCHING 'cafe'")
        assert isinstance(plan, ExplainPlan)
        assert plan.target.k == 1

    def test_show_forms(self):
        assert parse("SHOW METRICS") == ShowPlan("METRICS")
        assert parse("show shards") == ShowPlan("SHARDS")

    def test_multiple_keywords_canonicalized(self):
        plan = parse("SELECT 1 NEAR (0, 0) MATCHING 'Gas CAFE gas'")
        assert plan.keywords == ("cafe", "gas")


class TestPositionedErrors:
    def test_bad_verb(self):
        fails_at("SELEKT 1", position=0, fragment="SELECT")

    def test_missing_near(self):
        fails_at("SELECT 5 NEATS (0, 0) MATCHING 'cafe'", position=9,
                 fragment="NEAR")

    def test_truncated_statement(self):
        statement = "SELECT 5 NEAR (1,"
        err = fails_at(statement, position=len(statement))
        assert "end of statement" in err.reason

    def test_k_not_integer(self):
        fails_at("SELECT 2.5 NEAR (0, 0) MATCHING 'cafe'", position=7,
                 fragment="k must")

    def test_zero_k(self):
        fails_at("SELECT 0 NEAR (0, 0) MATCHING 'cafe'", position=7)

    def test_stopword_only_keywords_blame_the_string(self):
        statement = "SELECT 1 NEAR (0, 0) MATCHING 'the a'"
        fails_at(statement, position=statement.index("'"),
                 fragment="keyword")

    def test_backwards_heading_blames_heading(self):
        statement = "SELECT 1 NEAR (0, 0) HEADING [2.0, 1.0] " \
                    "MATCHING 'cafe'"
        fails_at(statement, position=statement.index("HEADING"))

    def test_negative_within_blames_the_value(self):
        statement = "SELECT 1 NEAR (0, 0) MATCHING 'cafe' WITHIN -4"
        fails_at(statement, position=statement.index("-4"),
                 fragment="WITHIN")

    def test_duplicate_clause(self):
        statement = ("EXPLAIN SELECT 1 NEAR (0, 0) MATCHING 'cafe' "
                     "MODE R MODE D")
        fails_at(statement, position=statement.rindex("MODE"),
                 fragment="duplicate")

    def test_trailing_garbage(self):
        statement = "SHOW METRICS please"
        fails_at(statement, position=statement.index("please"),
                 fragment="trailing")

    def test_bad_mode_member(self):
        fails_at("EXPLAIN SELECT 1 NEAR (0, 0) MATCHING 'cafe' MODE TURBO",
                 fragment="MODE expects")

    def test_select_takes_no_mode(self):
        statement = "SELECT 1 NEAR (0, 0) MATCHING 'cafe' MODE R"
        fails_at(statement, position=statement.index("MODE"),
                 fragment="EXPLAIN clause")

    def test_empty_statement(self):
        fails_at("", position=0, fragment="empty")
        fails_at("   ", fragment="empty")

    def test_non_string_statement(self):
        with pytest.raises(DqlSyntaxError):
            parse(42)  # type: ignore[arg-type]


# -- property: parse(render(plan)) == plan ------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
keyword = st.sampled_from(
    ["cafe", "gas", "atm", "pizza", "bank", "hotel", "park", "sushi"])


@st.composite
def select_plans(draw):
    if draw(st.booleans()):
        alpha = draw(st.floats(min_value=-10.0, max_value=10.0,
                               allow_nan=False, allow_infinity=False))
        width = draw(st.floats(min_value=1e-6, max_value=TWO_PI,
                               allow_nan=False, allow_infinity=False))
        beta = alpha + width
    else:
        alpha = beta = None
    return SelectPlan(
        k=draw(st.integers(min_value=1, max_value=1000)),
        x=draw(finite), y=draw(finite),
        keywords=tuple(draw(st.sets(keyword, min_size=1, max_size=4))),
        alpha=alpha, beta=beta,
        match_mode=draw(st.sampled_from(list(MatchMode))),
        within=draw(st.one_of(st.none(), st.floats(
            min_value=1e-3, max_value=1e6,
            allow_nan=False, allow_infinity=False))),
        timeout_ms=draw(st.one_of(st.none(), st.floats(
            min_value=1e-3, max_value=1e6,
            allow_nan=False, allow_infinity=False))))


class TestRoundTripProperty:
    @given(select_plans())
    @settings(max_examples=200, deadline=None)
    def test_parse_render_is_identity(self, plan):
        assert parse(plan.render()) == plan

    @given(select_plans())
    @settings(max_examples=50, deadline=None)
    def test_render_is_canonical_fixed_point(self, plan):
        assert parse(plan.render()).render() == plan.render()

    @given(select_plans(), st.sampled_from(list(PruningMode)))
    @settings(max_examples=50, deadline=None)
    def test_explain_round_trips_too(self, plan, mode):
        wrapped = ExplainPlan(plan, mode)
        assert parse(wrapped.render()) == wrapped


# -- fuzz: no exception but DqlSyntaxError ever escapes -----------------------

VALID_CORPUS = [
    "SELECT 5 NEAR (1.5, -2.5) MATCHING 'cafe'",
    "EXPLAIN SELECT 1 NEAR (0, 0) MATCHING 'cafe gas' MODE D",
    "SHOW METRICS",
]

#: Hand-picked near-misses: every historical parser bug class gets a row.
MALFORMED_CORPUS = [
    "", " ", "\t\n", ";", "SELECT", "SELECT k", "SELECT -1",
    "SELECT 1 NEAR", "SELECT 1 NEAR (", "SELECT 1 NEAR (1",
    "SELECT 1 NEAR (1,", "SELECT 1 NEAR (1, 2", "SELECT 1 NEAR (1, 2)",
    "SELECT 1 NEAR (1, 2) MATCHING", "SELECT 1 NEAR (1, 2) MATCHING cafe",
    "SELECT 1 NEAR (1, 2) MATCHING ''",
    "SELECT 1 NEAR (1, 2) MATCHING 'the'",
    "SELECT 1 NEAR (1, 2) MATCHING 'cafe' WITHIN",
    "SELECT 1 NEAR (1, 2) MATCHING 'cafe' WITHIN zero",
    "SELECT 1 NEAR (1, 2) MATCHING 'cafe' TIMEOUT 0",
    "SELECT 1 NEAR (1, 2) MATCHING 'cafe' EXTRA",
    "SELECT 1e500 NEAR (1, 2) MATCHING 'cafe'",
    "SELECT 1 NEAR (1e999, 2) MATCHING 'cafe'",
    "SELECT 1 NEAR (1, 2) HEADING MATCHING 'cafe'",
    "SELECT 1 NEAR (1, 2) HEADING [1.0 MATCHING 'cafe'",
    "SELECT 1 NEAR (1, 2) HEADING [9.0, 1.0] MATCHING 'cafe'",
    "EXPLAIN", "EXPLAIN SHOW METRICS", "EXPLAIN EXPLAIN",
    "SHOW", "SHOW TABLES", "SHOW METRICS SHARDS",
    "select 1 near (0 0) matching 'cafe'",
    "SELECT 1 NEAR (0, 0) MATCHING 'café'",
    "ВЫБРАТЬ 1", "select⋆", "'", '"', "((((((((", "]]]]",
    "SELECT 999999999999999999999 NEAR (0, 0) MATCHING 'cafe'",
]


class TestFuzz:
    @pytest.mark.parametrize("statement", MALFORMED_CORPUS)
    def test_malformed_corpus_is_typed_and_positioned(self, statement):
        try:
            plan = parse(statement)
        except DqlSyntaxError as exc:
            assert 0 <= exc.position <= len(statement)
            assert exc.reason
            assert exc.render()
        else:
            # A few rows are actually legal (unicode keywords survive
            # canonicalization); they must at least yield a plan.
            assert plan is not None

    def test_truncations_of_valid_statements(self):
        for statement in VALID_CORPUS:
            for cut in range(len(statement)):
                try:
                    parse(statement[:cut])
                except DqlSyntaxError as exc:
                    assert 0 <= exc.position <= cut
                except Exception as exc:  # pragma: no cover
                    pytest.fail(f"{statement[:cut]!r} leaked "
                                f"{type(exc).__name__}: {exc}")

    def test_random_token_soup_never_leaks(self):
        rng = random.Random(20120401)
        vocab = ["SELECT", "NEAR", "HEADING", "MATCHING", "MODE", "MATCH",
                 "WITHIN", "TIMEOUT", "SHOW", "EXPLAIN", "METRICS",
                 "(", ")", "[", "]", ",", "'cafe'", "'", "1", "-2.5",
                 "1e5", "DEG", "RD", "ANY", "x", "ß", ";"]
        for _ in range(500):
            soup = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
            try:
                parse(soup)
            except DqlSyntaxError as exc:
                assert 0 <= exc.position <= len(soup)
            except Exception as exc:  # pragma: no cover
                pytest.fail(f"{soup!r} leaked {type(exc).__name__}: {exc}")

    def test_random_byte_noise_never_leaks(self):
        rng = random.Random(7)
        for _ in range(300):
            noise = "".join(chr(rng.randint(1, 0x2FF))
                            for _ in range(rng.randint(1, 40)))
            try:
                parse(noise)
            except DqlSyntaxError as exc:
                assert 0 <= exc.position <= len(noise)
            except Exception as exc:  # pragma: no cover
                pytest.fail(f"{noise!r} leaked {type(exc).__name__}: {exc}")

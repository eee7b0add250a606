"""Recursive-descent parser: DQL text to typed logical plans.

The grammar (terminals in caps; ``[...]`` optional; words are
case-insensitive)::

    statement := select | EXPLAIN select | SHOW (METRICS | SHARDS)
    select    := SELECT count NEAR ( number , number )
                 [HEADING [ angle , angle ]]
                 MATCHING string
                 clause*
    clause    := MODE (RD | R | D)          -- under EXPLAIN only
               | MATCH (ALL | ANY)
               | WITHIN number
               | TIMEOUT number
    angle     := number [DEG]

Angles are radians unless suffixed ``DEG``; trailing clauses may appear
in any order but each at most once.  ``MODE`` picks the pruning mode an
``EXPLAIN`` runs under; a mode changes effort, never answers, so a plain
``SELECT`` refuses it.  Every failure — lexical, grammar,
or a statement describing an invalid plan — raises a positioned
:class:`~repro.lang.DqlSyntaxError`; no other exception type escapes
:func:`parse` (the fuzz suite holds the parser to that).
"""

from __future__ import annotations

import math
from typing import List, NoReturn, Optional, Tuple

from ..core import MatchMode, PruningMode
from .errors import DqlSyntaxError
from .lexer import END, NUMBER, PUNCT, STRING, WORD, Token, \
    tokenize_statement
from .plan import ExplainPlan, Plan, SelectPlan, ShowPlan

#: Trailing SELECT clauses, in canonical render order.
_CLAUSES = ("MODE", "MATCH", "WITHIN", "TIMEOUT")


class _Parser:
    """One statement's token cursor plus the grammar productions."""

    def __init__(self, statement: str, tokens: List[Token]) -> None:
        self.statement = statement
        self.tokens = tokens
        self.pos = 0

    # -- cursor helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not END:
            self.pos += 1
        return token

    def fail(self, message: str, token: Optional[Token] = None) -> NoReturn:
        token = token if token is not None else self.peek()
        where = message
        if token.kind is END:
            where += " before end of statement"
        raise DqlSyntaxError(where, self.statement, token.pos)

    def expect_word(self, word: str) -> Token:
        token = self.peek()
        if token.kind is not WORD or token.text != word:
            self.fail(f"expected {word}")
        return self.advance()

    def expect_punct(self, char: str) -> Token:
        token = self.peek()
        if token.kind is not PUNCT or token.text != char:
            self.fail(f"expected '{char}'")
        return self.advance()

    def expect_number(self, what: str) -> Tuple[float, Token]:
        token = self.peek()
        if token.kind is not NUMBER:
            self.fail(f"expected a number ({what})")
        self.advance()
        return token.number, token

    def expect_end(self) -> None:
        token = self.peek()
        if token.kind is not END:
            self.fail("unexpected trailing input")

    # -- productions ---------------------------------------------------------

    def statement_plan(self) -> Plan:
        token = self.peek()
        if token.kind is not WORD:
            self.fail("expected SELECT, EXPLAIN, or SHOW")
        if token.text == "SELECT":
            plan, _ = self.select(explain=False)
        elif token.text == "EXPLAIN":
            self.advance()
            start = self.peek()
            if not (start.kind is WORD and start.text == "SELECT"):
                self.fail("EXPLAIN expects a SELECT statement")
            target, mode = self.select(explain=True)
            plan = ExplainPlan(target, mode or PruningMode.RD)
        elif token.text == "SHOW":
            plan = self.show()
        else:
            self.fail("expected SELECT, EXPLAIN, or SHOW")
        self.expect_end()
        return plan

    def select(self, explain: bool,
               ) -> Tuple[SelectPlan, Optional[PruningMode]]:
        """A ``SELECT`` and, under ``EXPLAIN``, its ``MODE`` clause."""
        keyword = self.expect_word("SELECT")
        k, k_token = self.expect_number("the result count k")
        self.expect_word("NEAR")
        self.expect_punct("(")
        x, _ = self.expect_number("the x coordinate")
        self.expect_punct(",")
        y, _ = self.expect_number("the y coordinate")
        self.expect_punct(")")

        alpha: Optional[float] = None
        beta: Optional[float] = None
        heading_token: Optional[Token] = None
        token = self.peek()
        if token.kind is WORD and token.text == "HEADING":
            heading_token = self.advance()
            self.expect_punct("[")
            alpha = self.angle("the lower direction bound")
            self.expect_punct(",")
            beta = self.angle("the upper direction bound")
            self.expect_punct("]")

        self.expect_word("MATCHING")
        keywords_token = self.peek()
        if keywords_token.kind is not STRING:
            self.fail("expected a quoted keyword string")
        self.advance()

        mode: Optional[PruningMode] = None
        match_mode: Optional[MatchMode] = None
        within: Optional[float] = None
        within_token: Optional[Token] = None
        timeout_ms: Optional[float] = None
        timeout_token: Optional[Token] = None
        seen = set()
        while True:
            token = self.peek()
            if token.kind is not WORD or token.text not in _CLAUSES:
                break
            if token.text in seen:
                self.fail(f"duplicate {token.text} clause")
            if token.text == "MODE" and not explain:
                self.fail("MODE is an EXPLAIN clause (a pruning mode "
                          "changes effort, never answers)")
            seen.add(token.text)
            self.advance()
            if token.text == "MODE":
                mode = self.enum_word(PruningMode, "MODE expects RD, R, or D")
            elif token.text == "MATCH":
                match_mode = self.enum_word(
                    MatchMode, "MATCH expects ALL or ANY")
            elif token.text == "WITHIN":
                within, within_token = self.expect_number("the radius")
            else:
                timeout_ms, timeout_token = self.expect_number(
                    "the deadline in milliseconds")

        # Plan validation errors are positioned at the token that carried
        # the offending value, so the caret lands on the cause.
        blame = {
            "keyword": keywords_token,
            "alpha": heading_token, "beta": heading_token,
            "HEADING": heading_token, "interval": heading_token,
            "WITHIN": within_token, "TIMEOUT": timeout_token,
            "k must": k_token,
        }
        try:
            return SelectPlan(
                k=_int_count(k, k_token, self.statement),
                x=x, y=y,
                keywords=(keywords_token.text,),
                alpha=alpha, beta=beta,
                match_mode=match_mode or MatchMode.ALL,
                within=within, timeout_ms=timeout_ms), mode
        except DqlSyntaxError:
            raise
        except ValueError as exc:
            token = keyword
            for marker, candidate in blame.items():
                if candidate is not None and marker in str(exc):
                    token = candidate
                    break
            raise DqlSyntaxError(str(exc), self.statement,
                                 token.pos) from None

    def angle(self, what: str) -> float:
        """A number with an optional ``DEG`` suffix, in radians."""
        value, _ = self.expect_number(what)
        token = self.peek()
        if token.kind is WORD and token.text == "DEG":
            self.advance()
            return math.radians(value)
        return value

    def enum_word(self, enum_type, message: str):
        """A WORD token naming a member of ``enum_type``."""
        token = self.peek()
        if token.kind is WORD:
            for member in enum_type:
                if token.text == member.name.upper():
                    self.advance()
                    return member
        self.fail(message)

    def show(self) -> ShowPlan:
        self.expect_word("SHOW")
        token = self.peek()
        if token.kind is not WORD:
            self.fail("SHOW expects METRICS or SHARDS")
        try:
            plan = ShowPlan(token.text)
        except ValueError:
            self.fail("SHOW expects METRICS or SHARDS")
        self.advance()
        return plan


def _int_count(value: float, token: Token, statement: str) -> int:
    # Range check first: it is False for inf/nan, so int(value) below
    # can never overflow (the fuzz corpus's `SELECT 1e500 ...`).
    if not (1 <= value <= 10**9) or value != int(value):
        raise DqlSyntaxError(
            f"k must be a positive integer, got {token.text}",
            statement, token.pos)
    return int(value)


def parse(statement: str) -> Plan:
    """Parse one DQL statement into its typed logical plan.

    Raises :class:`~repro.lang.DqlSyntaxError` — positioned at the
    offending character — for anything that is not a valid statement.
    """
    if not isinstance(statement, str):
        raise DqlSyntaxError(
            f"statement must be a string, got {type(statement).__name__}")
    tokens = tokenize_statement(statement)
    if tokens[0].kind is END:
        raise DqlSyntaxError("empty statement", statement, 0)
    return _Parser(statement, tokens).statement_plan()

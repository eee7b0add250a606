"""The project rule catalog: the invariants the paper's correctness needs.

Each rule has a stable ``DALxxx`` code (Direction-Aware Lint) and runs
on one file at a time.  The two rules defined here catch what generic
linters cannot see: wraparound-unsafe angle arithmetic (DAL001) and
float equality on angles and distances (DAL002) — the paper's Eqs. 1-6
and Lemmas 1-4 only hold when every direction is normalised the same
way, and the apex direction-pruning bug was exactly a raw-angle
comparison.  The catalog adds the architecture contract (DAL010) and
broad handlers that swallow a cause (DAL011).

A rule stays in the catalog while it has caught something in non-fixture
code; ``docs/ANALYSIS.md`` renders the catalog, names the retired codes
and the runtime tests that guard their invariants, and a meta-test
asserts the two never drift.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Type

from .contract import ContractRule
from .engine import RuleVisitor
from .exceptions import ExceptionFlowRule

#: Two-pi in its spellings: ``TWO_PI``/``TAU`` names, ``math.tau``, a
#: ``2 * math.pi`` product, or a literal within 1e-6 of 6.2831853.
_TWO_PI_NAMES = {"TWO_PI", "TAU"}
_TWO_PI_VALUE = 6.283185307179586


def _is_two_pi(node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and node.id in _TWO_PI_NAMES:
        return True
    if isinstance(node, ast.Attribute) and node.attr == "tau":
        return True
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return abs(node.value - _TWO_PI_VALUE) < 1e-6
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        sides = (node.left, node.right)
        has_two = any(isinstance(s, ast.Constant) and s.value in (2, 2.0)
                      for s in sides)
        has_pi = any(isinstance(s, ast.Attribute) and s.attr == "pi"
                     for s in sides)
        return has_two and has_pi
    return False


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a name/attribute/call chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    return None


class AngleArithmeticRule(RuleVisitor):
    """DAL001: raw angle arithmetic outside :mod:`repro.geometry`."""

    code = "DAL001"
    summary = ("raw atan2 / modulo-2*pi arithmetic outside repro.geometry")
    rationale = (
        "Eqs. 1-6 and Lemmas 1-4 assume every direction is normalised into "
        "[0, 2*pi) by one implementation; ad-hoc atan2/% arithmetic "
        "reintroduces the wraparound bugs fixed in PR 1 (apex pruning). "
        "Use repro.geometry (angle_of, signed_angle_of, normalize_angle, "
        "DirectionInterval) instead.")

    def visit_Call(self, node: ast.Call) -> None:
        if not self.ctx.in_package("geometry"):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "atan2":
                self.emit(node, "raw math.atan2 outside repro.geometry; "
                                "use angle_of / signed_angle_of")
            elif isinstance(func, ast.Name) and func.id == "atan2":
                self.emit(node, "raw atan2 outside repro.geometry; "
                                "use angle_of / signed_angle_of")
            elif (isinstance(func, ast.Attribute) and func.attr == "fmod"
                  and node.args and len(node.args) == 2
                  and _is_two_pi(node.args[1])):
                self.emit(node, "fmod-by-2*pi outside repro.geometry; "
                                "use normalize_angle")
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if (not self.ctx.in_package("geometry")
                and isinstance(node.op, ast.Mod)
                and _is_two_pi(node.right)):
            self.emit(node, "modulo-2*pi arithmetic outside repro.geometry; "
                            "use normalize_angle")
        self.generic_visit(node)


class FloatEqualityRule(RuleVisitor):
    """DAL002: float ``==``/``!=`` on angles, distances, or locations."""

    code = "DAL002"
    summary = "float equality on angles, distances, or point locations"
    rationale = (
        "Angles come from atan2 and distances from hypot; two "
        "mathematically equal values routinely differ by an ulp (the "
        "TAU_SLACK story in core/mindist.py).  Exact == on them encodes a "
        "coincidence, not a predicate.  Compare against ANGLE_EPS-style "
        "tolerances, use Point.coincides(), or restate the test so exact "
        "zero is the honest boundary (e.g. `qd <= 0.0` for a hypot).")

    #: Identifier fragments that mark a value as an angle/distance/point.
    VOCAB = {
        "theta", "alpha", "beta", "tau", "angle", "angles", "bearing",
        "dist", "distance", "radius", "radii", "qd", "location",
    }

    @classmethod
    def _is_measured(cls, node: ast.AST) -> bool:
        name = _terminal_name(node)
        if name is None:
            return False
        return any(part in cls.VOCAB for part in name.lower().split("_"))

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and \
                isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return (isinstance(node, ast.Constant)
                and isinstance(node.value, float) and node.value != 0.0)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (left, right)
            if any(self._is_measured(o) for o in pair):
                self.emit(node, "exact ==/!= on an angle/distance/location "
                                "value; use a tolerance or "
                                "Point.coincides()")
                break
            if any(self._is_float_literal(o) for o in pair):
                self.emit(node, "exact ==/!= against a float literal; "
                                "compare with a tolerance")
                break
        self.generic_visit(node)


#: Every rule, in code order — the engine default.
ALL_RULES: Sequence[Type[RuleVisitor]] = (
    AngleArithmeticRule,
    FloatEqualityRule,
    ContractRule,
    ExceptionFlowRule,
)

#: code -> rule class, for documentation, `--rules` validation, and the
#: meta-test.
RULE_INDEX: Dict[str, Type[RuleVisitor]] = {
    rule.code: rule for rule in ALL_RULES}


def rule_catalog() -> List[Dict[str, str]]:
    """The catalog as data: code, summary, rationale per rule."""
    return [{"code": code, "summary": rule.summary,
             "rationale": rule.rationale}
            for code, rule in sorted(RULE_INDEX.items())]

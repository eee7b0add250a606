"""The project rule catalog: the invariants the paper's correctness needs.

Each rule is a :class:`~repro.analysis.engine.RuleVisitor` with a stable
``DALxxx`` code (Direction-Aware Lint).  The catalog exists because three
whole *classes* of bugs in this codebase are invisible to generic linters:

* wraparound-unsafe angle arithmetic (the paper's Eqs. 1-6 and Lemmas 1-4
  only hold when every direction is normalised the same way — PR 1's
  apex direction-pruning bug was exactly a raw-angle comparison);
* durability-protocol violations (WAL-append-before-apply, checksummed
  frames) that only bite after a crash;
* I/O accounting leaks (pages read behind the buffer pool's back make
  ``IOStats`` — and every benchmark built on it — silently wrong).

Every rule documents its rationale; ``docs/ANALYSIS.md`` renders the
catalog and a meta-test asserts the two never drift.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Type, Union

from .contract import ContractRule
from .engine import ProgramRule, RuleVisitor
from .exceptions import ExceptionFlowRule
from .shared import SharedStateRule

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


class BareAcquireRule(RuleVisitor):
    """DAL003: ``lock.acquire()`` without ``with`` or try/finally."""

    code = "DAL003"
    summary = "bare lock.acquire() not paired with with/try-finally release"
    rationale = (
        "A raised exception between acquire() and release() wedges every "
        "other thread forever — in this codebase that is the buffer pool, "
        "the result cache, or the mutable index's update lock.  Use `with "
        "lock:` (all six concurrent modules expose context-manager locks) "
        "or an immediate try/finally whose finally releases the same "
        "lock.")

    def _scan_body(self, body: List[ast.stmt]) -> None:
        for i, stmt in enumerate(body):
            if isinstance(stmt, ast.With):
                continue  # `with lock:` is the blessed form
            receiver = self._acquire_receiver(stmt)
            if receiver is None:
                continue
            follower = body[i + 1] if i + 1 < len(body) else None
            if isinstance(follower, ast.Try) and \
                    self._releases(follower.finalbody, receiver):
                continue
            self.emit(stmt, f"bare {receiver}.acquire() — use `with "
                            f"{receiver}:` or try/finally release")

    @staticmethod
    def _acquire_receiver(stmt: ast.stmt) -> Optional[str]:
        if not isinstance(stmt, (ast.Expr, ast.Assign, ast.AnnAssign,
                                 ast.AugAssign)):
            return None
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "acquire"):
                return ast.unparse(node.func.value)
        return None

    @staticmethod
    def _releases(finalbody: List[ast.stmt], receiver: str) -> bool:
        for stmt in finalbody:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "release"
                        and ast.unparse(node.func.value) == receiver):
                    return True
        return False

    def generic_visit(self, node: ast.AST) -> None:
        for field_value in ast.iter_fields(node):
            value = field_value[1]
            if isinstance(value, list) and value and \
                    isinstance(value[0], ast.stmt):
                self._scan_body(value)
        super().generic_visit(node)


class StrayFileWriteRule(RuleVisitor):
    """DAL004: durable file mutation outside the storage/durability layers."""

    code = "DAL004"
    summary = ("binary file writes / fsync / rename outside repro.storage "
               "and repro.durability")
    rationale = (
        "The durability contract is WAL-append-before-apply with "
        "checksummed page frames and a crash-safe two-rename snapshot "
        "swap (PR 3).  A binary write, fsync, or rename issued anywhere "
        "else mutates durable state outside that protocol, so a crash "
        "there can lose or tear data invisibly.  Allowed homes: "
        "repro/storage, repro/durability, and repro/core/persistence.py "
        "(the audited snapshot-swap layer).")

    #: Modules allowed to touch durable files directly.
    ALLOWED = ("storage", "durability", "core/persistence.py")

    _OS_CALLS = {"fsync", "rename", "replace"}

    def visit_Call(self, node: ast.Call) -> None:
        if not self.ctx.in_package(*self.ALLOWED):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in self._OS_CALLS
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"):
                self.emit(node, f"os.{func.attr} outside the storage/"
                                "durability layers")
            elif isinstance(func, ast.Name) and func.id == "open":
                mode = self._mode_arg(node)
                if mode is not None and "b" in mode and \
                        any(c in mode for c in "wa+x"):
                    self.emit(node, f"binary file write (mode {mode!r}) "
                                    "outside the storage/durability layers")
        self.generic_visit(node)

    @staticmethod
    def _mode_arg(node: ast.Call) -> Optional[str]:
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            return node.args[1].value
        for keyword in node.keywords:
            if keyword.arg == "mode" and \
                    isinstance(keyword.value, ast.Constant) and \
                    isinstance(keyword.value.value, str):
                return keyword.value.value
        return None


class BufferBypassRule(RuleVisitor):
    """DAL005: page I/O issued on a raw store instead of the buffer pool."""

    code = "DAL005"
    summary = "read_page/write_page on a raw page store outside repro.storage"
    rationale = (
        "Every page access must flow through the BufferPool so IOStats "
        "stays truthful (the paper's I/O comparisons — and PR 4's "
        "explain() reconciliation — are built on it) and so checksum "
        "verification runs on the read path.  A read on `.store`/`.inner` "
        "bypasses both.  The only legitimate bypass is deliberate damage "
        "injection in the chaos harness, which suppresses this rule "
        "explicitly.")

    #: Receiver names that denote a raw store rather than a pool.
    RAW_RECEIVERS = {"store", "_store", "inner", "page_store", "pages"}

    def visit_Call(self, node: ast.Call) -> None:
        if not self.ctx.in_package("storage"):
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in ("read_page", "write_page"):
                receiver = _terminal_name(func.value)
                if receiver in self.RAW_RECEIVERS:
                    self.emit(node, f"{func.attr} on raw store "
                                    f"`{ast.unparse(func.value)}` bypasses "
                                    "the buffer pool (IOStats + checksums)")
        self.generic_visit(node)


class NondeterminismRule(RuleVisitor):
    """DAL006: wall-clock / unseeded randomness in search or recovery."""

    code = "DAL006"
    summary = ("time.time or unseeded random inside search/recovery "
               "modules")
    rationale = (
        "Search answers and crash recovery must be replayable: the "
        "differential fuzzer, the chaos harness, and the explain() "
        "reconciliation all compare two runs byte-for-byte.  Wall-clock "
        "reads and the process-global random module make those runs "
        "unrepeatable.  Use time.perf_counter/monotonic for durations "
        "and a seeded random.Random instance for randomness.")

    #: Packages whose behaviour must be deterministic.
    SCOPED = ("core", "rtree", "text", "geometry", "durability", "kernel")

    _GLOBAL_RNG_OK = {"Random", "SystemRandom", "seed", "getstate",
                      "setstate"}

    def _scoped(self) -> bool:
        return self.ctx.in_package(*self.SCOPED)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (self._scoped() and node.attr == "time"
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"):
            self.emit(node, "time.time in a deterministic path; use "
                            "perf_counter/monotonic for durations")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self._scoped():
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                    and func.attr not in self._GLOBAL_RNG_OK):
                self.emit(node, f"process-global random.{func.attr} in a "
                                "deterministic path; use a seeded "
                                "random.Random instance")
            elif (isinstance(func, ast.Attribute)
                    and func.attr == "Random"
                    and not node.args and not node.keywords):
                self.emit(node, "random.Random() without a seed in a "
                                "deterministic path")
        self.generic_visit(node)


#: Every per-file rule, in code order — the engine default.  DAL010
#: (the architecture contract) subsumes the v1 layering rules DAL007/
#: 008/009: their checks live on as contract entries whose violations
#: keep the legacy codes via aliases.
ALL_RULES: Sequence[Type[RuleVisitor]] = (
    AngleArithmeticRule,
    FloatEqualityRule,
    BareAcquireRule,
    StrayFileWriteRule,
    BufferBypassRule,
    NondeterminismRule,
    ContractRule,
    SharedStateRule,
)

#: Whole-program rules the default engine runs once per check().
PROGRAM_RULES: Sequence[Type[ProgramRule]] = (
    ExceptionFlowRule,
)

#: Legacy codes that are now aliases: findings reported under these
#: codes are produced by the contract rule (DAL010).
ALIAS_CODES: Dict[str, Type[RuleVisitor]] = {
    "DAL007": ContractRule,
    "DAL008": ContractRule,
    "DAL009": ContractRule,
}

#: code -> rule class (file rules, program rules, and alias codes), for
#: documentation, `--rules` validation, and the meta-test.
RULE_INDEX: Dict[str, Union[Type[RuleVisitor], Type[ProgramRule]]] = {}
for _rule in ALL_RULES:
    RULE_INDEX[_rule.code] = _rule
for _program_rule in PROGRAM_RULES:
    RULE_INDEX[_program_rule.code] = _program_rule
RULE_INDEX.update(ALIAS_CODES)


def rule_catalog() -> List[Dict[str, str]]:
    """The catalog as data: code, summary, rationale per rule.

    Covers the per-file rules and the program rules; alias codes are
    documented by the rule that produces them (DAL010).
    """
    rules: List[Union[Type[RuleVisitor], Type[ProgramRule]]] = []
    rules.extend(ALL_RULES)
    rules.extend(PROGRAM_RULES)
    return [
        {"code": rule.code, "summary": rule.summary,
         "rationale": rule.rationale}
        for rule in sorted(rules, key=lambda rule: rule.code)
    ]

"""The project lint engine: AST rules, ``noqa`` suppressions, reports.

:class:`LintEngine` parses each source file once, hands the tree to every
registered rule, and collects :class:`Finding`\\ s into a
:class:`LintReport` with deterministic ordering and both human and JSON
renderings.  Rules are small :class:`ast.NodeVisitor` subclasses (see
:class:`RuleVisitor`) keyed by a ``DALxxx`` code; the catalog lives in
:mod:`repro.analysis.rules` and is documented in ``docs/ANALYSIS.md``.

Suppressions are explicit and per-line: a trailing comment of the form
``# desks: noqa-DAL001`` (or ``# desks: noqa-DAL001,DAL002``) silences
exactly the named codes on that line.  There is deliberately no blanket
``noqa`` — every suppression names the invariant it waives, so a grep for
``desks: noqa`` enumerates every place the project steps around its own
rules.

The engine is stdlib-only and imports nothing from the rest of the
library, so it can lint any tree (including this package) without side
effects.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

#: ``# desks: noqa-DAL001`` / ``# desks: noqa-DAL001,DAL002`` (one line).
_NOQA = re.compile(r"#\s*desks:\s*noqa-(DAL\d{3}(?:\s*,\s*DAL\d{3})*)")

_CODE = re.compile(r"DAL\d{3}")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    message: str
    path: str
    line: int
    col: int
    snippet: str = ""
    suppressed: bool = False

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (stable key order via sort_keys at dump time)."""
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
        }

    def render(self) -> str:
        """``path:line:col: CODE message`` — the human one-liner."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} {self.message}")


class ModuleContext:
    """Everything a rule may ask about the file under analysis.

    ``module_path`` is the slash-separated path *from the package root*
    (``repro/geometry/angles.py``), so rules can scope themselves to
    packages without caring where the tree is checked out.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.module_path = _module_path(path)

    def in_package(self, package: str) -> bool:
        """True when the module lives under ``package``, named relative
        to the ``repro`` package root (``in_package("geometry")`` matches
        ``repro/geometry/angles.py``)."""
        return self.module_path.startswith(f"repro/{package}/")

    def line_text(self, lineno: int) -> str:
        """The 1-based source line, or empty when out of range."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def _module_path(path: str) -> str:
    """``.../src/repro/core/index.py`` -> ``repro/core/index.py``.

    Keys on the *last* ``repro`` segment, so a checkout that itself sits
    under a directory named ``repro`` resolves the same way.
    """
    parts = path.replace(os.sep, "/").split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return "/".join(parts)


class RuleVisitor(ast.NodeVisitor):
    """Base class for lint rules: one visitor instance per (rule, file).

    Subclasses set the class attributes and call :meth:`emit` from their
    ``visit_*`` methods.  ``rationale`` ties the rule to the invariant it
    protects (paper lemma, layering, ...) and feeds the rule catalog in
    ``docs/ANALYSIS.md``.
    """

    code: str = ""
    summary: str = ""
    rationale: str = ""
    #: Optional architecture contract (set by the engine when it was
    #: constructed with one); contract-driven rules fall back to the
    #: checked-in default when this stays ``None``.
    contract: Optional[object] = None

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []

    def emit(self, node: ast.AST, message: str) -> None:
        """Record a finding at ``node``'s location."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.findings.append(Finding(
            code=self.code, message=message, path=self.ctx.path,
            line=line, col=col,
            snippet=self.ctx.line_text(line).strip()))

    def run(self) -> List[Finding]:
        """Visit the whole module and return this rule's findings."""
        self.visit(self.ctx.tree)
        return self.findings


@dataclass
class LintReport:
    """Every finding from one engine run, plus what was scanned."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    errors: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no active finding (suppressions don't count) and no
        file failed to parse."""
        return not self.findings and not self.errors

    def counts_by_code(self) -> Dict[str, int]:
        """Active findings per rule code."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready report (the CI artifact format)."""
        return {
            "files_checked": self.files_checked,
            "clean": self.clean,
            "counts": self.counts_by_code(),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "errors": [{"path": p, "error": e} for p, e in self.errors],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human output: one line per finding or parse error plus a
        summary line that counts both."""
        lines = [f.render() for f in self.findings]
        for path, error in self.errors:
            lines.append(f"{path}:0:0: PARSE {error}")
        state = ("clean" if self.clean
                 else f"{len(self.findings)} finding(s)")
        if self.errors:
            state += f", {len(self.errors)} parse error(s)"
        suppressed = (f", {len(self.suppressed)} suppressed"
                      if self.suppressed else "")
        lines.append(f"checked {self.files_checked} file(s): "
                     f"{state}{suppressed}")
        return "\n".join(lines)


class LintEngine:
    """Runs per-file rules over files or trees."""

    def __init__(self,
                 rules: Optional[Sequence[Type[RuleVisitor]]] = None,
                 contract: Optional[object] = None) -> None:
        if rules is None:
            from .rules import ALL_RULES
            rules = ALL_RULES
        self.rules: List[Type[RuleVisitor]] = list(rules)
        self.contract = contract

    # -- discovery -----------------------------------------------------------

    @staticmethod
    def discover(target: str) -> List[str]:
        """Python files under ``target`` (a file or a directory), sorted.

        A target that is neither raises :class:`FileNotFoundError`: a
        mistyped path must not lint as an empty, clean directory.
        """
        if os.path.isfile(target):
            return [target]
        if not os.path.isdir(target):
            raise FileNotFoundError(f"no such file or directory: {target}")
        out: List[str] = []
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d for d in dirnames
                if d != "__pycache__" and not d.endswith(".egg-info"))
            out.extend(os.path.join(dirpath, f)
                       for f in sorted(filenames) if f.endswith(".py"))
        return out

    # -- execution -----------------------------------------------------------

    def check_source(self, source: str, path: str = "<string>",
                     ) -> List[Finding]:
        """Lint one in-memory module; returns active + suppressed findings
        (suppressed ones carry ``suppressed=True``)."""
        tree = ast.parse(source, filename=path)
        findings = self._run_rules(ModuleContext(path, source, tree))
        findings.sort(key=_finding_key)
        return findings

    def check(self, targets: Iterable[str]) -> LintReport:
        """Lint every python file under each target path."""
        report = LintReport()
        for target in targets:
            for path in self.discover(target):
                report.files_checked += 1
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        source = handle.read()
                    tree = ast.parse(source, filename=path)
                except (SyntaxError, OSError) as exc:
                    report.errors.append((path, str(exc)))
                    continue
                for finding in self._run_rules(
                        ModuleContext(path, source, tree)):
                    (report.suppressed if finding.suppressed
                     else report.findings).append(finding)
        report.findings.sort(key=_finding_key)
        report.suppressed.sort(key=_finding_key)
        return report

    # -- internals -----------------------------------------------------------

    def _run_rules(self, ctx: ModuleContext) -> List[Finding]:
        """Every rule over one module, ``noqa`` suppressions applied."""
        noqa = _noqa_lines(ctx.source)
        out: List[Finding] = []
        for rule in self.rules:
            visitor = rule(ctx)
            if self.contract is not None:
                visitor.contract = self.contract
            for finding in visitor.run():
                if finding.code in noqa.get(finding.line, ()):
                    finding = replace(finding, suppressed=True)
                out.append(finding)
        return out


def _finding_key(finding: Finding) -> Tuple[str, int, int, str]:
    """Deterministic report order: path, line, col, code."""
    return (finding.path, finding.line, finding.col, finding.code)


def _noqa_lines(source: str) -> Dict[int, Set[str]]:
    """Map of 1-based line number -> codes suppressed on that line."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA.search(line)
        if match:
            out[lineno] = set(_CODE.findall(match.group(1)))
    return out

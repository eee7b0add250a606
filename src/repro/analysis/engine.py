"""The project lint engine: AST rules, ``noqa`` suppressions, reports.

:class:`LintEngine` parses each source file once, hands the tree to every
registered rule, and collects :class:`Finding`\\ s into a
:class:`LintReport` with deterministic ordering and both human and JSON
renderings.  Rules are small :class:`ast.NodeVisitor` subclasses (see
:class:`RuleVisitor`) keyed by a ``DALxxx`` code; the catalog lives in
:mod:`repro.analysis.rules` and is documented in ``docs/ANALYSIS.md``.

Suppressions are explicit and per-line: a trailing comment of the form
``# desks: noqa-DAL001`` (or ``# desks: noqa-DAL001,DAL005``) silences
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
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Set, Tuple, Type)

if TYPE_CHECKING:  # pragma: no cover - typing only (runtime import cycle)
    from .graph import ProgramIndex

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

    def in_package(self, *packages: str) -> bool:
        """True when the module lives under any of ``packages``.

        Packages are slash paths relative to the ``repro`` package root,
        e.g. ``in_package("geometry", "storage")``; a full filename such
        as ``core/persistence.py`` matches exactly that module.
        """
        for package in packages:
            prefix = f"repro/{package}"
            if self.module_path == prefix or \
                    self.module_path.startswith(prefix.rstrip("/") + "/"):
                return True
        return False

    def line_text(self, lineno: int) -> str:
        """The 1-based source line, or empty when out of range."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def _module_path(path: str) -> str:
    """``.../src/repro/core/index.py`` -> ``repro/core/index.py``."""
    parts = path.replace(os.sep, "/").split("/")
    for i, part in enumerate(parts):
        if part == "repro":
            return "/".join(parts[i:])
    return "/".join(parts)


class RuleVisitor(ast.NodeVisitor):
    """Base class for lint rules: one visitor instance per (rule, file).

    Subclasses set the class attributes and call :meth:`emit` from their
    ``visit_*`` methods.  ``rationale`` ties the rule to the invariant it
    protects (paper lemma, WAL protocol, ...) and feeds the rule catalog
    in ``docs/ANALYSIS.md``.
    """

    code: str = ""
    summary: str = ""
    rationale: str = ""
    #: Optional architecture contract (set by the engine when it was
    #: constructed with one); contract-driven rules fall back to the
    #: packaged default when this stays ``None``.
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


class ProgramRule:
    """Base class for whole-program (interprocedural) rules.

    Where a :class:`RuleVisitor` sees one file, a program rule sees the
    entire parsed tree at once (a :class:`~repro.analysis.graph.
    ProgramIndex`) and may follow imports and calls across modules.  The
    engine runs each program rule exactly once per :meth:`LintEngine.
    check` invocation, after the per-file rules, and applies the same
    per-line ``# desks: noqa-DALxxx`` suppressions to its findings.
    """

    code: str = ""
    summary: str = ""
    rationale: str = ""
    #: Optional architecture contract, same semantics as
    #: :attr:`RuleVisitor.contract`.
    contract: Optional[object] = None

    def check(self, program: "ProgramIndex") -> List[Finding]:
        """Analyse the whole program; return findings (any order)."""
        raise NotImplementedError


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
        """Human output: one line per finding plus a summary line."""
        lines = [f.render() for f in self.findings]
        for path, error in self.errors:
            lines.append(f"{path}:0:0: PARSE {error}")
        state = ("clean" if self.clean
                 else f"{len(self.findings)} finding(s)")
        suppressed = (f", {len(self.suppressed)} suppressed"
                      if self.suppressed else "")
        lines.append(f"checked {self.files_checked} file(s): "
                     f"{state}{suppressed}")
        return "\n".join(lines)


class LintEngine:
    """Runs per-file and whole-program rules over files or trees."""

    def __init__(self,
                 rules: Optional[Sequence[Type[RuleVisitor]]] = None,
                 program_rules: Optional[Sequence[Type[ProgramRule]]] = None,
                 contract: Optional[object] = None) -> None:
        if rules is None:
            from .rules import ALL_RULES, PROGRAM_RULES
            rules = ALL_RULES
            if program_rules is None:
                program_rules = PROGRAM_RULES
        self.rules: List[Type[RuleVisitor]] = list(rules)
        self.program_rules: List[Type[ProgramRule]] = list(
            program_rules or ())
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
        (suppressed ones carry ``suppressed=True``).

        Program rules run too, over a single-module program — their
        cross-module facets simply see no other modules.
        """
        tree = ast.parse(source, filename=path)
        findings = self._run_file_rules(ModuleContext(path, source, tree))
        if self.program_rules:
            from .graph import ProgramIndex
            program = ProgramIndex.from_sources([(path, source, tree)])
            findings.extend(self._run_program_rules(program))
        findings = self._apply_noqa(findings, {path: _noqa_lines(source)})
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return findings

    def check(self, targets: Iterable[str]) -> LintReport:
        """Lint every python file under each target path.

        Per-file rules run per module; program rules run once over the
        whole parsed set, so interprocedural facts (call chains, the
        import graph) span every target.
        """
        report = LintReport()
        parsed: List[Tuple[str, str, ast.Module]] = []
        noqa_by_path: Dict[str, Dict[int, Set[str]]] = {}
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
                parsed.append((path, source, tree))
                noqa_by_path[path] = _noqa_lines(source)
        findings: List[Finding] = []
        for path, source, tree in parsed:
            findings.extend(
                self._run_file_rules(ModuleContext(path, source, tree)))
        if self.program_rules and parsed:
            from .graph import ProgramIndex
            findings.extend(
                self._run_program_rules(ProgramIndex.from_sources(parsed)))
        for finding in self._apply_noqa(findings, noqa_by_path):
            (report.suppressed if finding.suppressed
             else report.findings).append(finding)
        report.findings.sort(key=_finding_key)
        report.suppressed.sort(key=_finding_key)
        return report

    # -- internals -----------------------------------------------------------

    def _run_file_rules(self, ctx: ModuleContext) -> List[Finding]:
        out: List[Finding] = []
        for rule in self.rules:
            visitor = rule(ctx)
            if self.contract is not None:
                visitor.contract = self.contract
            out.extend(visitor.run())
        return out

    def _run_program_rules(self,
                           program: "ProgramIndex") -> List[Finding]:
        out: List[Finding] = []
        for rule_cls in self.program_rules:
            rule = rule_cls()
            if self.contract is not None:
                rule.contract = self.contract
            out.extend(rule.check(program))
        return out

    @staticmethod
    def _apply_noqa(findings: List[Finding],
                    noqa_by_path: Dict[str, Dict[int, Set[str]]],
                    ) -> List[Finding]:
        out: List[Finding] = []
        for finding in findings:
            codes = noqa_by_path.get(finding.path, {}).get(
                finding.line, set())
            if finding.code in codes and not finding.suppressed:
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

"""Static analysis for the DESKS codebase.

Three layers (see ``docs/ANALYSIS.md``):

* :class:`LintEngine` + the ``DALxxx`` rule catalog — an AST linter for
  the *project's own* invariants, one file at a time: angle arithmetic
  confined to :mod:`repro.geometry`, no float equality on angles and
  distances, the architecture contract written as Python data (DAL010,
  :mod:`repro.analysis.contract`), and no broad handler that swallows
  a cause (DAL011, :mod:`repro.analysis.exceptions`);
* the whole-tree import graph (:mod:`repro.analysis.graph`), exported
  as JSON + DOT;
* the ``repro lint`` CLI subcommand (including ``--graph`` export) and
  CI wiring that keep ``src/`` clean.

No runtime layer imports this package (DAL010 enforces it): only the
CLI's ``lint`` subcommand loads it, on demand.
"""

from .contract import (
    Contract,
    ContractRule,
    default_contract,
)
from .engine import (
    Finding,
    LintEngine,
    LintReport,
    ModuleContext,
    RuleVisitor,
)
from .exceptions import ExceptionFlowRule
from .graph import (
    ImportGraph,
    ProgramIndex,
    build_graph,
)
from .rules import (
    ALL_RULES,
    RULE_INDEX,
    rule_catalog,
)

__all__ = [
    "ALL_RULES",
    "Contract",
    "ContractRule",
    "ExceptionFlowRule",
    "Finding",
    "ImportGraph",
    "LintEngine",
    "LintReport",
    "ModuleContext",
    "ProgramIndex",
    "RULE_INDEX",
    "RuleVisitor",
    "build_graph",
    "default_contract",
    "rule_catalog",
]

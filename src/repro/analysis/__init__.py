"""Static analysis + runtime race detection for the DESKS codebase.

Four layers (see ``docs/ANALYSIS.md``):

* :class:`LintEngine` + the ``DALxxx`` rule catalog — an AST linter for
  the *project's own* invariants, one file at a time: angle arithmetic
  confined to :mod:`repro.geometry`, no float equality on angles and
  distances, the architecture contract written as Python data (DAL010,
  :mod:`repro.analysis.contract`), and no broad handler that swallows
  a cause (DAL011, :mod:`repro.analysis.exceptions`);
* the whole-tree import graph (:mod:`repro.analysis.graph`), exported
  as JSON + DOT;
* :func:`make_lock` / :class:`TrackedLock` / :class:`LockTracker` — a
  runtime lock-order race detector for the concurrent modules, plus the
  shared-state write sanitizer (:func:`register_shared` /
  :class:`WriteTracker`, DAL012) that catches lock-free mutations of
  thread-shared objects; both zero-cost when disabled;
* the ``repro lint`` CLI subcommand (including ``--graph`` export) and
  CI wiring that keep ``src/`` clean.
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
from .locks import (
    ENV_FLAG,
    LockEdge,
    LockOrderReport,
    LockTracker,
    TrackedLock,
    disable_lock_tracking,
    enable_lock_tracking,
    get_lock_tracker,
    lock_tracking_enabled,
    make_lock,
)
from .rules import (
    ALL_RULES,
    RULE_INDEX,
    rule_catalog,
)
from .shared import (
    ENV_WRITE_FLAG,
    SharedStateRule,
    WriteReport,
    WriteTracker,
    WriteViolation,
    disable_write_tracking,
    enable_write_tracking,
    get_write_tracker,
    register_shared,
    write_tracking_enabled,
)

__all__ = [
    "ALL_RULES",
    "Contract",
    "ContractRule",
    "ENV_FLAG",
    "ENV_WRITE_FLAG",
    "ExceptionFlowRule",
    "Finding",
    "ImportGraph",
    "LintEngine",
    "LintReport",
    "LockEdge",
    "LockOrderReport",
    "LockTracker",
    "ModuleContext",
    "ProgramIndex",
    "RULE_INDEX",
    "RuleVisitor",
    "SharedStateRule",
    "TrackedLock",
    "WriteReport",
    "WriteTracker",
    "WriteViolation",
    "build_graph",
    "default_contract",
    "disable_lock_tracking",
    "disable_write_tracking",
    "enable_lock_tracking",
    "enable_write_tracking",
    "get_lock_tracker",
    "get_write_tracker",
    "lock_tracking_enabled",
    "make_lock",
    "register_shared",
    "rule_catalog",
    "write_tracking_enabled",
]

"""Broad exception handlers (DAL011): a handler that swallows the cause.

The wire protocol's promise is that a peer only ever sees one of the
typed error codes (OVERLOAD / BAD_REQUEST / INTERNAL / SHUTTING_DOWN),
and an INTERNAL error is only diagnosable when it carries the cause.
:class:`ExceptionFlowRule` flags every ``except Exception`` / ``except
BaseException`` / bare ``except:`` whose body contains no ``raise``: such
a handler silently discards the exception it caught.  A handler that
deliberately turns the exception into a recorded outcome (a typed error
frame, a failover, a future's exception) carries a justified ``# desks:
noqa-DAL011`` comment naming where the cause goes.

The rule is per-file.  Its former escape facet — an interprocedural
proof over a call graph that nothing untyped escapes an RPC entry point
— is retired: it never fired on the project's history, and the runtime
tests named in ``docs/ANALYSIS.md`` ("Retired rules") hold the promise.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from .engine import RuleVisitor

_BROAD = {"Exception", "BaseException"}


def _handler_types(handler: ast.ExceptHandler) -> Optional[List[str]]:
    """Caught type names, or ``None`` for a bare ``except:``."""
    if handler.type is None:
        return None
    nodes = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    out: List[str] = []
    for node in nodes:
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
    return out


def _contains_raise(body: List[ast.stmt]) -> bool:
    return any(isinstance(node, ast.Raise)
               for stmt in body for node in ast.walk(stmt))


class ExceptionFlowRule(RuleVisitor):
    """DAL011: a broad handler that swallows the exception's cause."""

    code = "DAL011"
    summary = ("a broad `except` handler swallows the exception and its "
               "cause")
    rationale = (
        "A peer of the wire protocol must only ever observe the typed "
        "error codes (OVERLOAD / BAD_REQUEST / INTERNAL / SHUTTING_DOWN) "
        "— the resilience layer's breakers, retries, and hedging all "
        "classify on them — and an INTERNAL error is only diagnosable "
        "when it carries its cause.  A broad `except Exception` that "
        "neither re-raises nor records the exception discards exactly "
        "that cause.  Deliberate conversions are audited waivers.")

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        caught = _handler_types(node)
        broad = set(caught or ()) & _BROAD
        if (caught is None or broad) and not _contains_raise(node.body):
            label = ("bare `except:`" if caught is None else
                     f"`except {'/'.join(sorted(broad))}`")
            self.emit(node, f"{label} swallows the exception and discards "
                            "its cause; narrow the type, re-raise "
                            "(`raise` / `raise ... from exc`), or add a "
                            "justified `# desks: noqa-DAL011`")
        self.generic_visit(node)


__all__ = ["ExceptionFlowRule"]

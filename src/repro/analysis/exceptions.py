"""Exception-flow analysis (DAL011): typed errors at the RPC boundary.

The wire protocol's promise is that a peer only ever sees one of the
typed error codes (OVERLOAD / BAD_REQUEST / INTERNAL / SHUTTING_DOWN).
That holds exactly when every exception that can reach an RPC entry
point — the contract's ``[[boundary]]`` functions: ``FrameServer.
_dispatch`` (inherited by ``ShardServer`` and ``ClusterFrontend``, whose
hooks are followed as overrides), ``DqlExecutor.execute`` — is either
converted there or belongs to a family the boundary's callers
convert (its ``allowed`` list, subclasses included).

:class:`ExceptionFlowRule` checks both halves:

* **escape facet** — an interprocedural fixpoint propagates the set of
  exception types each function can raise (explicit ``raise`` sites,
  re-raises, and resolvable calls) through the
  :class:`~repro.analysis.graph.CallGraph`, filtering at every
  ``try``/``except`` with subclass-aware matching over the project's
  own exception hierarchy plus the builtin one.  Any type that escapes
  a boundary beyond its allow-list is flagged at the boundary, citing
  the originating ``raise`` site.
* **handler facet** — every ``except Exception`` / ``except
  BaseException`` / bare ``except:`` whose body neither re-raises nor
  sits in a declared boundary is flagged: a handler that swallows
  everything silently discards the cause the typed error should carry.

The propagation is deliberately *under-approximate*: calls the graph
cannot resolve, raises of non-literal values, and exceptions raised by
builtins (``struct.error`` from ``unpack`` and friends) contribute
nothing.  What the pass reports is therefore real; what it misses is
covered at runtime by the protocol tests' corruption/overload matrix.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .contract import Contract, default_contract
from .engine import Finding, ProgramRule
from .graph import CallGraph, ClassInfo, ProgramIndex

#: Builtin exception -> parent, for subclass matching without importing.
_BUILTIN_BASES: Dict[str, str] = {
    "ArithmeticError": "Exception",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BlockingIOError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "BufferError": "Exception",
    "ChildProcessError": "OSError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionError": "OSError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "EOFError": "Exception",
    "Exception": "BaseException",
    "FileExistsError": "OSError",
    "FileNotFoundError": "OSError",
    "FloatingPointError": "ArithmeticError",
    "GeneratorExit": "BaseException",
    "IOError": "OSError",
    "IndexError": "LookupError",
    "InterruptedError": "OSError",
    "IsADirectoryError": "OSError",
    "KeyError": "LookupError",
    "KeyboardInterrupt": "BaseException",
    "LookupError": "Exception",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "NotADirectoryError": "OSError",
    "NotImplementedError": "RuntimeError",
    "OSError": "Exception",
    "OverflowError": "ArithmeticError",
    "PermissionError": "OSError",
    "RecursionError": "RuntimeError",
    "RuntimeError": "Exception",
    "StopAsyncIteration": "Exception",
    "StopIteration": "Exception",
    "SystemExit": "BaseException",
    "TimeoutError": "OSError",
    "TypeError": "Exception",
    "UnicodeDecodeError": "ValueError",
    "UnicodeEncodeError": "ValueError",
    "UnicodeError": "ValueError",
    "ValueError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
}

#: Exception types that `except Exception` does NOT catch.
_OUTSIDE_EXCEPTION = {"BaseException", "KeyboardInterrupt", "SystemExit",
                      "GeneratorExit"}

_BROAD = {"Exception", "BaseException"}

#: type name -> (file path, line of the originating raise).
_Escapes = Dict[str, Tuple[str, int]]


class _Hierarchy:
    """Subclass queries over project classes + the builtin table."""

    def __init__(self, classes: Dict[str, ClassInfo]) -> None:
        self.classes = classes

    def is_subtype(self, name: str, base: str) -> bool:
        """True when an instance of ``name`` is caught by ``except base``.

        ``Exception`` catches everything except the BaseException-only
        types (soundly over-approximate for unknown names); otherwise
        the relation must be provable from the known hierarchy.
        """
        if name == base or base == "BaseException":
            return True
        if base == "Exception":
            return name not in _OUTSIDE_EXCEPTION
        stack = [name]
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if current == base:
                return True
            info = self.classes.get(current)
            if info is not None:
                stack.extend(info.bases)
            elif current in _BUILTIN_BASES:
                stack.append(_BUILTIN_BASES[current])
        return False


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _handler_types(handler: ast.ExceptHandler) -> Optional[List[str]]:
    """Caught type names, or ``None`` for a bare ``except:``."""
    if handler.type is None:
        return None
    nodes = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    out: List[str] = []
    for node in nodes:
        name = _terminal(node)
        if name is not None:
            out.append(name)
    return out


_RERAISE = "__reraise__"


def _raise_type(exc: ast.expr, handler_var: Optional[str]) -> Optional[str]:
    """Type name a ``raise <exc>`` throws; ``_RERAISE`` for the caught
    variable; ``None`` when unresolvable."""
    if isinstance(exc, ast.Name):
        if handler_var is not None and exc.id == handler_var:
            return _RERAISE
        return exc.id if exc.id[:1].isupper() else None
    if isinstance(exc, ast.Call):
        name = _terminal(exc.func)
        return name if name and name[:1].isupper() else None
    if isinstance(exc, ast.Attribute):
        return exc.attr if exc.attr[:1].isupper() else None
    return None


def _expr_nodes(stmt: ast.AST) -> Iterator[ast.AST]:
    """Expression nodes belonging to ``stmt`` itself (not nested
    statements, not lambda bodies)."""
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, (ast.stmt, ast.Lambda)):
            continue
        yield child
        yield from _expr_nodes(child)


class _EscapeAnalysis:
    """Escape set of one function body under the current estimates."""

    def __init__(self, graph: CallGraph, hierarchy: _Hierarchy,
                 estimates: Dict[str, _Escapes], qualname: str,
                 fs_path: str) -> None:
        self.graph = graph
        self.hierarchy = hierarchy
        self.estimates = estimates
        self.qualname = qualname
        self.fs_path = fs_path

    def run(self, node: ast.AST) -> _Escapes:
        """Types that can escape the function, with first raise sites."""
        body = getattr(node, "body", [])
        if not isinstance(body, list):
            return {}
        return self._stmts(body, {}, None)

    def _stmts(self, stmts: List[ast.stmt], reraise: _Escapes,
               handler_var: Optional[str]) -> _Escapes:
        out: _Escapes = {}
        for stmt in stmts:
            for name, origin in self._stmt(stmt, reraise,
                                           handler_var).items():
                out.setdefault(name, origin)
        return out

    def _stmt(self, stmt: ast.stmt, reraise: _Escapes,
              handler_var: Optional[str]) -> _Escapes:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return {}  # runs later, analysed as its own function
        if isinstance(stmt, ast.Raise):
            return self._raise(stmt, reraise, handler_var)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, reraise, handler_var)
        out = self._call_escapes(stmt)
        for _, value in ast.iter_fields(stmt):
            if isinstance(value, list) and value and \
                    isinstance(value[0], ast.stmt):
                for name, origin in self._stmts(value, reraise,
                                                handler_var).items():
                    out.setdefault(name, origin)
        return out

    def _raise(self, stmt: ast.Raise, reraise: _Escapes,
               handler_var: Optional[str]) -> _Escapes:
        if stmt.exc is None:
            return dict(reraise)
        name = _raise_type(stmt.exc, handler_var)
        if name == _RERAISE:
            return dict(reraise)
        out = self._call_escapes(stmt)
        if name is not None:
            out.setdefault(name, (self.fs_path, stmt.lineno))
        return out

    def _try(self, stmt: ast.Try, reraise: _Escapes,
             handler_var: Optional[str]) -> _Escapes:
        remaining = dict(self._stmts(stmt.body, reraise, handler_var))
        out: _Escapes = {}
        for handler in stmt.handlers:
            caught = _handler_types(handler)
            matched: _Escapes = {}
            for name in sorted(remaining):
                if caught is None or any(
                        self.hierarchy.is_subtype(name, c) for c in caught):
                    matched[name] = remaining.pop(name)
            for name, origin in self._stmts(
                    handler.body, matched, handler.name).items():
                out.setdefault(name, origin)
        for name, origin in remaining.items():
            out.setdefault(name, origin)
        for block in (stmt.orelse, stmt.finalbody):
            for name, origin in self._stmts(block, reraise,
                                            handler_var).items():
                out.setdefault(name, origin)
        return out

    def _call_escapes(self, stmt: ast.AST) -> _Escapes:
        out: _Escapes = {}
        for node in _expr_nodes(stmt):
            if isinstance(node, ast.Call):
                for target in self.graph.resolve(self.qualname, node):
                    for name, origin in self.estimates.get(
                            target, {}).items():
                        out.setdefault(name, origin)
        return out


def _walk_handlers(tree: ast.Module,
                   ) -> List[Tuple[ast.ExceptHandler, Tuple[str, ...]]]:
    """Every except handler with its enclosing function-name chain."""
    results: List[Tuple[ast.ExceptHandler, Tuple[str, ...]]] = []

    def visit(node: ast.AST, chain: Tuple[str, ...],
              cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, chain, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{cls}.{child.name}" if cls else child.name
                visit(child, chain + (name,), cls)
            else:
                if isinstance(child, ast.ExceptHandler):
                    results.append((child, chain))
                visit(child, chain, cls)

    visit(tree, (), None)
    return results


def _contains_raise(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
    return False


class ExceptionFlowRule(ProgramRule):
    """DAL011: exceptions escaping the RPC boundary, swallowed causes."""

    code = "DAL011"
    summary = ("exception can escape an RPC boundary untyped, or a broad "
               "handler swallows the cause")
    rationale = (
        "A peer of the wire protocol must only ever observe the typed "
        "error codes (OVERLOAD / BAD_REQUEST / INTERNAL / SHUTTING_DOWN) "
        "— the resilience layer's breakers, retries, and hedging all "
        "classify on them.  An exception that escapes FrameServer."
        "_dispatch (the one dispatcher ShardServer and ClusterFrontend "
        "inherit) or DqlExecutor.execute "
        "outside the contract's allow-list tears the connection with no "
        "typed frame, and a broad `except Exception` that swallows the "
        "cause produces INTERNAL errors that cannot be diagnosed.  The "
        "escape facet is proven interprocedurally over the call graph; "
        "unresolvable calls contribute nothing (under-approximate by "
        "design), with the runtime corruption/overload matrix covering "
        "the remainder.")

    def check(self, program: ProgramIndex) -> List[Finding]:
        """Run both facets over the parsed program."""
        contract = (self.contract if isinstance(self.contract, Contract)
                    else default_contract())
        graph = CallGraph(program)
        hierarchy = _Hierarchy(graph.classes)
        findings = self._handler_facet(program, contract)
        findings.extend(self._escape_facet(program, contract, graph,
                                           hierarchy))
        return findings

    # -- handler facet -------------------------------------------------------

    def _handler_facet(self, program: ProgramIndex,
                       contract: Contract) -> List[Finding]:
        out: List[Finding] = []
        for module_path in sorted(program.modules):
            mod = program.modules[module_path]
            lines = mod.source.splitlines()
            for handler, chain in _walk_handlers(mod.tree):
                caught = _handler_types(handler)
                if caught is not None and not set(caught) & _BROAD:
                    continue
                if any(contract.is_boundary(module_path, name)
                       for name in chain):
                    continue
                if _contains_raise(handler.body):
                    continue
                label = ("bare `except:`" if caught is None else
                         f"`except {'/'.join(sorted(set(caught) & _BROAD))}`")
                line = handler.lineno
                snippet = (lines[line - 1].strip()
                           if 1 <= line <= len(lines) else "")
                out.append(Finding(
                    code=self.code,
                    message=(f"{label} swallows the exception and discards "
                             "its cause; narrow the type, re-raise "
                             "(`raise` / `raise ... from exc`), or add a "
                             "justified `# desks: noqa-DAL011`"),
                    path=mod.path, line=line, col=handler.col_offset,
                    snippet=snippet))
        return out

    # -- escape facet --------------------------------------------------------

    def _escape_facet(self, program: ProgramIndex, contract: Contract,
                      graph: CallGraph,
                      hierarchy: _Hierarchy) -> List[Finding]:
        boundaries = [b for b in contract.boundaries
                      if b.module in program.modules]
        if not boundaries:
            return []
        estimates = self._fixpoint(program, graph, hierarchy)
        out: List[Finding] = []
        for boundary in boundaries:
            qualname = CallGraph.qualname(boundary.module,
                                          boundary.function)
            info = graph.functions.get(qualname)
            if info is None:
                continue
            mod = program.modules[boundary.module]
            lines = mod.source.splitlines()
            for name in sorted(estimates.get(qualname, {})):
                if any(hierarchy.is_subtype(name, allowed)
                       for allowed in boundary.allowed):
                    continue
                origin_path, origin_line = estimates[qualname][name]
                line = getattr(info.node, "lineno", 1)
                snippet = (lines[line - 1].strip()
                           if 1 <= line <= len(lines) else "")
                out.append(Finding(
                    code=self.code,
                    message=(f"`{boundary.function}` can let `{name}` "
                             "escape to the wire (raised at "
                             f"{origin_path}:{origin_line}); convert it "
                             "to a typed protocol error (OVERLOAD / "
                             "BAD_REQUEST / INTERNAL / SHUTTING_DOWN) or "
                             "extend the boundary's allow-list in "
                             "ARCHITECTURE.toml"),
                    path=mod.path, line=line,
                    col=getattr(info.node, "col_offset", 0),
                    snippet=snippet))
        return out

    def _fixpoint(self, program: ProgramIndex, graph: CallGraph,
                  hierarchy: _Hierarchy) -> Dict[str, _Escapes]:
        estimates: Dict[str, _Escapes] = {
            qualname: {} for qualname in graph.functions}
        # Key sets grow monotonically, so this terminates; the bound is
        # a backstop against resolution bugs, not a tuning knob.
        for _ in range(100):
            changed = False
            for qualname in sorted(graph.functions):
                info = graph.functions[qualname]
                fs_path = program.modules[info.module_path].path
                analysis = _EscapeAnalysis(graph, hierarchy, estimates,
                                           qualname, fs_path)
                new = analysis.run(info.node)
                if set(new) != set(estimates[qualname]):
                    changed = True
                estimates[qualname] = new
            if not changed:
                break
        return estimates


__all__ = ["ExceptionFlowRule"]

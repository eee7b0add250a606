"""Whole-program import/call graphs over a parsed module set.

This is the substrate for the v2 interprocedural passes: a
:class:`ProgramIndex` parses every module under a target once and keys
it by *module path* (``repro/net/server.py``); :class:`ImportGraph`
resolves every import statement (absolute, relative, deferred
function-local) to an edge between modules with deterministic ordering
and JSON + DOT export (``repro lint --graph``); :class:`CallGraph`
resolves the calls the exception-flow pass (DAL011) walks.

Everything here is stdlib-only and deterministic: modules, edges, and
functions are sorted, so two runs over the same tree serialise
byte-identically (the golden-graph test in
``tests/analysis/test_graph.py`` asserts exactly that).

Resolution is deliberately *under-approximate*: a call or import that
cannot be resolved from the parsed tree contributes nothing, it is
never guessed.  The passes built on top (DAL010/DAL011) are therefore
sound over what they see and silent over what they cannot see — the
honest trade for an analysis with no imports executed.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import LintEngine, _module_path


def unit_of(module_path: str) -> str:
    """The architecture unit a module belongs to.

    ``repro/net/server.py`` -> ``net``; top-level modules are their own
    unit (``repro/cli.py`` -> ``cli``, ``repro/__init__.py`` ->
    ``__init__``).  Modules outside the ``repro`` package have no unit
    (empty string) and are ignored by the layer contract.
    """
    if not module_path.startswith("repro/"):
        return ""
    head = module_path[len("repro/"):].split("/")[0]
    return head[:-3] if head.endswith(".py") else head


@dataclass(frozen=True)
class SourceModule:
    """One parsed module: location, package-relative path, AST."""

    path: str
    module_path: str
    unit: str
    source: str
    tree: ast.Module = field(repr=False)


class ProgramIndex:
    """Every parsed module of one lint run, keyed by module path."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules: Dict[str, SourceModule] = {
            m.module_path: m
            for m in sorted(modules, key=lambda m: m.module_path)}

    @classmethod
    def from_sources(cls, items: Iterable[Tuple[str, str, ast.Module]],
                     ) -> "ProgramIndex":
        """Build from already-parsed ``(path, source, tree)`` triples."""
        modules = []
        for path, source, tree in items:
            module_path = _module_path(path)
            modules.append(SourceModule(
                path=path, module_path=module_path,
                unit=unit_of(module_path), source=source, tree=tree))
        return cls(modules)

    @classmethod
    def from_paths(cls, targets: Sequence[str]) -> "ProgramIndex":
        """Discover, read, and parse every python file under ``targets``.

        Files that fail to read or parse are skipped (the lint engine
        reports those separately); the index only ever holds valid ASTs.
        """
        items: List[Tuple[str, str, ast.Module]] = []
        for target in targets:
            for path in LintEngine.discover(target):
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        source = handle.read()
                    tree = ast.parse(source, filename=path)
                except (SyntaxError, OSError):
                    continue
                items.append((path, source, tree))
        return cls.from_sources(items)

    def resolve(self, parts: Sequence[str]) -> Optional[str]:
        """Module path for dotted ``parts``, or ``None`` if not indexed.

        Tries the plain module first (``repro/net/server.py``), then the
        package ``__init__`` (``repro/net/__init__.py``).
        """
        if not parts:
            return None
        base = "/".join(parts)
        for candidate in (base + ".py", base + "/__init__.py"):
            if candidate in self.modules:
                return candidate
        return None

    def units(self) -> List[str]:
        """Sorted distinct units with at least one module."""
        return sorted({m.unit for m in self.modules.values() if m.unit})


@dataclass(frozen=True)
class ImportRef:
    """One import target in one statement, location included.

    ``module`` is the absolute dotted path as parts (relative levels
    already applied); ``names`` carries the imported names of a
    ``from ... import a, b`` (empty for a plain ``import``);
    ``deferred`` marks function-local imports, which the layer contract
    may allow where a module-level import is banned.
    """

    line: int
    col: int
    module: Tuple[str, ...]
    names: Tuple[str, ...]
    deferred: bool


def _absolute(module_path: str, level: int,
              module: Optional[str]) -> Tuple[str, ...]:
    """Resolve a relative import against the importing module's package."""
    package = module_path.split("/")[:-1]
    if level > 1:
        package = package[:len(package) - (level - 1)]
    return tuple(package + (module.split(".") if module else []))


def iter_imports(tree: ast.Module,
                 module_path: str) -> Iterator[ImportRef]:
    """Every import in ``tree`` as absolute :class:`ImportRef` records."""
    stack: List[Tuple[ast.AST, bool]] = [(tree, False)]
    while stack:
        node, deferred = stack.pop()
        for child in reversed(list(ast.iter_child_nodes(node))):
            inner = deferred or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield ImportRef(
                        line=child.lineno, col=child.col_offset,
                        module=tuple(alias.name.split(".")),
                        names=(), deferred=deferred)
            elif isinstance(child, ast.ImportFrom):
                if child.level:
                    module = _absolute(module_path, child.level,
                                       child.module)
                else:
                    module = tuple((child.module or "").split("."))
                yield ImportRef(
                    line=child.lineno, col=child.col_offset,
                    module=module,
                    names=tuple(alias.name for alias in child.names),
                    deferred=deferred)
            else:
                stack.append((child, inner))


@dataclass(frozen=True)
class ImportEdge:
    """``src`` imports ``dst`` at ``line``.

    ``dst`` is a module path for internal edges and a bare root module
    name (``socket``) for external ones.
    """

    src: str
    dst: str
    line: int
    deferred: bool
    external: bool

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (stable key order via sort_keys at dump)."""
        return {"src": self.src, "dst": self.dst, "line": self.line,
                "deferred": self.deferred, "external": self.external}


class ImportGraph:
    """Module- and unit-level import structure with deterministic export."""

    def __init__(self, program: ProgramIndex,
                 edges: Sequence[ImportEdge]) -> None:
        self.program = program
        self.edges: List[ImportEdge] = sorted(
            edges, key=lambda e: (e.src, e.dst, e.line, e.deferred))

    @classmethod
    def build(cls, program: ProgramIndex) -> "ImportGraph":
        """Resolve every import of every indexed module to edges."""
        edges: List[ImportEdge] = []
        seen: Set[Tuple[str, str, int, bool]] = set()
        for module_path in sorted(program.modules):
            mod = program.modules[module_path]
            for ref in iter_imports(mod.tree, module_path):
                for dst, external in cls._targets(program, ref):
                    key = (module_path, dst, ref.line, ref.deferred)
                    if key in seen:
                        continue
                    seen.add(key)
                    edges.append(ImportEdge(
                        src=module_path, dst=dst, line=ref.line,
                        deferred=ref.deferred, external=external))
        return cls(program, edges)

    @staticmethod
    def _targets(program: ProgramIndex,
                 ref: ImportRef) -> List[Tuple[str, bool]]:
        """``(dst, external)`` pairs one :class:`ImportRef` contributes."""
        base = program.resolve(ref.module)
        if not ref.names:
            if base is not None:
                return [(base, False)]
            root = ref.module[0] if ref.module else ""
            return [(root, True)] if root else []
        out: List[Tuple[str, bool]] = []
        for name in ref.names:
            # `from pkg import name` may pull a submodule: prefer the
            # resolved submodule, then the package itself, and only then
            # fall back to an external root.
            sub = program.resolve(tuple(ref.module) + (name,))
            if sub is not None:
                out.append((sub, False))
            elif base is not None:
                out.append((base, False))
            elif ref.module:
                out.append((ref.module[0], True))
        return out

    # -- unit-level rollup ---------------------------------------------------

    def unit_table(self) -> List[Dict[str, object]]:
        """Per-unit dependency summary: module-level, deferred-only,
        and external imports, all sorted."""
        direct: Dict[str, Set[str]] = {}
        deferred: Dict[str, Set[str]] = {}
        external: Dict[str, Set[str]] = {}
        for unit in self.program.units():
            direct[unit] = set()
            deferred[unit] = set()
            external[unit] = set()
        for edge in self.edges:
            src_unit = unit_of(edge.src)
            if not src_unit:
                continue
            if edge.external:
                external[src_unit].add(edge.dst)
                continue
            dst_unit = unit_of(edge.dst)
            if not dst_unit or dst_unit == src_unit:
                continue
            (deferred if edge.deferred else direct)[src_unit].add(dst_unit)
        return [{"name": unit,
                 "imports": sorted(direct[unit]),
                 "deferred": sorted(deferred[unit] - direct[unit]),
                 "external": sorted(external[unit])}
                for unit in self.program.units()]

    # -- export --------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready document: modules, edges, unit rollup."""
        return {
            "schema": 1,
            "modules": [{"module": mp,
                         "unit": self.program.modules[mp].unit}
                        for mp in sorted(self.program.modules)],
            "edges": [e.to_dict() for e in self.edges],
            "units": self.unit_table(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The graph as a JSON document (sorted keys: byte-stable)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_dot(self) -> str:
        """Unit-level digraph in DOT; deferred-only edges are dashed."""
        lines = ["digraph repro {", "  rankdir=LR;"]
        table = self.unit_table()
        for entry in table:
            lines.append(f'  "{entry["name"]}";')
        for entry in table:
            name = entry["name"]
            imports = entry["imports"]
            deferred = entry["deferred"]
            assert isinstance(imports, list) and isinstance(deferred, list)
            for dst in imports:
                lines.append(f'  "{name}" -> "{dst}";')
            for dst in deferred:
                lines.append(f'  "{name}" -> "{dst}" [style=dashed];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def write(self, base: str) -> Tuple[str, str]:
        """Write ``base.json`` and ``base.dot``; returns both paths."""
        json_path, dot_path = base + ".json", base + ".dot"
        for path, text in ((json_path, self.to_json() + "\n"),
                           (dot_path, self.to_dot())):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return json_path, dot_path


# -- call graph ----------------------------------------------------------------


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module_path: str
    name: str
    class_name: Optional[str]
    node: ast.AST = field(repr=False)


@dataclass(frozen=True)
class ClassInfo:
    """One class definition: bases by simple name, methods by name."""

    module_path: str
    name: str
    bases: Tuple[str, ...]
    methods: Dict[str, str] = field(repr=False)


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _terminal(node.func)
    return None


class CallGraph:
    """Project-wide resolved calls, for interprocedural propagation.

    Resolution covers the forms that matter in this codebase: direct
    calls to module-level functions, ``self.method()`` within a class
    (bases included when resolvable by simple name, and every override
    in a subclass — ``self`` may be any of them, which is how a template
    method's hooks are followed), calls through ``from . import module``
    / ``import pkg.mod`` module objects, and classmethod/constructor
    calls on imported classes.  Anything else is left unresolved and
    contributes no edge.
    """

    def __init__(self, program: ProgramIndex) -> None:
        self.program = program
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: class name -> names of the classes that list it as a base.
        self._subclasses: Dict[str, List[str]] = {}
        #: module_path -> local name -> ("module", path) | ("symbol",
        #: path, name) import bindings.
        self._env: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        self.calls: Dict[str, Tuple[str, ...]] = {}
        self._build()

    @staticmethod
    def qualname(module_path: str, name: str) -> str:
        """``repro/net/server.py::ShardServer._dispatch``."""
        return f"{module_path}::{name}"

    def _build(self) -> None:
        for module_path in sorted(self.program.modules):
            self._index_module(self.program.modules[module_path])
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            self.calls[qualname] = tuple(sorted(self._resolve_calls(info)))

    def _index_module(self, mod: SourceModule) -> None:
        env: Dict[str, Tuple[str, ...]] = {}
        for ref in iter_imports(mod.tree, mod.module_path):
            base = self.program.resolve(ref.module)
            if not ref.names:
                if base is not None:
                    # `import a.b` binds `a` but in-project code always
                    # uses the terminal name or an alias; bind both ends.
                    env[ref.module[-1]] = ("module", base)
                continue
            for name in ref.names:
                sub = self.program.resolve(tuple(ref.module) + (name,))
                if sub is not None:
                    env[name] = ("module", sub)
                elif base is not None:
                    env[name] = ("symbol", base, name)
        self._env[mod.module_path] = env
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod.module_path, stmt.name, None, stmt)
            elif isinstance(stmt, ast.ClassDef):
                methods: Dict[str, str] = {}
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        name = f"{stmt.name}.{item.name}"
                        self._add_function(mod.module_path, name,
                                           stmt.name, item)
                        methods[item.name] = self.qualname(
                            mod.module_path, name)
                bases = tuple(b for b in (_terminal(base)
                                          for base in stmt.bases)
                              if b is not None)
                if stmt.name not in self.classes:
                    self.classes[stmt.name] = ClassInfo(
                        mod.module_path, stmt.name, bases, methods)
                    for base in bases:
                        self._subclasses.setdefault(base, []).append(
                            stmt.name)

    def _add_function(self, module_path: str, name: str,
                      class_name: Optional[str], node: ast.AST) -> None:
        qualname = self.qualname(module_path, name)
        self.functions[qualname] = FunctionInfo(
            qualname=qualname, module_path=module_path, name=name,
            class_name=class_name, node=node)

    # -- resolution ----------------------------------------------------------

    def resolve(self, qualname: str, call: ast.Call) -> Tuple[str, ...]:
        """Callee qualnames for one call site inside ``qualname``.

        Empty when unresolved; more than one only for ``self.method()``
        on a class whose subclasses override ``method``.
        """
        info = self.functions.get(qualname)
        if info is None:
            return ()
        return self._resolve_call(info, call)

    def _module_symbol(self, module_path: str,
                       name: str) -> Optional[str]:
        """Function/class-constructor qualname for ``name`` defined (or
        re-exported nowhere — no star-import chasing) in a module."""
        direct = self.qualname(module_path, name)
        if direct in self.functions:
            return direct
        init = self.qualname(module_path, f"{name}.__init__")
        if init in self.functions:
            return init
        binding = self._env.get(module_path, {}).get(name)
        if binding and binding[0] == "symbol":
            return self._module_symbol(binding[1], binding[2])
        if binding and binding[0] == "module":
            return None
        return None

    def _method_on(self, class_name: str, method: str,
                   seen: Optional[Set[str]] = None) -> Optional[str]:
        if seen is None:
            seen = set()
        if class_name in seen:
            return None
        seen.add(class_name)
        info = self.classes.get(class_name)
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method]
        for base in info.bases:
            found = self._method_on(base, method, seen)
            if found is not None:
                return found
        return None

    def _overrides(self, class_name: str, method: str) -> List[str]:
        """``method`` as redefined by (transitive) subclasses."""
        found: List[str] = []
        seen: Set[str] = set()
        stack = [class_name]
        while stack:
            for sub in self._subclasses.get(stack.pop(), ()):
                if sub not in seen:
                    seen.add(sub)
                    stack.append(sub)
                    if method in self.classes[sub].methods:
                        found.append(self.classes[sub].methods[method])
        return found

    def _resolve_call(self, info: FunctionInfo,
                      call: ast.Call) -> Tuple[str, ...]:
        func = call.func
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id == "self" and info.class_name is not None:
            bound = self._method_on(info.class_name, func.attr)
            targets = self._overrides(info.class_name, func.attr)
            if bound is not None:
                targets.append(bound)
            return tuple(sorted(targets))
        target = self._resolve_static(info, call)
        return () if target is None else (target,)

    def _resolve_static(self, info: FunctionInfo,
                        call: ast.Call) -> Optional[str]:
        env = self._env.get(info.module_path, {})
        func = call.func
        if isinstance(func, ast.Name):
            return self._module_symbol(info.module_path, func.id)
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name):
            owner = func.value.id
            binding = env.get(owner)
            if binding and binding[0] == "module":
                return self._module_symbol(binding[1], func.attr)
            if binding and binding[0] == "symbol":
                # Classmethod/static call on an imported class.
                target = self._module_symbol(binding[1], binding[2])
                if target is not None and target.endswith(".__init__"):
                    cls = target.rsplit("::", 1)[1].split(".")[0]
                    return self._method_on(cls, func.attr)
            # Class defined in this module: Target.method(...).
            if owner in self.classes and \
                    self.classes[owner].module_path == info.module_path:
                return self._method_on(owner, func.attr)
        return None

    def _resolve_calls(self, info: FunctionInfo) -> List[str]:
        out: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                out.update(self._resolve_call(info, node))
        out.discard(info.qualname)
        return sorted(out)


def build_graph(targets: Sequence[str]) -> ImportGraph:
    """Convenience: discover + parse ``targets``, build the import graph."""
    return ImportGraph.build(ProgramIndex.from_paths(targets))


__all__ = [
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "ImportEdge",
    "ImportGraph",
    "ImportRef",
    "ProgramIndex",
    "SourceModule",
    "build_graph",
    "iter_imports",
    "unit_of",
]

"""The architecture contract and its enforcement rule (DAL010).

The checked-in :class:`Contract` (a literal below, returned by
:func:`default_contract`) declares the layer DAG — which units may
import which, at module level or deferred inside a function — plus two
confinement tables: external transport modules pinned to ``repro.net``
and project modules restricted to an allow-list of files
(``repro.net.chaos``, ``repro.durability.chaos``).  :class:`ContractRule`
flags every import the contract does not permit, as DAL010.
``docs/ARCHITECTURE.md`` renders the same DAG for humans.

The contract is Python data checked when this module is imported; tests
hand a different :class:`Contract` to ``LintEngine(contract=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import Finding, RuleVisitor
from .graph import ImportRef, iter_imports, unit_of


@dataclass(frozen=True)
class Layer:
    """One architecture unit and the units it may import.

    ``deps`` may be imported at module level; ``deferred`` only inside a
    function body (lazy imports that break a cycle or keep startup
    light).  A top-level module (``cli``, ``__init__``) is its own unit.
    """

    name: str
    deps: Tuple[str, ...]
    deferred: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ExternalRule:
    """Stdlib/third-party modules confined to specific units."""

    modules: Tuple[str, ...]
    allowed_in: Tuple[str, ...]


@dataclass(frozen=True)
class RestrictedRule:
    """A project module importable only from an allow-list of files."""

    module: str
    allowed_in: Tuple[str, ...]


class Contract:
    """The architecture contract: layers and confinements."""

    def __init__(self, layers: Sequence[Layer],
                 externals: Sequence[ExternalRule] = (),
                 restricted: Sequence[RestrictedRule] = ()) -> None:
        self.layers: Dict[str, Layer] = {}
        for layer in layers:
            if layer.name in self.layers:
                raise ValueError(f"contract: duplicate layer `{layer.name}`")
            self.layers[layer.name] = layer
        self.externals: Tuple[ExternalRule, ...] = tuple(externals)
        self.restricted: Tuple[RestrictedRule, ...] = tuple(restricted)
        self._validate()

    def _validate(self) -> None:
        for layer in self.layers.values():
            for dep in layer.deps + layer.deferred:
                if dep not in self.layers:
                    raise ValueError(
                        f"contract: layer `{layer.name}` depends on "
                        f"undeclared layer `{dep}`")
        for ext in self.externals:
            for unit in ext.allowed_in:
                if unit not in self.layers:
                    raise ValueError(
                        f"contract: external allow-list names undeclared "
                        f"layer `{unit}`")

    def layer(self, name: str) -> Optional[Layer]:
        """The layer entry for ``name``, or ``None`` if undeclared."""
        return self.layers.get(name)


#: The checked-in contract.  It matches the real import graph exactly:
#: ``repro lint src`` is clean.
_CONTRACT = Contract(
    layers=[
        Layer("analysis", ()),
        Layer("geometry", ()),
        Layer("text", ()),
        Layer("trace", (), deferred=("core", "storage")),
        Layer("storage", ("trace",)),
        Layer("rtree", ("geometry", "storage")),
        Layer("datasets", ("geometry", "text")),
        Layer("core", ("datasets", "geometry", "storage", "text", "trace")),
        Layer("baselines", ("core", "datasets", "geometry", "rtree",
                            "storage", "text")),
        Layer("bench", ("core", "datasets", "geometry")),
        Layer("kernel", ("core", "geometry", "storage", "trace")),
        # The language binds to caller-supplied backends; it never
        # imports the serving stack that speaks it.
        Layer("lang", ("core", "geometry", "text", "trace")),
        Layer("durability", ("core", "datasets", "storage", "trace"),
              deferred=("service",)),
        Layer("service", ("core", "kernel", "storage", "trace")),
        Layer("cluster", ("core", "datasets", "geometry", "service",
                          "storage", "trace")),
        Layer("net", ("cluster", "core", "datasets", "lang", "service",
                      "storage"), deferred=("durability",)),
        Layer("cli", ("core", "datasets", "storage"),
              deferred=("analysis", "durability", "lang", "net", "service",
                        "trace")),
        Layer("__init__", ("cluster", "core", "datasets", "geometry",
                           "service", "trace")),
        Layer("__main__", ("cli",)),
    ],
    # Raw transports only inside repro.net: framing, deadlines and
    # overload shedding live there and nowhere else.
    externals=[ExternalRule(("socket", "asyncio", "socketserver",
                             "selectors", "ssl"), allowed_in=("net",))],
    # Fault injection (the proxy and faulty endpoint, the crash
    # failpoints and page corrupter) is driven from tests and benchmarks
    # only.
    restricted=[RestrictedRule("repro.net.chaos",
                               allowed_in=("repro/net/chaos.py",)),
                RestrictedRule("repro.durability.chaos",
                               allowed_in=("repro/durability/chaos.py",))],
)


def default_contract() -> Contract:
    """The checked-in contract (one shared object)."""
    return _CONTRACT


class ContractRule(RuleVisitor):
    """DAL010: an import the architecture contract does not allow."""

    code = "DAL010"
    summary = ("import contradicts the declared architecture contract "
               "(repro/analysis/contract.py)")
    rationale = (
        "The layer DAG is what keeps the reproduction testable: geometry "
        "and text are pure vocabulary, core depends only on them, the "
        "service/cluster/net stack layers strictly above, and the "
        "language layer binds to caller-supplied backends.  The contract "
        "declares the whole DAG once — plus the raw transports confined "
        "to repro.net and the two chaos modules confined to themselves — "
        "and this rule enforces every edge, so a new package is governed "
        "the moment it appears in the contract rather than when someone "
        "writes a rule for it.")

    def run(self) -> List[Finding]:
        """Check every import of the module against the contract."""
        contract = (self.contract if isinstance(self.contract, Contract)
                    else default_contract())
        for ref in iter_imports(self.ctx.tree, self.ctx.module_path):
            self._check_external(contract, ref)
            self._check_restricted(contract, ref)
            self._check_layering(contract, ref)
        return self.findings

    def _emit_ref(self, ref: ImportRef, message: str) -> None:
        self.findings.append(Finding(
            code=self.code, message=message, path=self.ctx.path,
            line=ref.line, col=ref.col,
            snippet=self.ctx.line_text(ref.line).strip()))

    def _check_external(self, contract: Contract, ref: ImportRef) -> None:
        root = ref.module[0] if ref.module else ""
        if not root:
            return
        unit = unit_of(self.ctx.module_path)
        for ext in contract.externals:
            if root in ext.modules and unit not in ext.allowed_in:
                self._emit_ref(
                    ref, f"`{root}` is confined by the architecture "
                         f"contract to: {', '.join(ext.allowed_in)}")

    def _check_restricted(self, contract: Contract,
                          ref: ImportRef) -> None:
        for res in contract.restricted:
            parts = tuple(res.module.split("."))
            hit = (ref.module[:len(parts)] == parts
                   or (ref.module == parts[:-1] and parts[-1] in ref.names))
            if hit and self.ctx.module_path not in res.allowed_in:
                self._emit_ref(
                    ref, f"`{res.module}` is confined by the architecture "
                         f"contract to: {', '.join(res.allowed_in)}")

    def _check_layering(self, contract: Contract, ref: ImportRef) -> None:
        src_unit = unit_of(self.ctx.module_path)
        if not src_unit or not ref.module or ref.module[0] != "repro":
            return
        if len(ref.module) >= 2:
            targets = [ref.module[1]]
        else:
            # `import repro`, `from repro import X`, `from .. import X`:
            # a name that is a unit imports that unit, anything else
            # comes from the package root, i.e. `repro/__init__.py`.
            targets = list(dict.fromkeys(
                name if name in contract.layers else "__init__"
                for name in ref.names or ("__init__",)))
        layer = contract.layer(src_unit)
        for target in targets:
            if target == src_unit:
                continue
            if layer is None:
                self._emit_ref(
                    ref, f"layer `{src_unit}` is not declared in the "
                         "architecture contract; add a Layer entry with "
                         "its dependencies to repro/analysis/contract.py")
                continue
            allowed: Set[str] = set(layer.deps)
            if ref.deferred:
                allowed |= set(layer.deferred)
            if target in allowed:
                continue
            kind = ("function-local import" if ref.deferred
                    else "module-level import")
            allowed_text = ", ".join(sorted(allowed)) or "nothing"
            module = "repro" if target == "__init__" else f"repro.{target}"
            self._emit_ref(
                ref, f"layer `{src_unit}` may not import `{module}` "
                     f"({kind}); the contract allows: {allowed_text}")


__all__ = [
    "Contract",
    "ContractRule",
    "ExternalRule",
    "Layer",
    "RestrictedRule",
    "default_contract",
]

"""The architecture contract (DAL010): the checked-in literal, the rule
on a synthetic contract, and the v1 fixtures every violation of which is
now reported as DAL010."""

import ast
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import Contract, ContractRule, LintEngine, default_contract
from repro.analysis.contract import ExternalRule, Layer

CORE = "src/repro/core/example.py"
LANG = "src/repro/lang/example.py"
SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def lint(source, path=CORE, rules=(ContractRule,), contract=None):
    engine = LintEngine(list(rules), contract=contract)
    return engine.check_source(textwrap.dedent(source), path)


def facts(findings, code=None):
    """Comparable (code, line, message) facts, optionally one code only."""
    return [(f.code, f.line, f.message) for f in findings
            if not f.suppressed and (code is None or f.code == code)]


# -- the checked-in contract --------------------------------------------------


class TestParsing:
    def test_fallback_parser_matches_tomllib_on_the_real_contract(self):
        # The contract is Python data now; what the parser round trip
        # guarded is that it names every unit the tree has.
        units = {p.stem if p.suffix == ".py" else p.name
                 for p in SRC.iterdir()
                 if p.suffix == ".py" or (p / "__init__.py").exists()}
        assert units == set(default_contract().layers)

    def test_round_trip_toml_to_contract(self):
        contract = default_contract()
        lang = contract.layer("lang")
        assert lang is not None
        assert lang.deps == ("core", "geometry", "text", "trace")
        trace = contract.layer("trace")
        assert trace.deps == () and trace.deferred == ("core", "storage")

    def test_default_contract_is_cached(self):
        assert default_contract() is default_contract()

    def test_boundaries_cover_the_rpc_entry_points(self):
        """The contract declares no RPC boundaries: DAL011 covers both
        entry points itself — the dispatcher's broad handler is an
        audited waiver, the DQL executor's re-raises."""
        assert not hasattr(default_contract(), "boundaries")
        report = LintEngine().check([str(SRC / "net" / "server.py"),
                                     str(SRC / "lang" / "executor.py")])
        assert report.clean, report.render()
        assert [(f.path.endswith("net/server.py"), f.code)
                for f in report.suppressed] == [(True, "DAL011")]

    def test_duplicate_layer_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Contract([Layer("a", ()), Layer("a", ())])

    def test_undeclared_dep_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            Contract([Layer("a", ("ghost",))])

    def test_unknown_schema_rejected(self):
        # There is no document format left to version.
        with pytest.raises(TypeError, match="schema"):
            Contract([], schema=2)


class TestRuntimeIsolation:
    RUNTIME = ("storage", "core", "service", "cluster", "net", "durability")

    def test_no_runtime_layer_may_import_the_linter(self):
        contract = default_contract()
        for name in self.RUNTIME:
            layer = contract.layer(name)
            assert "analysis" not in layer.deps + layer.deferred, name
        assert "analysis" in contract.layer("cli").deferred

    def test_importing_the_runtime_loads_no_analysis_module(self):
        code = ("import sys\n"
                + "".join(f"import repro.{name}\n" for name in self.RUNTIME)
                + "print(sorted(m for m in sys.modules "
                  "if m.startswith('repro.analysis')))\n")
        out = subprocess.run([sys.executable, "-c", code],
                             env={"PYTHONPATH": str(SRC.parent)},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    FAULT_NAMES = {"FaultPlan", "FaultLog", "FaultyEndpoint", "ChaosProxy",
                   "InjectedFault", "CorruptionInjector", "CountdownFailpoint",
                   "SimulatedCrash", "measure_wal_overhead"}

    def test_no_package_module_defines_fault_code(self):
        # Fault injection lives in benchmarks/chaos_*.py: no module of the
        # package defines, imports or lists in __all__ any of its names.
        hits = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    names = [node.name]
                elif isinstance(node, ast.alias):
                    names = [node.asname or node.name.rsplit(".", 1)[-1]]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Constant):
                    names = [node.value]
                else:
                    continue
                hits += [f"{path.relative_to(SRC)}: {name}"
                         for name in names if name in self.FAULT_NAMES]
        assert hits == []


# -- the generic rule on a synthetic bad tree ---------------------------------


BAD_TREE_CONTRACT = Contract(
    [Layer("core", ("storage",)),
     Layer("storage", ()),
     Layer("net", ("core",)),
     Layer("trace", (), deferred=("storage",))],
    externals=[ExternalRule(("socket",), allowed_in=("net",))])


class TestGenericRule:
    def test_layer_violation_fires(self):
        found = lint("from repro.net import server\n",
                     contract=BAD_TREE_CONTRACT)
        assert facts(found) == [(
            "DAL010", 1,
            "layer `core` may not import `repro.net` (module-level "
            "import); the contract allows: storage")]

    def test_allowed_dep_is_silent(self):
        assert lint("from repro.storage import pages\n",
                    contract=BAD_TREE_CONTRACT) == []

    def test_deferred_dep_must_be_deferred(self):
        source = "from repro.storage import pages\n"
        assert facts(lint(source, path="src/repro/trace/example.py",
                          contract=BAD_TREE_CONTRACT)) != []
        deferred = ("def lazy():\n"
                    "    from repro.storage import pages\n"
                    "    return pages\n")
        assert lint(deferred, path="src/repro/trace/example.py",
                    contract=BAD_TREE_CONTRACT) == []

    def test_external_confinement_fires_generic_code(self):
        found = lint("import socket\n", contract=BAD_TREE_CONTRACT)
        assert [f.code for f in found] == ["DAL010"]
        assert "socket" in found[0].message

    def test_undeclared_layer_is_reported(self):
        found = lint("from repro.core import query\n",
                     path="src/repro/mystery/example.py",
                     contract=BAD_TREE_CONTRACT)
        assert [f.code for f in found] == ["DAL010"]
        assert "not declared in the architecture contract" in \
            found[0].message

    def test_package_root_imports_are_layered(self):
        # `repro/__init__.py` imports cluster and service, so a root
        # import from core or geometry is a cycle: a name that is not a
        # unit resolves to the `__init__` unit.
        for source in ("from repro import DesksIndex\n",
                       "from .. import DesksIndex\n"):
            assert facts(lint(source)) == [(
                "DAL010", 1,
                "layer `core` may not import `repro` (module-level "
                "import); the contract allows: datasets, geometry, "
                "storage, text, trace")], source
        assert facts(lint("import repro\n",
                          path="src/repro/geometry/example.py")) == [(
            "DAL010", 1,
            "layer `geometry` may not import `repro` (module-level "
            "import); the contract allows: nothing")]
        assert lint("from repro import geometry\n") == []

    def test_noqa_suppresses(self):
        found = lint("from repro.net import server  # desks: noqa-DAL010\n",
                     contract=BAD_TREE_CONTRACT)
        assert [f.code for f in found if f.suppressed] == ["DAL010"]
        assert not [f for f in found if not f.suppressed]


# -- the v1 fixtures, now all DAL010 ------------------------------------------
#
# The v1 rules DAL007 (transports) and DAL008 (language purity) became
# contract entries whose violations kept the old codes as aliases; the
# aliases are gone too.  Each fixture below
# pins what DAL010 reports on it as (code, line, message) facts — the
# lines the v1 rule reported, plus the layering edge the same import
# breaks where there is one.


def transport(line, module):
    return ("DAL010", line,
            f"`{module}` is confined by the architecture contract to: net")


def purity(line, package):
    return ("DAL010", line,
            f"layer `lang` may not import `repro.{package}` (module-level "
            "import); the contract allows: core, geometry, text, trace")


TRANSPORT_FIXTURES = (
    ("import socket\n", CORE, [transport(1, "socket")]),
    ("import asyncio\n", CORE, [transport(1, "asyncio")]),
    ("from socket import create_connection\n", CORE,
     [transport(1, "socket")]),
    ("from socket.whatever import x\n", CORE, [transport(1, "socket")]),
    ("import socketserver\nimport selectors\nimport ssl\n", CORE,
     [transport(1, "socketserver"), transport(2, "selectors"),
      transport(3, "ssl")]),
    ("import socket as sk\n", CORE, [transport(1, "socket")]),
    ("def probe(a):\n    import socket\n    return socket.c(a)\n", CORE,
     [transport(2, "socket")]),
    ("import socket\nimport asyncio\n", "src/repro/net/example.py", []),
    ("import socket\n", "src/repro/net/sub/deep.py", []),
    ("import threading\nimport socketish_helper\n", CORE, []),
)

PURITY_FIXTURES = (
    ("from repro.service import QueryEngine\n", LANG,
     [purity(1, "service")]),
    ("import repro.cluster\n", LANG, [purity(1, "cluster")]),
    ("from repro import service\n", LANG, [purity(1, "service")]),
    ("from ..service import MetricsRegistry\n", LANG,
     [purity(1, "service")]),
    ("from repro.geometry import angles\n", LANG, []),
    ("from .parser import parse\n", LANG, []),
    ("import math\n", LANG, []),
)

def cases(fixtures):
    """Parametrize over (source, path) only, so test ids stay stable."""
    return [fixture[:2] for fixture in fixtures]


def expected_facts(fixtures, source, path):
    return next(expected for fixture_source, fixture_path, expected
                in fixtures
                if (fixture_source, fixture_path) == (source, path))


class TestAliasParity:
    """Every v1 fixture reports DAL010, on the v1 rule's lines."""

    @pytest.mark.parametrize("source,path", cases(TRANSPORT_FIXTURES))
    def test_dal007_matches_transport_rule(self, source, path):
        assert facts(lint(source, path)) == \
            expected_facts(TRANSPORT_FIXTURES, source, path)

    @pytest.mark.parametrize("source,path", cases(PURITY_FIXTURES))
    def test_dal008_matches_language_purity_rule(self, source, path):
        assert facts(lint(source, path)) == \
            expected_facts(PURITY_FIXTURES, source, path)

    def test_alias_codes_suppress_independently(self):
        # A retired alias code suppresses nothing; DAL010 does.
        assert facts(lint("import socket  # desks: noqa-DAL007\n")) == \
            [transport(1, "socket")]
        found = lint("import socket  # desks: noqa-DAL010\n")
        assert [f.code for f in found if f.suppressed] == ["DAL010"]
        assert not [f for f in found if not f.suppressed]

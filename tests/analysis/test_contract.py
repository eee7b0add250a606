"""The declarative architecture contract (DAL010) and its legacy aliases."""

import textwrap

import pytest

from repro.analysis import Contract, ContractRule, LintEngine, default_contract
from repro.analysis.contract import (
    DEFAULT_CONTRACT_PATH,
    _fallback_parse,
    parse_toml,
)

CORE = "src/repro/core/example.py"
LANG = "src/repro/lang/example.py"


def lint(source, path=CORE, rules=(ContractRule,), contract=None):
    engine = LintEngine(list(rules), contract=contract)
    return engine.check_source(textwrap.dedent(source), path)


def facts(findings, code=None):
    """Comparable (code, line, message) facts, optionally one code only."""
    return [(f.code, f.line, f.message) for f in findings
            if not f.suppressed and (code is None or f.code == code)]


# -- parsing ------------------------------------------------------------------


class TestParsing:
    def test_fallback_parser_matches_tomllib_on_the_real_contract(self):
        text = open(DEFAULT_CONTRACT_PATH, encoding="utf-8").read()
        assert _fallback_parse(text) == parse_toml(text)

    def test_round_trip_toml_to_contract(self):
        contract = Contract.from_toml(
            open(DEFAULT_CONTRACT_PATH, encoding="utf-8").read())
        lang = contract.layer("lang")
        assert lang is not None and lang.alias == "DAL008"
        assert set(lang.deps) == {"core", "geometry", "text", "trace"}
        trace = contract.layer("trace")
        assert set(trace.deferred) == {"core", "storage"}

    def test_default_contract_is_cached(self):
        assert default_contract() is default_contract()

    def test_boundaries_cover_the_rpc_entry_points(self):
        contract = default_contract()
        # One dispatcher, declared once: both concrete servers inherit it.
        assert contract.is_boundary("repro/net/server.py",
                                    "FrameServer._dispatch")
        assert [b.function for b in contract.boundaries
                if b.module.startswith("repro/net/")] == \
            ["FrameServer._dispatch"]
        boundary = contract.boundary("repro/lang/executor.py",
                                     "DqlExecutor.execute")
        assert boundary is not None and boundary.allowed == ("DqlError",)
        assert not contract.is_boundary("repro/net/server.py", "serve")

    def test_duplicate_layer_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Contract.from_toml(
                'schema = 1\n[[layer]]\nname = "a"\ndeps = []\n'
                '[[layer]]\nname = "a"\ndeps = []\n')

    def test_undeclared_dep_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            Contract.from_toml(
                'schema = 1\n[[layer]]\nname = "a"\ndeps = ["ghost"]\n')

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            Contract.from_toml('schema = 2\n')


# -- the generic rule on a synthetic bad tree ---------------------------------


BAD_TREE_CONTRACT = Contract.from_toml(textwrap.dedent("""
    schema = 1

    [[layer]]
    name = "core"
    deps = ["storage"]

    [[layer]]
    name = "storage"
    deps = []

    [[layer]]
    name = "net"
    deps = ["core"]

    [[layer]]
    name = "trace"
    deps = []
    deferred = ["storage"]

    [[external]]
    modules = ["socket"]
    allowed_in = ["net"]

    [[restricted]]
    module = "repro.net.chaos"
    allowed_in = ["repro/net/chaos.py"]
"""))


class TestGenericRule:
    def test_layer_violation_fires(self):
        found = lint("from repro.net import server\n",
                     contract=BAD_TREE_CONTRACT)
        assert facts(found) == [(
            "DAL010", 1,
            "layer `core` may not import `repro.net` (module-level "
            "import); ARCHITECTURE.toml allows: storage")]

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

    def test_restricted_module_fires_generic_code(self):
        found = lint("import repro.net.chaos\n",
                     path="src/repro/net/example.py",
                     contract=BAD_TREE_CONTRACT)
        assert [f.code for f in found] == ["DAL010"]

    def test_undeclared_layer_is_reported(self):
        found = lint("from repro.core import query\n",
                     path="src/repro/mystery/example.py",
                     contract=BAD_TREE_CONTRACT)
        assert [f.code for f in found] == ["DAL010"]
        assert "not declared in ARCHITECTURE.toml" in found[0].message

    def test_noqa_suppresses(self):
        found = lint("from repro.net import server  # desks: noqa-DAL010\n",
                     contract=BAD_TREE_CONTRACT)
        assert [f.code for f in found if f.suppressed] == ["DAL010"]
        assert not [f for f in found if not f.suppressed]


# -- alias parity with the legacy v1 rules ------------------------------------
#
# The hand-written DAL007/008/009 rule classes are gone; what they
# reported on each fixture (captured from the last commit that shipped
# them) is frozen beside it as (code, line, message) facts, so the
# contract aliases stay pinned to the legacy wording.


def dal007(line, module):
    return ("DAL007", line,
            f"`{module}` imported outside repro.net; use repro.net's "
            "clients/transports instead")


def dal008(line, package):
    return ("DAL008", line,
            f"repro.lang imports repro.{package}; the language layer may "
            "depend only on geometry/text/core/trace — pass backends in "
            "from the caller instead")


def dal009(line):
    return ("DAL009", line,
            "repro.net.chaos (the fault-injecting proxy) imported from "
            "production code; chaos tooling may only be driven from tests "
            "and benchmarks")


TRANSPORT_FIXTURES = (
    ("import socket\n", CORE, [dal007(1, "socket")]),
    ("import asyncio\n", CORE, [dal007(1, "asyncio")]),
    ("from socket import create_connection\n", CORE,
     [dal007(1, "socket")]),
    ("from socket.whatever import x\n", CORE, [dal007(1, "socket")]),
    ("import socketserver\nimport selectors\nimport ssl\n", CORE,
     [dal007(1, "socketserver"), dal007(2, "selectors"),
      dal007(3, "ssl")]),
    ("import socket as sk\n", CORE, [dal007(1, "socket")]),
    ("def probe(a):\n    import socket\n    return socket.c(a)\n", CORE,
     [dal007(2, "socket")]),
    ("import socket\nimport asyncio\n", "src/repro/net/example.py", []),
    ("import socket\n", "src/repro/net/sub/deep.py", []),
    ("import threading\nimport socketish_helper\n", CORE, []),
)

PURITY_FIXTURES = (
    ("from repro.service import QueryEngine\n", LANG,
     [dal008(1, "service")]),
    ("import repro.cluster\n", LANG, [dal008(1, "cluster")]),
    ("from repro import service\n", LANG, [dal008(1, "service")]),
    ("from ..service import MetricsRegistry\n", LANG,
     [dal008(1, "service")]),
    ("from repro.geometry import angles\n", LANG, []),
    ("from .parser import parse\n", LANG, []),
    ("import math\n", LANG, []),
)

CHAOS_FIXTURES = (
    ("import repro.net.chaos\n", CORE, [dal009(1)]),
    ("from repro.net.chaos import ChaosProxy\n", CORE, [dal009(1)]),
    ("from repro.net import chaos\n", CORE, [dal009(1)]),
    ("import repro.net.chaos\n", "src/repro/net/chaos.py", []),
    ("from repro.net import protocol\n", "src/repro/net/example.py", []),
)


def cases(fixtures):
    """Parametrize over (source, path) only, so test ids stay stable."""
    return [fixture[:2] for fixture in fixtures]


def legacy_facts(fixtures, source, path):
    return next(legacy for fixture_source, fixture_path, legacy in fixtures
                if (fixture_source, fixture_path) == (source, path))


class TestAliasParity:
    """ContractRule reports the v1 codes byte-identically to the v1 rules."""

    @pytest.mark.parametrize("source,path", cases(TRANSPORT_FIXTURES))
    def test_dal007_matches_transport_rule(self, source, path):
        assert facts(lint(source, path), code="DAL007") == \
            legacy_facts(TRANSPORT_FIXTURES, source, path)

    @pytest.mark.parametrize("source,path", cases(PURITY_FIXTURES))
    def test_dal008_matches_language_purity_rule(self, source, path):
        assert facts(lint(source, path), code="DAL008") == \
            legacy_facts(PURITY_FIXTURES, source, path)

    @pytest.mark.parametrize("source,path", cases(CHAOS_FIXTURES))
    def test_dal009_matches_chaos_containment_rule(self, source, path):
        assert facts(lint(source, path), code="DAL009") == \
            legacy_facts(CHAOS_FIXTURES, source, path)

    def test_alias_codes_suppress_independently(self):
        found = lint("import socket  # desks: noqa-DAL007\n")
        assert [f.code for f in found if f.suppressed] == ["DAL007"]
        assert not [f for f in found if not f.suppressed]

"""Per-rule fixtures: each DAL code fires on the seeded violation, stays
silent on the fixed form, and honours ``desks: noqa`` suppression."""

import json

import pytest

from repro.analysis import ALL_RULES, RULE_INDEX, LintEngine, rule_catalog
from repro.analysis.rules import (
    AngleArithmeticRule,
    BareAcquireRule,
    BufferBypassRule,
    FloatEqualityRule,
    NondeterminismRule,
    StrayFileWriteRule,
)

CORE = "src/repro/core/example.py"
GEOMETRY = "src/repro/geometry/example.py"
STORAGE = "src/repro/storage/example.py"


def lint(source, path=CORE, rules=None):
    engine = LintEngine(rules or ALL_RULES)
    return engine.check_source(source, path)


def active(findings):
    return [f for f in findings if not f.suppressed]


def codes(findings):
    return sorted({f.code for f in active(findings)})


# -- DAL001: angle arithmetic outside repro.geometry -------------------------


class TestAngleArithmetic:
    RULE = [AngleArithmeticRule]

    def test_raw_atan2_fires(self):
        found = lint("import math\nt = math.atan2(y, x)\n", rules=self.RULE)
        assert codes(found) == ["DAL001"]
        assert found[0].line == 2

    def test_modulo_two_pi_fires(self):
        for two_pi in ("TWO_PI", "math.tau", "6.283185307179586",
                       "2 * math.pi"):
            found = lint(f"g = (a - b) % ({two_pi})\n", rules=self.RULE)
            assert codes(found) == ["DAL001"], two_pi

    def test_fmod_two_pi_fires(self):
        found = lint("import math\nt = math.fmod(t, TWO_PI)\n",
                     rules=self.RULE)
        assert codes(found) == ["DAL001"]

    def test_silent_inside_geometry(self):
        found = lint("import math\nt = math.atan2(y, x) % TWO_PI\n",
                     path=GEOMETRY, rules=self.RULE)
        assert found == []

    def test_silent_on_sanctioned_helpers(self):
        found = lint("t = signed_angle_of(dx, dy)\n"
                     "u = normalize_angle(a - b)\n", rules=self.RULE)
        assert found == []

    def test_modulo_other_constant_ok(self):
        found = lint("g = a % 7\nh = a % math.pi\n", rules=self.RULE)
        assert found == []

    def test_noqa_suppresses(self):
        found = lint("t = math.atan2(y, x)  # desks: noqa-DAL001\n",
                     rules=self.RULE)
        assert active(found) == []
        assert [f.code for f in found if f.suppressed] == ["DAL001"]


# -- DAL002: float equality on angles/distances ------------------------------


class TestFloatEquality:
    RULE = [FloatEqualityRule]

    def test_angle_name_fires(self):
        assert codes(lint("if theta == other:\n    pass\n",
                          rules=self.RULE)) == ["DAL002"]

    def test_distance_attribute_fires(self):
        assert codes(lint("if a.distance != b.distance:\n    pass\n",
                          rules=self.RULE)) == ["DAL002"]

    def test_nonzero_float_literal_fires(self):
        assert codes(lint("if weight == 0.25:\n    pass\n",
                          rules=self.RULE)) == ["DAL002"]

    def test_zero_literal_sentinel_ok(self):
        # Exact-zero guards (e.g. the zero-vector check in angle_of) are a
        # sanctioned sentinel pattern.
        assert lint("if dx == 0.0 and dy == 0.0:\n    pass\n",
                    rules=self.RULE) == []

    def test_int_comparison_ok(self):
        assert lint("if count == 3:\n    pass\n", rules=self.RULE) == []

    def test_noqa_suppresses(self):
        found = lint("same = theta == 0.5  # desks: noqa-DAL002\n",
                     rules=self.RULE)
        assert active(found) == []


# -- DAL003: bare lock.acquire() ---------------------------------------------


class TestBareAcquire:
    RULE = [BareAcquireRule]

    def test_bare_acquire_fires(self):
        src = "lock.acquire()\ndo_work()\nlock.release()\n"
        assert codes(lint(src, rules=self.RULE)) == ["DAL003"]

    def test_try_finally_ok(self):
        src = ("lock.acquire()\n"
               "try:\n    do_work()\nfinally:\n    lock.release()\n")
        assert lint(src, rules=self.RULE) == []

    def test_with_statement_ok(self):
        assert lint("with lock:\n    do_work()\n", rules=self.RULE) == []

    def test_mismatched_finally_still_fires(self):
        src = ("a.acquire()\n"
               "try:\n    do_work()\nfinally:\n    b.release()\n")
        assert codes(lint(src, rules=self.RULE)) == ["DAL003"]

    def test_noqa_suppresses(self):
        found = lint("ok = lock.acquire(False)  # desks: noqa-DAL003\n",
                     rules=self.RULE)
        assert active(found) == []


# -- DAL004: stray file writes -----------------------------------------------


class TestStrayFileWrite:
    RULE = [StrayFileWriteRule]

    def test_binary_write_open_fires(self):
        assert codes(lint('f = open(p, "wb")\n',
                          rules=self.RULE)) == ["DAL004"]

    def test_fsync_fires(self):
        assert codes(lint("import os\nos.fsync(fd)\n",
                          rules=self.RULE)) == ["DAL004"]

    def test_rename_fires(self):
        assert codes(lint("import os\nos.replace(a, b)\n",
                          rules=self.RULE)) == ["DAL004"]

    def test_read_open_ok(self):
        assert lint('f = open(p, "rb")\ng = open(p)\n',
                    rules=self.RULE) == []

    def test_silent_inside_storage(self):
        assert lint('import os\nf = open(p, "wb")\nos.fsync(f.fileno())\n',
                    path=STORAGE, rules=self.RULE) == []

    def test_silent_inside_durability(self):
        assert lint('f = open(p, "ab")\n',
                    path="src/repro/durability/wal.py",
                    rules=self.RULE) == []


# -- DAL005: buffer-pool bypass ----------------------------------------------


class TestBufferBypass:
    RULE = [BufferBypassRule]

    def test_inner_read_fires(self):
        assert codes(lint("data = store.inner.read_page(3)\n",
                          rules=self.RULE)) == ["DAL005"]

    def test_inner_write_fires(self):
        assert codes(lint("store.inner.write_page(3, data)\n",
                          rules=self.RULE)) == ["DAL005"]

    def test_pool_read_ok(self):
        assert lint("data = pool.read_page(3)\n", rules=self.RULE) == []

    def test_silent_inside_storage(self):
        assert lint("data = self._store.read_page(3)\n",
                    path=STORAGE, rules=self.RULE) == []

    def test_noqa_suppresses(self):
        found = lint("d = store.inner.read_page(0)  # desks: noqa-DAL005\n",
                     rules=self.RULE)
        assert active(found) == []


# -- DAL006: nondeterminism in search/recovery paths -------------------------


class TestNondeterminism:
    RULE = [NondeterminismRule]

    def test_time_time_fires(self):
        assert codes(lint("import time\nt0 = time.time()\n",
                          rules=self.RULE)) == ["DAL006"]

    def test_unseeded_module_random_fires(self):
        assert codes(lint("import random\nx = random.random()\n",
                          rules=self.RULE)) == ["DAL006"]

    def test_unseeded_rng_constructor_fires(self):
        assert codes(lint("import random\nrng = random.Random()\n",
                          rules=self.RULE)) == ["DAL006"]

    def test_seeded_rng_ok(self):
        assert lint("import random\nrng = random.Random(7)\n",
                    rules=self.RULE) == []

    def test_outside_scoped_packages_ok(self):
        assert lint("import time\nt0 = time.time()\n",
                    path="src/repro/service/metrics.py",
                    rules=self.RULE) == []

    def test_kernel_package_is_scoped(self):
        # The columnar kernel's bit-exactness contract makes it a
        # deterministic path like core/geometry.
        assert codes(lint("import time\nt0 = time.time()\n",
                          path="src/repro/kernel/search.py",
                          rules=self.RULE)) == ["DAL006"]

    def test_monotonic_ok(self):
        # Durations may use the monotonic clock; only wall-clock reads
        # threaten reproducibility of recorded artifacts.
        assert lint("import time\ndt = time.monotonic()\n",
                    rules=self.RULE) == []


# -- DAL007/008/009: aliases of the architecture contract (DAL010) ------------


class AliasCase:
    """Lint with the default engine, keep one alias code's findings."""

    CODE = ""

    def lint(self, source, path=CORE):
        return [f for f in lint(source, path) if f.code == self.CODE]


# -- DAL007: raw transport outside repro.net ---------------------------------


class TestTransport(AliasCase):
    CODE = "DAL007"
    NET = "src/repro/net/example.py"

    def test_import_socket_fires(self):
        found = self.lint("import socket\n")
        assert codes(found) == ["DAL007"]
        assert found[0].line == 1

    def test_import_asyncio_fires(self):
        assert codes(self.lint("import asyncio\n")) == ["DAL007"]

    def test_from_import_fires(self):
        for stmt in ("from socket import create_connection",
                     "from asyncio import StreamReader",
                     "from socket.whatever import x",
                     "import socketserver",
                     "import selectors",
                     "import ssl"):
            assert codes(self.lint(stmt + "\n")) == ["DAL007"], stmt

    def test_lazy_function_local_import_still_fires(self):
        src = ("def probe(address):\n"
               "    import socket\n"
               "    return socket.create_connection(address)\n")
        found = self.lint(src)
        assert codes(found) == ["DAL007"]
        assert found[0].line == 2

    def test_aliased_import_fires(self):
        assert codes(self.lint("import socket as sk\n")) == ["DAL007"]

    def test_silent_inside_repro_net(self):
        src = "import socket\nimport asyncio\n"
        assert self.lint(src, path=self.NET) == []
        assert self.lint(src, path="src/repro/net/sub/deep.py") == []

    def test_relative_and_unrelated_imports_ok(self):
        src = ("import threading\n"
               "from . import protocol\n"
               "from ..service import MetricsRegistry\n"
               "import socketish_helper\n")
        assert self.lint(src) == []

    def test_noqa_suppresses(self):
        found = self.lint("import socket  # desks: noqa-DAL007\n")
        assert active(found) == []
        assert [f.code for f in found if f.suppressed] == ["DAL007"]


# -- DAL008: repro.lang dependency purity -------------------------------------


class TestLanguagePurity(AliasCase):
    CODE = "DAL008"
    LANG = "src/repro/lang/executor.py"

    def test_absolute_import_of_service_fires(self):
        found = self.lint("from repro.service import QueryEngine\n",
                          path=self.LANG)
        assert codes(found) == ["DAL008"]
        assert "repro.service" in found[0].message

    def test_relative_import_of_cluster_fires(self):
        found = self.lint("from ..cluster import ShardRouter\n",
                          path=self.LANG)
        assert codes(found) == ["DAL008"]

    def test_plain_import_of_net_fires(self):
        found = self.lint("import repro.net.client\n",
                          path=self.LANG)
        assert codes(found) == ["DAL008"]

    def test_from_repro_import_package_fires(self):
        for stmt in ("from repro import net\n", "from .. import service\n"):
            assert codes(self.lint(stmt, path=self.LANG)) == ["DAL008"], stmt

    def test_allowed_dependencies_ok(self):
        src = ("import math\n"
               "from . import errors\n"
               "from .plan import SelectPlan\n"
               "from ..core import DesksSearcher\n"
               "from ..geometry import DirectionInterval\n"
               "from ..text import keyword_set\n"
               "from ..trace import explain\n"
               "from repro.core import ResultEntry\n")
        assert self.lint(src, path=self.LANG) == []

    def test_silent_outside_repro_lang(self):
        src = "from ..cluster import ShardRouter\n"
        assert self.lint(src, path="src/repro/net/frontend.py") == []

    def test_lazy_function_local_import_still_fires(self):
        src = ("def run():\n"
               "    from ..net import RemoteShardClient\n"
               "    return RemoteShardClient\n")
        found = self.lint(src, path=self.LANG)
        assert codes(found) == ["DAL008"]
        assert found[0].line == 2

    def test_noqa_suppresses(self):
        found = self.lint("from ..service import QueryEngine"
                          "  # desks: noqa-DAL008\n",
                          path=self.LANG)
        assert active(found) == []
        assert [f.code for f in found if f.suppressed] == ["DAL008"]


# -- DAL009: chaos injector stays out of production paths ---------------------


class TestChaosContainment(AliasCase):
    CODE = "DAL009"
    NET = "src/repro/net/client.py"

    def test_absolute_import_fires(self):
        found = self.lint("import repro.net.chaos\n")
        assert codes(found) == ["DAL009"]

    def test_from_import_fires(self):
        found = self.lint("from repro.net.chaos import ChaosProxy\n",
                          path="src/repro/cluster/router.py")
        assert codes(found) == ["DAL009"]

    def test_from_package_import_chaos_fires(self):
        found = self.lint("from repro.net import chaos\n")
        assert codes(found) == ["DAL009"]

    def test_relative_import_within_net_fires(self):
        for stmt in ("from .chaos import ChaosProxy\n",
                     "from . import chaos\n"):
            assert codes(self.lint(stmt, path=self.NET)) == ["DAL009"], stmt

    def test_chaos_module_itself_is_exempt(self):
        src = ("import socket\n"
               "from .protocol import HEADER_FORMAT\n")
        assert self.lint(src, path="src/repro/net/chaos.py") == []

    def test_other_net_imports_ok(self):
        src = ("from .protocol import HEADER_FORMAT\n"
               "from .resilience import CircuitBreaker\n"
               "from repro.net import RemoteShardClient\n")
        assert self.lint(src, path=self.NET) == []

    def test_noqa_suppresses(self):
        found = self.lint("from repro.net import chaos  # desks: noqa-DAL009\n")
        assert active(found) == []
        assert [f.code for f in found if f.suppressed] == ["DAL009"]


# -- engine plumbing ----------------------------------------------------------


class TestEngine:
    def test_findings_sorted_and_located(self):
        src = ("import math\n"
               "b = math.atan2(y, x)\n"
               "a = theta == 0.5\n")
        found = lint(src)
        assert [(f.line, f.code) for f in found] == [(2, "DAL001"),
                                                     (3, "DAL002")]
        assert found[0].snippet == "b = math.atan2(y, x)"

    def test_multi_code_noqa(self):
        src = ("t = math.atan2(y, x) == 0.5"
               "  # desks: noqa-DAL001,DAL002\n")
        found = lint(src)
        assert active(found) == []
        assert sorted(f.code for f in found) == ["DAL001", "DAL002"]

    def test_noqa_is_per_code(self):
        src = "t = math.atan2(y, x) == 0.5  # desks: noqa-DAL001\n"
        assert codes(lint(src)) == ["DAL002"]

    def test_check_reports_syntax_errors(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = LintEngine().check([str(tmp_path)])
        assert not report.clean
        assert report.errors and str(bad) in report.errors[0][0]

    def test_discover_skips_pycache(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "ok.cpython-311.py").write_text("x = 1\n")
        assert LintEngine.discover(str(tmp_path)) == [
            str(tmp_path / "ok.py")]

    def test_golden_json_report(self, tmp_path):
        target = tmp_path / "repro" / "core"
        target.mkdir(parents=True)
        mod = target / "golden.py"
        mod.write_text("import math\n"
                       "t = math.atan2(y, x)\n"
                       "u = time.time()  # desks: noqa-DAL006\n")
        report = LintEngine().check([str(mod)])
        got = json.loads(report.to_json())
        got["findings"][0]["path"] = "<path>"
        got["suppressed"][0]["path"] = "<path>"
        assert got == {
            "clean": False,
            "counts": {"DAL001": 1},
            "errors": [],
            "files_checked": 1,
            "findings": [{
                "code": "DAL001",
                "col": 4,
                "line": 2,
                "message": ("raw math.atan2 outside repro.geometry; "
                            "use angle_of / signed_angle_of"),
                "path": "<path>",
                "snippet": "t = math.atan2(y, x)",
                "suppressed": False,
            }],
            "suppressed": [{
                "code": "DAL006",
                "col": 4,
                "line": 3,
                "message": ("time.time in a deterministic path; use "
                            "perf_counter/monotonic for durations"),
                "path": "<path>",
                "snippet": "u = time.time()  # desks: noqa-DAL006",
                "suppressed": True,
            }],
        }

    def test_src_tree_is_clean(self):
        report = LintEngine().check(["src"])
        assert report.clean, "\n" + report.render()


# -- catalog/documentation meta-tests -----------------------------------------


class TestCatalog:
    def test_rule_index_covers_all_rules(self):
        from repro.analysis import ALIAS_CODES, PROGRAM_RULES

        own_codes = ({r.code for r in ALL_RULES}
                     | {r.code for r in PROGRAM_RULES})
        assert set(RULE_INDEX) == own_codes | set(ALIAS_CODES)
        # Alias codes must not shadow a rule's own code.
        assert not own_codes & set(ALIAS_CODES)
        # Every legacy contract code stays addressable via --rules.
        assert {"DAL007", "DAL008", "DAL009"} <= set(ALIAS_CODES)

    def test_every_rule_has_code_summary_rationale(self):
        from repro.analysis import PROGRAM_RULES

        for rule in tuple(ALL_RULES) + tuple(PROGRAM_RULES):
            assert rule.code.startswith("DAL") and len(rule.code) == 6
            assert rule.summary, rule
            assert rule.rationale, rule

    def test_catalog_matches_rules(self):
        from repro.analysis import PROGRAM_RULES

        catalog = rule_catalog()
        assert [entry["code"] for entry in catalog] == sorted(
            r.code for r in tuple(ALL_RULES) + tuple(PROGRAM_RULES))

    @pytest.mark.parametrize("doc", ["docs/ANALYSIS.md"])
    def test_every_code_documented(self, doc):
        import pathlib

        from repro.analysis import PROGRAM_RULES

        root = pathlib.Path(__file__).resolve().parents[2]
        text = (root / doc).read_text(encoding="utf-8")
        for rule in tuple(ALL_RULES) + tuple(PROGRAM_RULES):
            assert rule.code in text, (
                f"{rule.code} is missing from {doc}")
        # ...and the doc names no codes that do not exist (DAL999 is the
        # worked example in the "adding a rule" section; alias codes
        # DAL007-009 are in RULE_INDEX, so they stay legal to document).
        import re
        for code in set(re.findall(r"DAL\d{3}", text)) - {"DAL999"}:
            assert code in RULE_INDEX, (
                f"{doc} documents unknown rule {code}")

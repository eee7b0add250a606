"""Per-rule fixtures: each DAL code fires on the seeded violation, stays
silent on the fixed form, and honours ``desks: noqa`` suppression; each
retired code is gone and its old fixtures lint clean."""

import json

import pytest

from repro.analysis import ALL_RULES, RULE_INDEX, LintEngine, rule_catalog
from repro.analysis.rules import AngleArithmeticRule, FloatEqualityRule

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


# -- DAL003-006: retired ------------------------------------------------------
#
# None of the four ever fired outside its own fixtures and waivers, so
# they were deleted; docs/ANALYSIS.md names the runtime test that guards
# each invariant.  Every fixture stays: the code is gone from the
# catalog and the default engine is silent on what the rule flagged.


class RetiredCase:
    CODE = ""

    def assert_silent(self, source, path=CORE):
        assert self.CODE not in RULE_INDEX
        assert LintEngine().check_source(source, path) == []


class TestBareAcquire(RetiredCase):
    CODE = "DAL003"

    def test_bare_acquire_fires(self):
        self.assert_silent("lock.acquire()\ndo_work()\nlock.release()\n")

    def test_try_finally_ok(self):
        self.assert_silent("lock.acquire()\n"
                           "try:\n    do_work()\nfinally:\n"
                           "    lock.release()\n")

    def test_with_statement_ok(self):
        self.assert_silent("with lock:\n    do_work()\n")

    def test_mismatched_finally_still_fires(self):
        self.assert_silent("a.acquire()\n"
                           "try:\n    do_work()\nfinally:\n"
                           "    b.release()\n")

    def test_noqa_suppresses(self):
        self.assert_silent("ok = lock.acquire(False)"
                           "  # desks: noqa-DAL003\n")


class TestStrayFileWrite(RetiredCase):
    CODE = "DAL004"

    def test_binary_write_open_fires(self):
        self.assert_silent('f = open(p, "wb")\n')

    def test_fsync_fires(self):
        self.assert_silent("import os\nos.fsync(fd)\n")

    def test_rename_fires(self):
        self.assert_silent("import os\nos.replace(a, b)\n")

    def test_read_open_ok(self):
        self.assert_silent('f = open(p, "rb")\ng = open(p)\n')

    def test_silent_inside_storage(self):
        self.assert_silent('import os\nf = open(p, "wb")\n'
                           "os.fsync(f.fileno())\n", path=STORAGE)

    def test_silent_inside_durability(self):
        self.assert_silent('f = open(p, "ab")\n',
                           path="src/repro/durability/wal.py")


class TestBufferBypass(RetiredCase):
    CODE = "DAL005"

    def test_inner_read_fires(self):
        self.assert_silent("data = store.inner.read_page(3)\n")

    def test_inner_write_fires(self):
        self.assert_silent("store.inner.write_page(3, data)\n")

    def test_pool_read_ok(self):
        self.assert_silent("data = pool.read_page(3)\n")

    def test_silent_inside_storage(self):
        self.assert_silent("data = self._store.read_page(3)\n",
                           path=STORAGE)

    def test_noqa_suppresses(self):
        self.assert_silent("d = store.inner.read_page(0)"
                           "  # desks: noqa-DAL005\n")


class TestNondeterminism(RetiredCase):
    CODE = "DAL006"

    def test_time_time_fires(self):
        self.assert_silent("import time\nt0 = time.time()\n")

    def test_unseeded_module_random_fires(self):
        self.assert_silent("import random\nx = random.random()\n")

    def test_unseeded_rng_constructor_fires(self):
        self.assert_silent("import random\nrng = random.Random()\n")

    def test_seeded_rng_ok(self):
        self.assert_silent("import random\nrng = random.Random(7)\n")

    def test_outside_scoped_packages_ok(self):
        self.assert_silent("import time\nt0 = time.time()\n",
                           path="src/repro/service/metrics.py")

    def test_kernel_package_is_scoped(self):
        self.assert_silent("import time\nt0 = time.time()\n",
                           path="src/repro/kernel/search.py")

    def test_monotonic_ok(self):
        self.assert_silent("import time\ndt = time.monotonic()\n")


# -- the v1 layering rules, now DAL010 ----------------------------------------
#
# DAL007 (raw transports) and DAL008 (language purity) are entries of
# the architecture contract; every violation of them is reported, and
# suppressed, as DAL010.


class ContractCase:
    """Lint with the default file rules, keep the DAL010 findings."""

    def lint(self, source, path=CORE):
        return [f for f in lint(source, path) if f.code == "DAL010"]


# -- raw transport outside repro.net -----------------------------------------


class TestTransport(ContractCase):
    NET = "src/repro/net/example.py"

    def test_import_socket_fires(self):
        found = self.lint("import socket\n")
        assert codes(found) == ["DAL010"]
        assert found[0].line == 1

    def test_import_asyncio_fires(self):
        assert codes(self.lint("import asyncio\n")) == ["DAL010"]

    def test_from_import_fires(self):
        for stmt in ("from socket import create_connection",
                     "from asyncio import StreamReader",
                     "from socket.whatever import x",
                     "import socketserver",
                     "import selectors",
                     "import ssl"):
            assert codes(self.lint(stmt + "\n")) == ["DAL010"], stmt

    def test_lazy_function_local_import_still_fires(self):
        src = ("def probe(address):\n"
               "    import socket\n"
               "    return socket.create_connection(address)\n")
        found = self.lint(src)
        assert codes(found) == ["DAL010"]
        assert found[0].line == 2

    def test_aliased_import_fires(self):
        assert codes(self.lint("import socket as sk\n")) == ["DAL010"]

    def test_silent_inside_repro_net(self):
        src = "import socket\nimport asyncio\n"
        assert self.lint(src, path=self.NET) == []
        assert self.lint(src, path="src/repro/net/sub/deep.py") == []

    def test_relative_and_unrelated_imports_ok(self):
        src = ("import threading\n"
               "from . import protocol\n"
               "from ..service import MetricsRegistry\n"
               "import socketish_helper\n")
        assert self.lint(src, path="src/repro/cluster/example.py") == []

    def test_noqa_suppresses(self):
        found = self.lint("import socket  # desks: noqa-DAL010\n")
        assert active(found) == []
        assert [f.code for f in found if f.suppressed] == ["DAL010"]


# -- repro.lang dependency purity ---------------------------------------------


class TestLanguagePurity(ContractCase):
    LANG = "src/repro/lang/executor.py"

    def test_absolute_import_of_service_fires(self):
        found = self.lint("from repro.service import QueryEngine\n",
                          path=self.LANG)
        assert codes(found) == ["DAL010"]
        assert "repro.service" in found[0].message

    def test_relative_import_of_cluster_fires(self):
        found = self.lint("from ..cluster import ShardRouter\n",
                          path=self.LANG)
        assert codes(found) == ["DAL010"]

    def test_plain_import_of_net_fires(self):
        found = self.lint("import repro.net.client\n",
                          path=self.LANG)
        assert codes(found) == ["DAL010"]

    def test_from_repro_import_package_fires(self):
        for stmt in ("from repro import net\n", "from .. import service\n"):
            assert codes(self.lint(stmt, path=self.LANG)) == ["DAL010"], stmt

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
        assert codes(found) == ["DAL010"]
        assert found[0].line == 2

    def test_noqa_suppresses(self):
        found = self.lint("from ..service import QueryEngine"
                          "  # desks: noqa-DAL010\n",
                          path=self.LANG)
        assert active(found) == []
        assert [f.code for f in found if f.suppressed] == ["DAL010"]


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

    def test_render_counts_parse_errors_in_the_summary(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        (tmp_path / "bad.py").write_text("def broken(:\n")
        assert main(["lint", str(tmp_path)]) == 1
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary == "checked 1 file(s): 0 finding(s), 1 parse error(s)"

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
                       "u = theta == 0.5  # desks: noqa-DAL002\n")
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
                "code": "DAL002",
                "col": 4,
                "line": 3,
                "message": ("exact ==/!= on an angle/distance/location "
                            "value; use a tolerance or Point.coincides()"),
                "path": "<path>",
                "snippet": "u = theta == 0.5  # desks: noqa-DAL002",
                "suppressed": True,
            }],
        }

    def test_checkout_under_a_repro_directory_lints_the_same(self, tmp_path):
        # Module paths key on the *last* `repro` segment, so the
        # package scopes hold wherever the checkout lives.
        source = ("from repro.net import server\n"
                  "import math\n"
                  "t = math.atan2(y, x)\n")
        facts = []
        for root in (tmp_path / "plain", tmp_path / "repro"):
            package = root / "src" / "repro" / "core"
            package.mkdir(parents=True)
            (package / "example.py").write_text(source)
            report = LintEngine().check([str(root / "src")])
            facts.append([(f.code, f.line, f.col, f.message)
                          for f in report.findings])
        assert facts[0] == facts[1]
        assert [code for code, *_ in facts[0]] == ["DAL010", "DAL001"]

    def test_src_tree_is_clean(self):
        report = LintEngine().check(["src"])
        assert report.clean, "\n" + report.render()


# -- catalog/documentation meta-tests -----------------------------------------


#: Retired code -> the test that guards its invariant; the former DAL010
#: aliases are guarded by DAL010 itself, except DAL009 (chaos
#: containment), whose fault code left the package.
RETIRED = {
    "DAL003": "tests/analysis/test_lock_stress.py",
    "DAL004": "benchmarks/test_crash_recovery.py",
    "DAL005": "tests/trace/test_explain.py",
    "DAL006": "tests/trace/test_dmode_regression.py",
    "DAL007": "DAL010",
    "DAL008": "DAL010",
    "DAL009": "test_no_package_module_defines_fault_code",
    "DAL012": "tests/analysis/test_shared.py",
}

#: DAL011's retired escape facet (no typed-error escape from an RPC
#: entry point) -> the runtime tests that hold it.
RETIRED_ESCAPE_FACET_GUARDS = (
    "tests/net/test_server_contract.py::"
    "test_failing_target_is_internal_carrying_the_type_name",
    "tests/lang/test_executor.py::TestErrors::test_backend_failure_wrapped",
)

#: The retired runtime detectors (lock order, shared-state writes) -> the
#: hang-and-reconcile guards that replace them.
RETIRED_DETECTOR_GUARDS = (
    "tests/analysis/hang_guard.py",
    "tests/analysis/test_lock_stress.py",
    "tests/analysis/test_shared.py",
)


class TestCatalog:
    def test_rule_index_covers_all_rules(self, capsys):
        from repro.cli import main

        own_codes = {r.code for r in ALL_RULES}
        assert set(RULE_INDEX) == own_codes == {
            "DAL001", "DAL002", "DAL010", "DAL011"}
        # A retired or former alias code is an unknown code.
        for code in ("DAL007", "DAL012"):
            assert main(["lint", "src", "--rules", code]) == 2
            assert f"unknown rule code(s) {code}" in \
                capsys.readouterr().err

    def test_every_rule_has_code_summary_rationale(self):
        for rule in ALL_RULES:
            assert rule.code.startswith("DAL") and len(rule.code) == 6
            assert rule.summary, rule
            assert rule.rationale, rule

    def test_catalog_matches_rules(self):
        catalog = rule_catalog()
        assert [entry["code"] for entry in catalog] == sorted(
            r.code for r in ALL_RULES)

    @pytest.mark.parametrize("doc", ["docs/ANALYSIS.md"])
    def test_every_code_documented(self, doc):
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parents[2]
        text = (root / doc).read_text(encoding="utf-8")
        for rule in ALL_RULES:
            assert rule.code in text, (
                f"{rule.code} is missing from {doc}")
        # Each retired code and facet is documented with the runtime
        # test that guards its invariant.
        for code, guard in RETIRED.items():
            assert code in text and guard in text, (code, guard)
        for guard in RETIRED_ESCAPE_FACET_GUARDS + RETIRED_DETECTOR_GUARDS:
            assert guard in text, guard
        # ...and the doc names no other codes (DAL999 is the worked
        # example in the "adding a rule" section).
        for code in set(re.findall(r"DAL\d{3}", text)) - {"DAL999"}:
            assert code in RULE_INDEX or code in RETIRED, (
                f"{doc} documents unknown rule {code}")


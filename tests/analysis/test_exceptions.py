"""Broad handlers (DAL011): a per-file rule; its retired escape facet and
RPC boundaries are gone, and what they used to flag lints clean."""

import ast
import inspect
import textwrap

import repro.analysis
from repro.analysis import ExceptionFlowRule, LintEngine
from repro.analysis import graph as graph_module

SVC = "src/repro/service/example.py"
NET = "src/repro/net/server.py"


def lint(source, path=SVC):
    """Single-module lint with DAL011 alone (noqa routing included)."""
    return LintEngine([ExceptionFlowRule]).check_source(
        textwrap.dedent(source), path)


class TestHandlerFacet:
    def test_swallowing_except_exception_fires(self):
        found = lint("""
            def f():
                try:
                    work()
                except Exception:
                    pass
        """)
        assert [f.code for f in found] == ["DAL011"]
        assert "swallows the exception" in found[0].message

    def test_bare_except_fires(self):
        found = lint("""
            def f():
                try:
                    work()
                except:
                    log()
        """)
        assert [f.code for f in found] == ["DAL011"]
        assert "bare `except:`" in found[0].message

    def test_except_base_exception_fires(self):
        found = lint("""
            def f():
                try:
                    work()
                except BaseException:
                    cleanup()
        """)
        assert [f.code for f in found] == ["DAL011"]

    def test_reraise_is_silent(self):
        assert lint("""
            def f():
                try:
                    work()
                except Exception:
                    cleanup()
                    raise
        """) == []

    def test_raise_from_is_silent(self):
        assert lint("""
            def f():
                try:
                    work()
                except Exception as exc:
                    raise RuntimeError("wrapped") from exc
        """) == []

    def test_narrow_handler_is_silent(self):
        assert lint("""
            def f():
                try:
                    work()
                except (ValueError, KeyError):
                    pass
        """) == []

    def test_noqa_suppresses(self):
        found = lint("""
            def f():
                try:
                    work()
                except Exception:  # desks: noqa-DAL011 - fire and forget
                    pass
        """)
        assert [f.code for f in found if f.suppressed] == ["DAL011"]
        assert not [f for f in found if not f.suppressed]

    def test_boundary_function_may_catch_broadly(self):
        """A dispatcher that turns every exception into an error frame
        catches broadly under an audited waiver, like any other
        deliberate conversion: no function is exempt by declaration."""
        source = """
            class Server:
                def dispatch(self):
                    try:
                        self.handle()
                    except Exception:{}
                        self.send_error()
        """
        assert [f.code for f in lint(source.format(""), NET)] == ["DAL011"]
        waived = lint(source.format(
            "  # desks: noqa-DAL011 - sent as an error frame"), NET)
        assert [(f.code, f.suppressed) for f in waived] == [("DAL011", True)]


# -- escape facet: retired ---------------------------------------------------
#
# The interprocedural escape facet never fired on 28 trees of the
# project's history, so it was deleted with the call graph, the
# whole-program rule pass and the contract's RPC boundaries;
# docs/ANALYSIS.md names the runtime tests that hold its promise.  Every
# fixture stays: the default engine is silent on each of its modules.


def assert_retired(sources):
    for name in ("Boundary", "CallGraph", "PROGRAM_RULES", "ProgramRule"):
        assert not hasattr(repro.analysis, name), name
    assert not hasattr(graph_module, "CallGraph")
    assert "program_rules" not in inspect.signature(LintEngine).parameters
    for path, source in sorted(sources.items()):
        assert LintEngine().check_source(
            textwrap.dedent(source), path) == [], path


class TestEscapeFacet:
    def test_direct_raise_escaping_boundary_fires(self):
        assert_retired({
            "src/repro/net/server.py": """
                class Server:
                    def dispatch(self):
                        raise ValueError("boom")
            """,
        })

    def test_allowed_exception_is_silent(self):
        assert_retired({
            "src/repro/net/server.py": """
                class ProtocolError(RuntimeError):
                    pass

                class Server:
                    def dispatch(self):
                        raise ProtocolError("typed")
            """,
        })

    def test_subclass_of_allowed_is_silent(self):
        assert_retired({
            "src/repro/net/server.py": """
                class ProtocolError(RuntimeError):
                    pass

                class BadMagic(ProtocolError):
                    pass

                class Server:
                    def dispatch(self):
                        raise BadMagic("still typed")
            """,
        })

    def test_escape_through_a_callee_fires(self):
        assert_retired({
            "src/repro/net/server.py": """
                from .helpers import parse

                class Server:
                    def dispatch(self):
                        parse(b"frame")
            """,
            "src/repro/net/helpers.py": """
                def parse(blob):
                    if not blob:
                        raise KeyError("empty")
            """,
        })

    def test_callee_escape_caught_at_the_boundary_is_silent(self):
        assert_retired({
            "src/repro/net/server.py": """
                from .helpers import parse

                class Server:
                    def dispatch(self):
                        try:
                            parse(b"frame")
                        except KeyError:
                            self.send_error()

                    def send_error(self):
                        pass
            """,
            "src/repro/net/helpers.py": """
                def parse(blob):
                    if not blob:
                        raise KeyError("empty")
            """,
        })

    def test_catch_and_convert_to_typed_error_is_silent(self):
        assert_retired({
            "src/repro/net/server.py": """
                class ProtocolError(RuntimeError):
                    pass

                class Server:
                    def dispatch(self):
                        try:
                            self.work()
                        except ValueError as exc:
                            raise ProtocolError(str(exc)) from exc

                    def work(self):
                        raise ValueError("boom")
            """,
        })

    def test_except_exception_stops_everything_but_outside(self):
        assert_retired({
            "src/repro/net/server.py": """
                class Server:
                    def dispatch(self):
                        try:
                            self.work()
                        except Exception:
                            raise

                    def work(self):
                        raise KeyboardInterrupt()
            """,
        })

    def test_finally_does_not_catch(self):
        assert_retired({
            "src/repro/net/server.py": """
                class Server:
                    def dispatch(self):
                        try:
                            raise OSError("io")
                        finally:
                            self.cleanup()

                    def cleanup(self):
                        pass
            """,
        })

    def test_escape_through_a_subclass_hook_fires_at_the_inherited_boundary(
            self):
        assert_retired({
            "src/repro/net/server.py": """
                class Server:
                    def dispatch(self):
                        return self.answer()

                    def answer(self):
                        raise NotImplementedError

                class Shard(Server):
                    def answer(self):
                        return 1

                class Front(Server):
                    def answer(self):
                        raise KeyError("lost shard")
            """,
        })

    def test_subclass_hook_escape_converted_by_the_base_is_silent(self):
        assert_retired({
            "src/repro/net/server.py": """
                class ProtocolError(RuntimeError):
                    pass

                class Server:
                    def dispatch(self):
                        try:
                            return self.answer()
                        except Exception as exc:
                            raise ProtocolError(str(exc)) from exc

                    def answer(self):
                        raise NotImplementedError

                class Front(Server):
                    def answer(self):
                        raise KeyError("lost shard")
            """,
        })


# -- the real tree ------------------------------------------------------------


def enclosing_function(path, line):
    """Dotted name (``Class.method``) of the innermost def holding ``line``."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = []
    scope = tree
    while True:
        inner = next((node for node in ast.iter_child_nodes(scope)
                      if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.lineno <= line <= node.end_lineno), None)
        if inner is None:
            return ".".join(names)
        names.append(inner.name)
        scope = inner


class TestRealTree:
    def test_src_is_clean_and_waivers_are_exactly_the_audited_set(self):
        engine = LintEngine()
        report = engine.check(["src"])
        assert report.clean, "\n" + report.render()
        # Pinned by function, not line: the audited set stays exact while
        # edits above a waiver are free.
        waivers = sorted((f.path, enclosing_function(f.path, f.line))
                         for f in report.suppressed if f.code == "DAL011")
        assert waivers == [
            ("src/repro/cluster/replica.py", "FailoverSet._attempt"),
            ("src/repro/net/server.py", "FrameServer._dispatch"),
            ("src/repro/service/engine.py", "QueryEngine._run_batch_chunk"),
        ]

    def test_the_one_dispatcher_reaches_both_servers_hooks(self):
        """The call-graph walk from ``FrameServer._dispatch`` is retired.
        Both servers still answer through that one dispatcher, whose
        broad handler is a waiver naming its runtime guard."""
        from repro.net.server import ClusterFrontend, FrameServer, ShardServer

        assert_retired({})
        for server in (ShardServer, ClusterFrontend):
            assert server._dispatch is FrameServer._dispatch
            for hook in ("_search", "_identity", "_stats_extras"):
                assert hook in vars(server)
        [waiver] = LintEngine().check([NET]).suppressed
        assert waiver.code == "DAL011"
        assert "tests/net/test_server_contract.py" in waiver.snippet

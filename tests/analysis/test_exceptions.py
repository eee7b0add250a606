"""Exception-flow checking (DAL011): broad handlers and boundary escapes."""

import ast
import textwrap

from repro.analysis import Contract, ExceptionFlowRule, LintEngine
from repro.analysis.graph import ProgramIndex

SVC = "src/repro/service/example.py"


def run_rule(sources, contract=None):
    """DAL011 findings over ``{path: source}``, optionally under a
    custom contract."""
    items = []
    for path, source in sorted(sources.items()):
        source = textwrap.dedent(source)
        items.append((path, source, ast.parse(source)))
    rule = ExceptionFlowRule()
    rule.contract = contract
    return rule.check(ProgramIndex.from_sources(items))


def lint(source, path=SVC):
    """Engine-level single-module lint (program rules + noqa routing)."""
    engine = LintEngine([], program_rules=[ExceptionFlowRule])
    return engine.check_source(textwrap.dedent(source), path)


BOUNDARY_CONTRACT = Contract.from_dict({
    "schema": 1,
    "layer": [{"name": "net", "deps": []}],
    "boundary": [{"module": "repro/net/server.py",
                  "function": "Server.dispatch",
                  "allowed": ["ProtocolError"]}],
})


# -- handler facet ------------------------------------------------------------


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
        found = run_rule({
            "src/repro/net/server.py": """
                class Server:
                    def dispatch(self):
                        try:
                            self.handle()
                        except Exception:
                            self.send_error()

                    def handle(self):
                        pass

                    def send_error(self):
                        pass
            """,
        }, contract=BOUNDARY_CONTRACT)
        assert found == []


# -- escape facet -------------------------------------------------------------


class TestEscapeFacet:
    def test_direct_raise_escaping_boundary_fires(self):
        found = run_rule({
            "src/repro/net/server.py": """
                class Server:
                    def dispatch(self):
                        raise ValueError("boom")
            """,
        }, contract=BOUNDARY_CONTRACT)
        assert [f.code for f in found] == ["DAL011"]
        assert "`ValueError`" in found[0].message
        assert "Server.dispatch" in found[0].message

    def test_allowed_exception_is_silent(self):
        assert run_rule({
            "src/repro/net/server.py": """
                class ProtocolError(RuntimeError):
                    pass

                class Server:
                    def dispatch(self):
                        raise ProtocolError("typed")
            """,
        }, contract=BOUNDARY_CONTRACT) == []

    def test_subclass_of_allowed_is_silent(self):
        assert run_rule({
            "src/repro/net/server.py": """
                class ProtocolError(RuntimeError):
                    pass

                class BadMagic(ProtocolError):
                    pass

                class Server:
                    def dispatch(self):
                        raise BadMagic("still typed")
            """,
        }, contract=BOUNDARY_CONTRACT) == []

    def test_escape_through_a_callee_fires(self):
        found = run_rule({
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
        }, contract=BOUNDARY_CONTRACT)
        assert [f.code for f in found] == ["DAL011"]
        assert "`KeyError`" in found[0].message
        assert "helpers.py:4" in found[0].message

    def test_callee_escape_caught_at_the_boundary_is_silent(self):
        assert run_rule({
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
        }, contract=BOUNDARY_CONTRACT) == []

    def test_catch_and_convert_to_typed_error_is_silent(self):
        assert run_rule({
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
        }, contract=BOUNDARY_CONTRACT) == []

    def test_except_exception_stops_everything_but_outside(self):
        found = run_rule({
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
        }, contract=BOUNDARY_CONTRACT)
        assert [f.code for f in found] == ["DAL011"]
        assert "`KeyboardInterrupt`" in found[0].message

    def test_finally_does_not_catch(self):
        found = run_rule({
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
        }, contract=BOUNDARY_CONTRACT)
        assert [f.code for f in found] == ["DAL011"]
        assert "`OSError`" in found[0].message


    def test_escape_through_a_subclass_hook_fires_at_the_inherited_boundary(
            self):
        """A template-method boundary is declared once, on the base:
        ``self.answer()`` may run any subclass's override."""
        found = run_rule({
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
        }, contract=BOUNDARY_CONTRACT)
        assert sorted(f.message.split("`")[3] for f in found) == \
            ["KeyError", "NotImplementedError"]
        assert all("Server.dispatch" in f.message for f in found)

    def test_subclass_hook_escape_converted_by_the_base_is_silent(self):
        assert run_rule({
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
        }, contract=BOUNDARY_CONTRACT) == []


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
            ("src/repro/service/engine.py", "QueryEngine._run_batch_chunk"),
            ("src/repro/service/workload.py", "run_closed_loop.client"),
        ]

    def test_the_one_dispatcher_reaches_both_servers_hooks(self):
        """The boundary is ``FrameServer._dispatch``; the pass must walk
        from it into what ``ShardServer`` and ``ClusterFrontend`` supply."""
        from repro.analysis.graph import CallGraph

        graph = CallGraph(ProgramIndex.from_paths(["src"]))
        server = "repro/net/server.py::"
        reached, frontier = set(), [server + "FrameServer._dispatch"]
        while frontier:
            qualname = frontier.pop()
            if qualname not in reached:
                reached.add(qualname)
                frontier.extend(graph.calls.get(qualname, ()))
        for hook in ("_search", "_identity", "_stats_extras"):
            assert server + f"ShardServer.{hook}" in reached
            assert server + f"ClusterFrontend.{hook}" in reached

"""The whole-program substrate: the import graph and its determinism;
the retired call graph is gone."""

import ast
import json
import textwrap
from pathlib import Path

from repro.analysis import graph as graph_module
from repro.analysis.graph import (
    ImportGraph,
    ProgramIndex,
    build_graph,
    unit_of,
)


def program(by_path=None, **modules):
    """A ProgramIndex from ``{path: source}`` (kwargs use __ for /)."""
    paths = dict(by_path or {})
    for key, source in modules.items():
        paths[key.replace("__", "/") + ".py"] = source
    items = []
    for path, source in sorted(paths.items()):
        source = textwrap.dedent(source)
        items.append((path, source, ast.parse(source)))
    return ProgramIndex.from_sources(items)


# -- units and resolution -----------------------------------------------------


class TestUnits:
    def test_unit_is_first_segment_under_repro(self):
        assert unit_of("repro/storage/buffer.py") == "storage"
        assert unit_of("repro/net/client.py") == "net"
        assert unit_of("outside/thing.py") == ""

    def test_top_level_modules_are_their_own_unit(self):
        assert unit_of("repro/cli.py") == "cli"
        assert unit_of("repro/__init__.py") == "__init__"

    def test_resolve_prefers_module_then_package(self):
        index = program({
            "src/repro/core/query.py": "x = 1\n",
            "src/repro/core/__init__.py": "",
        })
        assert index.resolve(["repro", "core", "query"]) == \
            "repro/core/query.py"
        assert index.resolve(["repro", "core"]) == \
            "repro/core/__init__.py"
        assert index.resolve(["repro", "nope"]) is None


# -- import graph -------------------------------------------------------------


SAMPLE = dict(
    src__repro__geometry__angles="TAU = 6.0\n",
    src__repro__storage__pages="""
        from ..geometry import angles

        def load():
            from ..geometry.angles import TAU
            return TAU
    """,
    src__repro__net__server="import socket\nfrom ..storage import pages\n",
)


class TestImportGraph:
    def test_edges_cover_top_level_deferred_and_external(self):
        graph = ImportGraph.build(program(**SAMPLE))
        edges = {(e.src, e.dst, e.deferred) for e in graph.edges}
        assert ("repro/storage/pages.py",
                "repro/geometry/angles.py", False) in edges
        assert ("repro/storage/pages.py",
                "repro/geometry/angles.py", True) in edges
        assert ("repro/net/server.py", "socket", False) in edges
        assert ("repro/net/server.py",
                "repro/storage/pages.py", False) in edges

    def test_unit_table_rolls_up_by_unit(self):
        graph = ImportGraph.build(program(**SAMPLE))
        by_unit = {row["name"]: row for row in graph.unit_table()}
        assert "geometry" in by_unit["storage"]["imports"]
        assert by_unit["net"]["external"] == ["socket"]
        assert by_unit["geometry"]["imports"] == []

    def test_json_is_stable_across_two_builds(self):
        first = ImportGraph.build(program(**SAMPLE)).to_json()
        second = ImportGraph.build(program(**SAMPLE)).to_json()
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == 1
        assert set(payload) == {"schema", "modules", "edges", "units"}

    def test_dot_renders_units_with_deferred_dashed(self):
        dot = ImportGraph.build(program(**SAMPLE)).to_dot()
        assert dot.startswith("digraph repro {")
        assert '"storage" -> "geometry"' in dot
        assert "dashed" not in dot  # the storage->geometry edge is
        # also taken at module top level, so it renders solid

    def test_deferred_only_unit_edge_is_dashed(self):
        graph = ImportGraph.build(program(
            src__repro__trace__span="""
                def lazy():
                    from ..storage import pages
                    return pages
            """,
            src__repro__storage__pages="x = 1\n",
        ))
        assert '"trace" -> "storage" [style=dashed];' in graph.to_dot()

    def test_write_emits_json_and_dot(self, tmp_path):
        base = str(tmp_path / "graph")
        json_path, dot_path = ImportGraph.build(
            program(**SAMPLE)).write(base)
        assert json_path == base + ".json"
        assert dot_path == base + ".dot"
        assert json.load(open(json_path))["schema"] == 1
        assert open(dot_path).read().startswith("digraph repro {")


class TestRealTreeGolden:
    def test_src_graph_is_deterministic_across_runs(self):
        first = build_graph(["src"]).to_json()
        second = build_graph(["src"]).to_json()
        assert first == second

    def test_src_graph_contains_known_unit_edges(self):
        by_unit = {row["name"]: row
                   for row in build_graph(["src"]).unit_table()}
        assert "storage" in by_unit["rtree"]["imports"]
        assert "service" in by_unit["cluster"]["imports"]
        assert "socket" in by_unit["net"]["external"]
        # geometry sits at the bottom of the tower: no internal deps.
        assert by_unit["geometry"]["imports"] == []


# -- call graph: retired -----------------------------------------------------
#
# The call graph existed only for DAL011's escape facet and went with it.
# Each fixture stays: its imports still resolve in the import graph.


def assert_call_graph_retired():
    for name in ("CallGraph", "ClassInfo", "FunctionInfo"):
        assert not hasattr(graph_module, name), name


class TestCallGraph:
    def test_resolves_local_module_and_method_calls(self):
        index = program(
            src__repro__core__a="""
                from . import b

                def top():
                    helper()
                    b.other()

                def helper():
                    pass
            """,
            src__repro__core__b="""
                def other():
                    pass
            """,
        )
        assert_call_graph_retired()
        edges = {(e.src, e.dst) for e in ImportGraph.build(index).edges}
        assert edges == {("repro/core/a.py", "repro/core/b.py")}

    def test_resolves_self_calls_through_base_classes(self):
        index = program(
            src__repro__core__svc="""
                class Base:
                    def ping(self):
                        pass

                class Impl(Base):
                    def run(self):
                        self.ping()
            """,
        )
        assert_call_graph_retired()
        assert ImportGraph.build(index).edges == []

    def test_resolves_self_calls_to_subclass_overrides(self):
        index = program(
            src__repro__core__svc="""
                class Base:
                    def run(self):
                        self.hook()

                    def hook(self):
                        raise NotImplementedError

                class Mid(Base):
                    pass

                class Leaf(Mid):
                    def hook(self):
                        pass
            """,
        )
        assert_call_graph_retired()
        assert list(index.modules) == ["repro/core/svc.py"]

    def test_indexes_the_real_tree_broadly(self):
        assert_call_graph_retired()
        graph = build_graph(["src"])
        # Every module under src/ is indexed, not a fixed floor of them.
        assert len(graph.program.modules) == \
            len(list(Path("src").rglob("*.py")))
        assert len(graph.edges) > 500

"""Every JSON file is decoded by `errors.read_json`, so a file that is not
UTF-8, not JSON or nested too deeply ends in one error naming it; the one
exception is the `meta` string inside a weights archive. Every npz archive
is opened by `errors.open_npz`, so bytes that are not a zip archive end in
one error too. These scans fail when library code calls `json.loads`,
`json.load` or `np.load` anywhere else. A last scan keeps the scene-graph
columns the one graph layout that the library, its tests and its demos
build and read: none of them defines, imports or uses a `Node`,
`NodeFeatures` or `Edge` row type, and only one pin test reads `.nodes` or
`.edges`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "sgalign"


def uses(tree: ast.AST, modules: set[str], names: set[str], function: str = "<module>"):
    """(function, line) of each call `<module>.<name>(...)`, or of an import
    of such a name from one of `modules`, under `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from uses(node, modules, names, node.name)
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules
                and node.func.attr in names):
            yield function, node.lineno
        if (isinstance(node, ast.ImportFrom) and node.module in modules
                and any(alias.name in names for alias in node.names)):
            yield function, node.lineno
        yield from uses(node, modules, names, function)


def found(modules: set[str], names: set[str]) -> set[tuple[str, str, int]]:
    return {(path.name, function, line) for path in sorted(SOURCES.glob("*.py"))
            for function, line in uses(ast.parse(path.read_text(), str(path)),
                                       modules, names)}


def test_one_json_reader():
    allowed = {("errors.py", "read_json"), ("encoder.py", "_read_weights")}
    calls = found({"json"}, {"load", "loads"})
    assert {(name, function) for name, function, _ in calls} == allowed, sorted(calls)
    assert len(calls) == len(allowed), sorted(calls)


def test_one_npz_opener():
    calls = found({"np", "numpy"}, {"load"})
    assert [(name, function) for name, function, _ in calls] == [("errors.py", "open_npz")], \
        sorted(calls)


ROW_TYPES = {"Node", "NodeFeatures", "Edge"}


def row_view_uses(tree: ast.AST, function: str = "<module>"):
    """(function, line) of each `.nodes`/`.edges` read under `tree`, and of
    each definition, import or use of a name in ROW_TYPES. `config.edges`,
    the edge-parameter section of a PipelineConfig, is not a graph's edges."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in ROW_TYPES:
                yield function, node.lineno
            if not isinstance(node, ast.ClassDef):
                yield from row_view_uses(node, node.name)
                continue
        if isinstance(node, ast.Attribute) and (
                node.attr in ROW_TYPES or node.attr == "nodes" or node.attr == "edges" and not (
                    isinstance(node.value, ast.Name) and node.value.id == "config")):
            yield function, node.lineno
        if isinstance(node, ast.Name) and node.id in ROW_TYPES:
            yield function, node.lineno
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                {alias.name.split(".")[-1], alias.asname} & ROW_TYPES for alias in node.names):
            yield function, node.lineno
        yield from row_view_uses(node, function)


def test_graphs_read_as_columns():
    """The library, the tests and the demos read graphs as columns.
    `benchmarks/` is left out: it counts with `len(g.nodes)` and
    `len(g.edges)` until its next change counts `len(g.ids)` and
    `len(g.endpoints)`, and the two properties stay for it until then."""
    paths = [*SOURCES.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "demos").glob("*.py")]
    assert len(paths) > 30
    found_uses = sorted((path.name, function, line) for path in paths
                        for function, line in row_view_uses(ast.parse(path.read_text(),
                                                                      str(path))))
    pin = ("test_scene_graph.py", "test_nodes_and_edges_are_the_columns")
    assert [use[:2] for use in found_uses] == [pin, pin], found_uses


def test_row_view_scan_sees_each_case():
    source = ("g.nodes\ng.edges\nNode(1)\nNodeFeatures(1)\nEdge(1)\n"
              "config.edges\nsample.graph_a.nodes\nclass Node:\n    pass\n"
              "from sgalign import Edge\nimport sgalign.scene_graph as NodeFeatures\n"
              "sgalign.Node\nx = Edge\ndef f():\n    return g.edges\n")
    assert list(row_view_uses(ast.parse(source))) == [
        ("<module>", line) for line in (1, 2, 3, 4, 5, 7, 8, 10, 11, 12, 13)] + [("f", 15)]

"""Every JSON file is decoded by `errors.read_json`, so a file that is not
UTF-8, not JSON or nested too deeply ends in one error naming it; the one
exception is the `meta` string inside a weights archive. Every npz archive
is opened by `errors.open_npz`, so bytes that are not a zip archive end in
one error too. These scans fail when library code calls `json.loads`,
`json.load` or `np.load` anywhere else. A last scan keeps the scene-graph
columns the one graph layout the library builds and reads: only
`scene_graph`, whose `nodes`/`edges` views make them, may read `.nodes` or
`.edges` or build `Node`/`NodeFeatures`/`Edge` objects."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "sgalign"


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


def row_view_uses(tree: ast.AST):
    """Line of each `.nodes`/`.edges` read and `Node`/`NodeFeatures`/`Edge`
    call under `tree`. `config.edges`, the edge-parameter section of a
    PipelineConfig, is not a graph's edges."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr == "nodes" or node.attr == "edges" and not (
                    isinstance(node.value, ast.Name) and node.value.id == "config")):
            yield node.lineno
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("Node", "NodeFeatures", "Edge")):
            yield node.lineno


def test_graphs_read_as_columns():
    found_uses = [(path.name, line) for path in sorted(SOURCES.glob("*.py"))
                  if path.name != "scene_graph.py"
                  for line in row_view_uses(ast.parse(path.read_text(), str(path)))]
    assert found_uses == []


def test_row_view_scan_sees_each_case():
    source = ("g.nodes\ng.edges\nNode(1)\nNodeFeatures(1)\nEdge(1)\n"
              "config.edges\nsample.graph_a.nodes\n")
    assert list(row_view_uses(ast.parse(source))) == [1, 2, 3, 4, 5, 7]

"""Every JSON file is decoded by `errors.read_json`, so a file that is not
UTF-8, not JSON or nested too deeply ends in one error naming it; the one
exception is the `meta` string inside a weights archive. Every npz archive
is opened by `errors.open_npz`, so bytes that are not a zip archive end in
one error too. These scans fail when library code calls `json.loads`,
`json.load` or `np.load` anywhere else. A last scan keeps the scene-graph
columns the one graph layout the pipeline reads: only `scene_graph` and
`synth` may read `.nodes` or build `Node`/`NodeFeatures` objects."""

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


def test_graphs_read_as_columns():
    allowed = {"scene_graph.py", "synth.py"}
    found_uses = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.name in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "nodes"
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("Node", "NodeFeatures")):
                found_uses.append((path.name, node.lineno))
    assert found_uses == []

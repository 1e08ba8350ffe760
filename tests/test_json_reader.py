"""Every JSON file is decoded by `errors.read_json`, so a file that is not
UTF-8, not JSON or nested too deeply ends in one error naming it. This
scan fails when library code calls `json.loads` or `json.load` anywhere
else; the one exception is the `meta` string inside a weights archive."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "sgalign"
ALLOWED = {("errors.py", "read_json"), ("encoder.py", "_read_weights")}


def json_decodes(tree: ast.AST, function: str = "<module>"):
    """(function, line) of each json.load/json.loads call, or of an import
    of either name, under `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from json_decodes(node, node.name)
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                and node.func.attr in ("load", "loads")):
            yield function, node.lineno
        if (isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(alias.name in ("load", "loads") for alias in node.names)):
            yield function, node.lineno
        yield from json_decodes(node, function)


def test_one_json_reader():
    found = {(path.name, function, line) for path in sorted(SOURCES.glob("*.py"))
             for function, line in json_decodes(ast.parse(path.read_text(), str(path)))}
    assert {(name, function) for name, function, _ in found} == ALLOWED, sorted(found)
    assert len(found) == len(ALLOWED), sorted(found)

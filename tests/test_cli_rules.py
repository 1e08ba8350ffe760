"""Scans that keep each rule of the command line in one place: the library
writes its stderr lines itself (no `logging`), a flag's bound is checked by
its argparse type alone (no `cmd_*` body raises UsageError), each list of
allowed values is written once, and the name of a database's index file
appears only in `retrieval`."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "sgalign"

# Each allowed-value list and the one module that defines it.
ALLOWED_VALUES = {frozenset({"mnn", "mcf"}): "allocator.py",
                  frozenset({"direct", "weighted"}): "config.py",
                  frozenset({"f2s", "s2s"}): "synth.py"}


def parsed() -> dict[str, ast.AST]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SOURCES.glob("*.py"))}


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]


def raised_names(function: ast.AST):
    """The name of each exception class a `raise X(...)` or `raise X`
    under `function` names."""
    for node in ast.walk(function):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def string_lists(tree: ast.AST):
    """(values, line) of each tuple, list or set literal of two or more
    string constants under `tree`."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Tuple, ast.List, ast.Set)) and len(node.elts) >= 2
                and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in node.elts)):
            yield frozenset(e.value for e in node.elts), node.lineno


def test_no_logging():
    found = [name for name, tree in parsed().items() if "logging" in imported_modules(tree)]
    assert found == []


def test_no_command_raises_usage_error():
    tree = parsed()["cli.py"]
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 8
    found = [(f.name, name) for f in commands for name in raised_names(f)
             if name == "UsageError"]
    assert found == []


def test_each_allowed_value_list_defined_once():
    found = {values: [(name, line) for name, tree in parsed().items()
                      for got, line in string_lists(tree) if got == values]
             for values in ALLOWED_VALUES}
    for values, module in ALLOWED_VALUES.items():
        assert [name for name, _ in found[values]] == [module], (sorted(values), found[values])


def test_index_file_named_in_retrieval_only():
    found = [(name, node.lineno) for name, tree in parsed().items() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == "index.json"]
    assert [name for name, _ in found] == ["retrieval.py"], found


def test_scans_see_each_case():
    source = ("import logging\nfrom logging import getLogger\nimport os.path\n"
              "def cmd_x():\n    raise UsageError('no')\n    raise ValueError\n"
              "A = ('mnn', 'mcf')\nB = ['direct', 'weighted']\nC = {'f2s', 's2s'}\n"
              "D = ('x',)\nE = ('a', 1)\n")
    tree = ast.parse(source)
    assert list(imported_modules(tree)) == ["logging", "logging", "os"]
    assert list(raised_names(tree)) == ["UsageError", "ValueError"]
    assert list(string_lists(tree)) == [(frozenset({"mnn", "mcf"}), 7),
                                        (frozenset({"direct", "weighted"}), 8),
                                        (frozenset({"f2s", "s2s"}), 9)]

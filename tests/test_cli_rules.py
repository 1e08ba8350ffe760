"""Scans that keep each rule of the command line in one place: the library
writes its stderr lines itself (no `logging`), a flag's bound is checked by
its argparse type alone (no `cmd_*` body raises UsageError), each list of
allowed values is written once, the name of a database's index file
appears only in `retrieval`, a numeric bound is stated in `errors` alone
(errors.BOUNDS), but for the composite rules listed here, an argument of
the wrong type is refused in `errors` alone (errors.check_type), and each
shared primitive has one copy: a vector norm is taken only where no shared
function (`scene_graph.point_distances`, `matcher.unit_rows`) serves, only
`errors` converts values to float arrays under a refusal, and one runner
(`encoder.run_parts`) starts threads. The tests start child processes in
the files of CHILD_FILES alone, and state a type refusal in the refusal
table (test_contract.py) alone."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCES = TESTS.parent / "src" / "sgalign"

# Each allowed-value list and the one module that defines it.
ALLOWED_VALUES = {frozenset({"mnn", "mcf"}): "allocator.py",
                  frozenset({"direct", "weighted"}): "config.py",
                  frozenset({"f2s", "s2s"}): "synth.py"}

# The text of a refusal that states a numeric bound.
BOUND_TEXT = re.compile(r"must be (>=|>|finite|in [\[(]|even)")
# The numeric rules written by hand outside `errors`, as (module, scope,
# field): each ties a bound to another value, so no BOUNDS rule states it.
# The MatcherParams logit span, cap_max "or None" and layers in
# [0, MAX_LAYERS]. The other composite rules do not read as BOUND_TEXT: the
# McfParams cost bounds and the dustbin_logit span ("must be within"),
# d_model divisible by heads, SynthConfig.n_objects and load_sample's
# "overlap must be a number in [0, 1]".
COMPOSITE_RULES = {("allocator.py", "McfParams.__post_init__", "cap_max"),
                   ("encoder.py", "EncoderConfig.__post_init__", "layers"),
                   ("matcher.py", "MatcherParams.__post_init__", "temperature")}

# The text of the refusal of an argument's type, "<name> is not a(n)
# <Class>, got <type>", with "{}" for each value that an f-string formats.
TYPE_TEXT = re.compile(r"is not (an?|\{\}) (\w+|\{\}), got")


# The functions that take np.linalg.norm, as (module, function). Point
# distances go through `scene_graph.point_distances` and row normalisation
# through `matcher.unit_rows`. The encoder normalises its outputs itself,
# because its refusals name the graph and node; the others norm one vector.
NORM_CALLS = {("matcher.py", "unit_rows"), ("encoder.py", "init_weights"),
              ("encoder.py", "_project"), ("encoder.py", "_class_tokens"),
              ("losses.py", "triplet_loss"), ("losses.py", "hard_negative_mine"),
              ("registration.py", "registration_error"), ("synth.py", "_noisy_unit"),
              ("synth.py", "_random_rotation")}


# The test files that start child processes, and what each uses: `run_cli`
# runs `python -m sgalign.cli` where a test is about the process itself, and
# `subprocess` runs other commands (imports in a fresh interpreter, demos,
# OpenBLAS kernel sets, peak memory). Every other CLI test calls `run_main`.
CHILD_FILES = {"conftest.py": {"run_cli", "subprocess"}, "test_acceptance.py": {"run_cli"},
               "test_config_cli.py": {"run_cli"}, "test_encoder.py": {"subprocess"},
               "test_imports.py": {"subprocess"}, "test_demos.py": {"subprocess"},
               "test_benchmarks_import.py": {"subprocess"}}

# The test files that state TYPE_TEXT: the refusal table and this file's cases.
TYPE_TEXT_FILES = {"test_contract.py", "test_cli_rules.py"}


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


def bound_texts(tree: ast.AST, scope: str = ""):
    """(scope, first word) of each string constant under `tree`, the
    constant parts of f-strings included, that matches BOUND_TEXT; the
    scope is the dotted name of the enclosing classes and functions."""
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and BOUND_TEXT.search(node.value)):
            yield scope, node.value.split()[0]
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield from bound_texts(node, f"{scope}.{node.name}".lstrip("."))
        else:
            yield from bound_texts(node, scope)


def type_texts(tree: ast.AST):
    """The line of each string constant or f-string under `tree` that
    matches TYPE_TEXT, each formatted value of an f-string read as "{}"."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.JoinedStr):
            text = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                           for part in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            yield from type_texts(node)
            continue
        if TYPE_TEXT.search(text):
            yield node.lineno


def norm_calls(tree: ast.AST, scope: str = ""):
    """The innermost enclosing function of each `<x>.linalg.norm` call
    under `tree`."""
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "norm" and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "linalg"):
            yield scope
        yield from norm_calls(node, node.name if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)


def float_converters(tree: ast.AST):
    """The line of each `try` under `tree` that converts a value with
    `dtype=float` and raises an exception when that fails."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        converts = any(isinstance(n, ast.keyword) and n.arg == "dtype"
                       and isinstance(n.value, ast.Name) and n.value.id == "float"
                       for part in node.body for n in ast.walk(part))
        refuses = any(any(raised_names(handler)) for handler in node.handlers)
        if converts and refuses:
            yield node.lineno


def thread_sites(tree: ast.AST):
    """The line of each `threading.Thread(...)` or `Thread(...)` call under `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr == "Thread"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "threading"
                or isinstance(node.func, ast.Name) and node.func.id == "Thread"):
            yield node.lineno


def child_names(tree: ast.AST):
    """`run_cli` or `subprocess` for each import, definition or read of
    that name under `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module, *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.FunctionDef):
            names = [node.name]
        else:
            continue
        yield from (name for name in names if name in ("run_cli", "subprocess"))


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


def test_numeric_bounds_stated_in_errors_only():
    found = {(name, scope, field) for name, tree in parsed().items() if name != "errors.py"
             for scope, field in bound_texts(tree)}
    assert found == COMPOSITE_RULES


def test_type_refusal_written_in_errors_only():
    found = [(name, line) for name, tree in parsed().items() for line in type_texts(tree)]
    assert [name for name, _ in found] == ["errors.py"], found


def test_each_primitive_has_one_copy():
    trees = parsed()
    norms = {(name, scope) for name, tree in trees.items() for scope in norm_calls(tree)}
    assert norms == NORM_CALLS
    converters = [(name, line) for name, tree in trees.items()
                  for line in float_converters(tree)]
    assert [name for name, _ in converters] == ["errors.py"], converters


def test_one_thread_runner():
    trees = parsed()
    assert [name for name, tree in trees.items() if "concurrent" in imported_modules(tree)] == []
    sites = [(name, line) for name, tree in trees.items() for line in thread_sites(tree)]
    assert [name for name, _ in sites] == ["encoder.py"], sites


def test_children_started_in_allowed_files_only():
    found = {path.name: set(child_names(ast.parse(path.read_text(), str(path))))
             for path in sorted(TESTS.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == CHILD_FILES


def test_type_refusal_tested_in_the_table_only():
    found = {path.name for path in TESTS.glob("*.py")
             if any(type_texts(ast.parse(path.read_text(), str(path))))}
    assert found == TYPE_TEXT_FILES


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
    bounds = ast.parse("class P:\n    def f(self, n):\n"
                       "        raise E(f'n must be >= 1, got {n}')\n"
                       "        raise E(f'n must be an integer, got {n}')\n")
    assert list(bound_texts(bounds)) == [("P.f", "n")]
    types = ast.parse("def f(x, k):\n    raise E(f'x is not a Graph, got {type(x).__name__}')\n"
                      "    raise E(f'{k} is not {a} {c}, ' f'got {t}')\n"
                      "    raise E('x is not an Array, got int')\n"
                      "    raise E('x is not a(n) <cls>, got <type>')\n"
                      "    raise E(f'{k} is not a (id, Graph) pair, got {x}')\n"
                      "    rows = [(None, 'f', {'x': 1}, 'x is not a Graph, got int')]\n")
    assert list(type_texts(types)) == [2, 3, 4, 7]
    copies = ast.parse("import numpy as np\n"
                       "def f(a, b):\n    return np.linalg.norm(a - b)\n"
                       "def g(v):\n    def h():\n        return numpy.linalg.norm(v)\n"
                       "    return np.linalg.vector_norm(v), h\n"
                       "def k(v):\n    try:\n        return np.asarray(v, dtype=float)\n"
                       "    except ValueError as exc:\n        raise InvalidInputError('no')\n"
                       "    try:\n        return np.asarray(v, dtype=float)\n"
                       "    except ValueError:\n        pass\n"
                       "    try:\n        return np.asarray(v)\n"
                       "    except ValueError:\n        raise InvalidInputError('no')\n"
                       "    try:\n        return np.asarray(v, dtype=float)\n"
                       "    except ValueError:\n        raise WeightsFormatError('no')\n")
    assert list(norm_calls(copies)) == ["f", "h"]
    assert list(float_converters(copies)) == [9, 21]
    threads = ast.parse("import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
                        "from threading import Thread\na = threading.Thread(target=f)\n"
                        "b = Thread(target=f)\nc = threading.Timer(1, f)\n")
    assert list(imported_modules(threads)) == ["threading", "concurrent", "threading"]
    assert list(thread_sites(threads)) == [4, 5]
    children = ast.parse("import subprocess as sp\nfrom subprocess import run\n"
                         "from conftest import run_cli, run_main\ndef run_cli():\n"
                         "    return subprocess.run(run_main, 'run_cli')\n")
    assert sorted(child_names(children)) == ["run_cli"] * 2 + ["subprocess"] * 3

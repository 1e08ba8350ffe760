"""Every JSON file is decoded by `errors.read_json`, so a file that is not
UTF-8, not JSON or nested too deeply ends in one error naming it; the one
exception is the `meta` string inside a weights archive. Every npz archive
is opened by `errors.open_npz`, so bytes that are not a zip archive end in
one error too. These scans fail when library code calls `json.loads`,
`json.load`, `orjson.loads` or `np.load` anywhere else. A last scan keeps
the scene-graph columns the one graph layout that the library, its tests
and its demos build and read: none of them defines, imports or uses a
`Node`, `NodeFeatures` or `Edge` row type, and only one pin test reads
`.nodes` or `.edges`.

`read_json` decodes with orjson where that gives json's document. The
property tests hold it to `json.loads` of the file's text, the reader it
replaced: the same document in value, type, key order and float bits, or
the same refusal line, on the literals where the two parsers differ."""

import ast
import json
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sgalign import errors
from sgalign.config import PipelineConfig
from sgalign.errors import InvalidInputError, read_json
from sgalign.synth import SynthConfig, make_sample, save_sample

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
    calls = found({"json", "orjson"}, {"load", "loads"})
    assert {(name, function) for name, function, _ in calls} == allowed, sorted(calls)
    # read_json: orjson.loads and json.loads; _read_weights: json.loads
    assert len(calls) == len(allowed) + 1, sorted(calls)


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


# Derandomized, so every run of the suite draws the same examples.
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=400,
                    suppress_health_check=[HealthCheck.too_slow])


def json_reference(path: Path):
    """The reader that read_json replaced: json.loads of the file's text."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"{path}: unreadable JSON: {exc}") from exc


def outcome(reader, path: Path):
    try:
        return "document", reader(path)
    except InvalidInputError as exc:
        return "refusal", str(exc)


def same(a, b) -> bool:
    """a and b are equal, of the same types, with dict keys in the same
    order and floats of the same bits (NaN and -0.0 included)."""
    pairs = [(a, b)]
    while pairs:  # no recursion: documents nest deeper than the stack
        a, b = pairs.pop()
        if type(a) is not type(b):
            return False
        if type(a) is float:
            if struct.pack("<d", a) != struct.pack("<d", b):
                return False
        elif type(a) is list:
            if len(a) != len(b):
                return False
            pairs += zip(a, b)
        elif type(a) is dict:
            if list(a) != list(b):
                return False
            pairs += ((a[k], b[k]) for k in a)
        elif a != b:
            return False
    return True


def assert_reads_as_json(path: Path, data: bytes) -> None:
    path.write_bytes(data)
    got, want = outcome(read_json, path), outcome(json_reference, path)
    assert got[0] == want[0] and (same(got[1], want[1]) if got[0] == "document"
                                  else got[1] == want[1]), (data[:300], got, want)


FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
DECIMALS = st.builds(
    lambda sign, whole, fraction, exponent: sign + whole + fraction + exponent,
    st.sampled_from(["", "-"]),
    st.one_of(st.just("0"), st.from_regex(r"[1-9][0-9]{0,39}", fullmatch=True)),
    st.one_of(st.just(""), st.from_regex(r"\.[0-9]{1,40}", fullmatch=True)),
    st.one_of(st.just(""), st.builds(lambda e, sign, zeros, n: f"{e}{sign}{zeros}{abs(n)}"
                                                        if n >= 0 else f"{e}-{zeros}{-n}",
                                     st.sampled_from("eE"), st.sampled_from(["", "+"]),
                                     st.sampled_from(["", "0", "00"]), st.integers(-340, 320))))
INTEGERS = st.one_of(
    st.integers().map(str),
    st.builds(lambda base, offset, sign: str(sign * (base + offset)),
              st.sampled_from([2 ** 63, 2 ** 64]), st.integers(-3, 3), st.sampled_from([1, -1])))
CONSTANTS = st.sampled_from(["NaN", "Infinity", "-Infinity", "true", "false", "null"])
STRINGS = st.lists(st.one_of(
    st.characters(blacklist_categories=("Cs",), blacklist_characters='"\\'),
    st.sampled_from(["\\n", "\\t", "\\/", "\\\\", '\\"', "\\u00e9", "\\u0000", "\\ud800",
                     "\\udfff", "\\ud83d", "\\ud83d\\ude00", "\\x", "0" * 19, "[", "]"])),
    max_size=6).map(lambda pieces: '"' + "".join(pieces) + '"')
SCALARS = st.one_of(FLOATS, DECIMALS, INTEGERS, CONSTANTS, STRINGS)
# "a" twice, and once as an escape: duplicate keys.
KEYS = st.sampled_from(['"a"', '"b"', '"id"', '"\\u0061"'])
SPACE = st.sampled_from(["", " ", "\n", "\t", "\r\n", "\r", "  "])


def json_texts(children):
    sep = st.builds(lambda before, after: before + "," + after, SPACE, SPACE)
    return st.one_of(
        st.builds(lambda items, sep: "[" + sep.join(items) + "]", st.lists(children, max_size=5),
                  sep),
        st.builds(lambda pairs, sep: "{" + sep.join(f"{k}:{v}" for k, v in pairs) + "}",
                  st.lists(st.tuples(KEYS, children), max_size=5), sep))


DOCUMENTS = st.builds(lambda before, doc, after: before + doc + after, SPACE,
                      st.recursive(SCALARS, json_texts, max_leaves=12), SPACE)
# Damage that only json.loads reports: a BOM, bytes that are not UTF-8 (an
# encoded surrogate among them), a cut, trailing text. Half the documents
# stay whole.
DAMAGE = st.sampled_from([lambda b: b] * 6 + [lambda b: b"\xef\xbb\xbf" + b,
                          lambda b: b[:len(b) // 2], lambda b: b + b"\xff", lambda b: b + b" x",
                          lambda b: b.replace(b"0", b"\xed\xa0\x80", 1)])


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("read_json") / "doc.json"


class TestReadsAsJson:
    @SETTINGS
    @given(text=DOCUMENTS, damage=DAMAGE)
    def test_documents(self, json_path, text, damage):
        assert_reads_as_json(json_path, damage(text.encode("utf-8")))

    @SETTINGS
    @given(literal=st.one_of(FLOATS, DECIMALS, INTEGERS, CONSTANTS))
    def test_number_literals(self, json_path, literal):
        assert_reads_as_json(json_path, literal.encode())
        assert_reads_as_json(json_path, f'{{"v": [{literal}, -{literal}]}}'.encode())

    @SETTINGS
    @given(depth=st.one_of(st.integers(1, 2 * errors._FAST_DEPTH), st.sampled_from([5000, 100_000])),
           width=st.integers(0, 300), bracket=st.sampled_from(["[", '{"a":']),
           in_string=st.sampled_from(["", "[", "]", '\\"]\\"', "\\\\]"]))
    def test_nesting(self, json_path, depth, width, bracket, in_string):
        """Nesting on both sides of _FAST_DEPTH and past json's recursion
        limit, around a list of `width` small lists, so that there are more
        opening brackets than _FAST_DEPTH at any depth. A string of `depth`
        brackets, escaped quotes or backslashes may come first, which the
        nesting bound must not count, or count in the safe direction: 10^5
        levels overflow orjson's stack."""
        close = "]" if bracket == "[" else "}"
        nest = bracket * depth + "[" + ",".join(["[1]"] * width) + "]" + close * depth
        text = "[" + ",".join([f'"{in_string * depth}"'] * bool(in_string) + [nest]) + "]"
        assert_reads_as_json(json_path, text.encode())


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pair_files")
    save_sample(make_sample("s2s", SynthConfig(seed=5, n_objects=(60, 60))), root / "pair")
    (root / "config.json").write_text(json.dumps(PipelineConfig().to_dict(), indent=2))
    return sorted(root.rglob("*.json"))


def test_graph_files_skip_json_loads(pair_files, monkeypatch):
    """Graph files, gt.json and a config decode through orjson alone: the
    checks that send a document to json.loads pass them, among them a graph
    with more opening brackets than _FAST_DEPTH."""
    documents = {path: json.loads(path.read_text()) for path in pair_files}
    assert any(path.read_bytes().count(b"[") > errors._FAST_DEPTH for path in pair_files)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")
    monkeypatch.setattr(json, "loads", refuse)
    for path, doc in documents.items():
        assert same(read_json(path), doc), path

"""Property tests of the CLI parse boundary.

Valid graph, gt.json, config, weights and database-index documents are
mutated (a key dropped, a value of another type, a non-finite number, a
value wrapped in a list, a huge finite number), as are the float arrays of
the weights and database npz archives (huge finite entries), and handed to
`sgalign.cli.main` in process; the bytes of the JSON files are also damaged
beyond decoding. Every run must end in exit 0, 1 or 2 without an escaping
exception or a traceback: on success stdout holds exactly one JSON
document, on error stdout is empty and stderr holds one error line.
`validate` may also exit 2 with its violations document on stdout.
"""

import copy
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import rows_graph, run_main
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sgalign.config import PipelineConfig
from sgalign.encoder import (EncoderConfig, encode_graph, encode_graphs, encode_nodes,
                             init_weights, save_weights)
from sgalign.retrieval import build_database, save_database
from sgalign.synth import SynthConfig, generate_scene, make_sample, save_sample

# Derandomized, so every run of the suite draws the same examples.
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                    suppress_health_check=[HealthCheck.too_slow])

SMALL = EncoderConfig(pe_dim=4, heads=1, layers=1, d_model=8, gate_hidden=2,
                      geo_hidden=3, feature_dims=(3, 4))
# Values that replace a field: other types, out-of-range integers (format
# versions 1 and 2 among them), non-finite numbers.
REPLACEMENTS = [None, True, "x", 1.5, -1, 0, 1, 2, 2 ** 64, float("nan"), float("inf"),
                -float("inf"), [], {}, [[1.0, 2.0]]]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_weights(init_weights(SMALL, seed=0), root / "w.npz")
    synth = SynthConfig(seed=3, n_objects=(4, 6), feature_dims=SMALL.feature_dims)
    save_sample(make_sample("f2s", synth), root / "pair")
    (root / "config.json").write_text(json.dumps(PipelineConfig().to_dict()))
    weights = init_weights(SMALL, seed=0)
    scenes = [(f"s{k}", generate_scene(SynthConfig(
        seed=k, n_objects=(3, 4), feature_dims=SMALL.feature_dims))[0]) for k in range(2)]
    save_database(build_database(scenes, weights), root / "db", weights)
    return root


def document(path: Path):
    return json.loads(path.read_text())


def paths(doc, prefix=()):
    """The path of `doc` and of every value inside it."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """`doc` with one or two mutations at drawn paths."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(paths(doc))))
        op = draw(st.sampled_from(["drop", "replace", "wrap"]))
        if not path:
            doc = [doc] if op == "wrap" else copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "drop":
            del parent[key]
        elif op == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        else:
            parent[key] = [parent[key]]
    return doc


def strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def check(run, command: str) -> None:
    assert run.returncode in (0, 1, 2), run
    assert "Traceback" not in run.stderr
    errors = [line for line in run.stderr.splitlines() if not line.startswith("WARNING ")]
    if run.stdout:
        assert run.stdout.endswith("\n") and run.stdout.count("\n") == 1, run.stdout
        doc = strict_json(run.stdout)
        assert errors == [], run.stderr
        assert run.returncode == 0 or (command == "validate" and run.returncode == 2
                                       and doc["violations"]), run
    else:
        assert run.returncode != 0, run
        assert len(errors) == 1 and errors[0].startswith("ERROR "), run.stderr


def write(directory: Path, name: str, doc) -> Path:
    path = directory / name
    path.write_text(json.dumps(doc))
    return path


class TestMutatedDocuments:
    @pytest.fixture(scope="class")
    def graph(self, files):
        return document(files / "pair" / "a.json")

    @pytest.fixture(scope="class")
    def gt(self, files):
        return document(files / "pair" / "gt.json")

    @pytest.fixture(scope="class")
    def config(self, files):
        return document(files / "config.json")

    @pytest.fixture(scope="class")
    def index(self, files):
        return document(files / "db" / "index.json")

    @SETTINGS
    @given(data=st.data())
    def test_graph(self, files, graph, data):
        doc = data.draw(mutated(graph))
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "g.json", doc)
            check(run_main("validate", path), "validate")
            check(run_main("align", path, files / "pair" / "b.json",
                           "--weights", files / "w.npz"), "align")

    @SETTINGS
    @given(data=st.data())
    def test_gt(self, files, gt, data):
        doc = data.draw(mutated(gt))
        with tempfile.TemporaryDirectory() as tmp:
            pair = Path(tmp) / "pairs" / "p0"
            pair.mkdir(parents=True)
            for name in ("a.json", "b.json"):
                (pair / name).write_bytes((files / "pair" / name).read_bytes())
            write(pair, "gt.json", doc)
            check(run_main("eval", "--pairs", pair.parent, "--weights", files / "w.npz"),
                  "eval")

    @SETTINGS
    @given(data=st.data())
    def test_config(self, files, config, data):
        doc = data.draw(mutated(config))
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "c.json", doc)
            check(run_main("align", files / "pair" / "a.json", files / "pair" / "b.json",
                           "--config", path, "--weights", files / "w.npz"), "align")

    @SETTINGS
    @given(data=st.data())
    def test_database_index(self, files, index, data):
        doc = data.draw(mutated(index))
        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "db"
            db.mkdir()
            (db / "embeddings.npz").write_bytes((files / "db" / "embeddings.npz").read_bytes())
            write(db, "index.json", doc)
            check(run_main("retrieve", "--query", files / "pair" / "a.json", "--db", db,
                           "--k", "2", "--weights", files / "w.npz"), "retrieve")


@st.composite
def damaged(draw, data: bytes):
    """`data`, a JSON document in ASCII, made undecodable: cut at a drawn
    offset, the top bit of one drawn byte flipped (never UTF-8 after ASCII),
    a \\xff prefix, or wrapped in 10^5 brackets."""
    op = draw(st.sampled_from(["truncate", "flip", "prefix", "wrap"]))
    if op == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if op == "flip":
        k = draw(st.integers(0, len(data) - 1))
        return data[:k] + bytes([data[k] ^ 0x80]) + data[k + 1:]
    if op == "prefix":
        return b"\xff" + data
    return b"[" * 10 ** 5 + data + b"]" * 10 ** 5


def check_refused(run) -> None:
    assert run.returncode in (1, 2), run
    assert run.stdout == ""
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("ERROR "), run


class TestDamagedBytes:
    """Graph, gt.json, config and index.json files whose bytes no JSON
    reader accepts are refused with one stderr line."""

    @SETTINGS
    @given(data=st.data())
    def test_graph(self, files, data):
        raw = data.draw(damaged((files / "pair" / "a.json").read_bytes()))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.json"
            path.write_bytes(raw)
            check_refused(run_main("validate", path))

    @SETTINGS
    @given(data=st.data())
    def test_gt(self, files, data):
        raw = data.draw(damaged((files / "pair" / "gt.json").read_bytes()))
        with tempfile.TemporaryDirectory() as tmp:
            pair = Path(tmp) / "pairs" / "p0"
            pair.mkdir(parents=True)
            for name in ("a.json", "b.json"):
                (pair / name).write_bytes((files / "pair" / name).read_bytes())
            (pair / "gt.json").write_bytes(raw)
            check_refused(run_main("eval", "--pairs", pair.parent,
                                   "--weights", files / "w.npz"))

    @SETTINGS
    @given(data=st.data())
    def test_config(self, files, data):
        raw = data.draw(damaged((files / "config.json").read_bytes()))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            path.write_bytes(raw)
            check_refused(run_main("align", files / "pair" / "a.json",
                                   files / "pair" / "b.json", "--config", path,
                                   "--weights", files / "w.npz"))

    @SETTINGS
    @given(data=st.data())
    def test_database_index(self, files, data):
        raw = data.draw(damaged((files / "db" / "index.json").read_bytes()))
        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "db"
            db.mkdir()
            (db / "embeddings.npz").write_bytes((files / "db" / "embeddings.npz").read_bytes())
            (db / "index.json").write_bytes(raw)
            check_refused(run_main("retrieve", "--query", files / "pair" / "a.json",
                                   "--db", db, "--k", "2", "--weights", files / "w.npz"))


# Finite numbers far beyond the data's scale, whose squares, sums or
# products overflow float64, coordinates at and beyond the +-1e150 limit of
# positions, and a subnormal that underflows.
HUGE = [1e300, -1e300, 1.7976931348623157e308, -1e200, 1e155, 1e150, -1e150,
        9.9e149, 1e-310]


def numbers(doc, prefix=()):
    """The path of every number (not bool) inside `doc`."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from numbers(value, prefix + (key,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield prefix


@st.composite
def with_huge(draw, doc, where):
    """`doc` with one to three of its numbers whose path `where` accepts
    replaced by drawn HUGE values."""
    doc = copy.deepcopy(doc)
    places = [path for path in numbers(doc) if where(path)]
    for path in draw(st.lists(st.sampled_from(places), min_size=1, max_size=3)):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.sampled_from(HUGE))
    return doc


def check_quiet(run, command: str) -> None:
    """`check`, and no numpy warning: a refusal is exactly one stderr line."""
    check(run, command)
    assert "Warning" not in run.stderr, run.stderr
    if not run.stdout:
        assert len(run.stderr.splitlines()) == 1, run.stderr


def graph_number(path) -> bool:
    """A feature entry, a position coordinate or an edge distance."""
    return (path[0] == "nodes" and path[2] in ("position", "f_vl", "f_t", "f_g")
            or path[0] == "edges" and path[2] == 2)


class TestHugeNumbers:
    """Huge finite numbers inside otherwise valid documents end in a result
    or in one error line, never in numpy warnings."""

    @SETTINGS
    @given(data=st.data())
    def test_graph(self, files, data):
        doc = data.draw(with_huge(document(files / "pair" / "a.json"), graph_number))
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "g.json", doc)
            validate = run_main("validate", path)
            check_quiet(validate, "validate")
            align = run_main("align", path, files / "pair" / "b.json",
                             "--weights", files / "w.npz")
            check_quiet(align, "align")
            # What validate accepts, align runs on.
            assert validate.returncode != 0 or align.returncode == 0, align

    @SETTINGS
    @given(data=st.data())
    def test_gt(self, files, data):
        doc = data.draw(with_huge(document(files / "pair" / "gt.json"),
                                  lambda path: path[0] in ("gt_rotation", "gt_translation")))
        with tempfile.TemporaryDirectory() as tmp:
            pair = Path(tmp)
            for name in ("a.json", "b.json"):
                (pair / name).write_bytes((files / "pair" / name).read_bytes())
            write(pair, "gt.json", doc)
            run = run_main("register", "--pair", pair, "--weights", files / "w.npz")
            check_quiet(run, "register")
            assert run.returncode == 0 or "gt.json" in run.stderr, run.stderr

    @SETTINGS
    @given(data=st.data())
    def test_config(self, files, data):
        doc = data.draw(with_huge(document(files / "config.json"), lambda path: True))
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), "c.json", doc)
            check_quiet(run_main("align", files / "pair" / "a.json", files / "pair" / "b.json",
                                 "--config", path, "--weights", files / "w.npz"), "align")


def with_huge_entries(data, array: np.ndarray) -> np.ndarray:
    """A copy of the float `array` with one to three drawn entries replaced
    by drawn HUGE values."""
    out = array.copy()
    flat = out.reshape(-1)
    for k in data.draw(st.lists(st.integers(0, flat.size - 1), min_size=1, max_size=3)):
        flat[k] = data.draw(st.sampled_from(HUGE))
    return out


class TestHugeDatabaseArrays:
    """Huge finite values in the float arrays of a saved database end in a
    ranking or in one error line; embeddings that are not unit rows are
    refused with the archive and the scene named."""

    @pytest.fixture(scope="class")
    def database(self, tmp_path_factory):
        """A saved database whose scenes have edges, and its archive."""
        db = tmp_path_factory.mktemp("db") / "db"
        weights = init_weights(SMALL, seed=0)
        scenes = [(f"s{k}", generate_scene(SynthConfig(
            seed=k, n_objects=(8, 10), feature_dims=SMALL.feature_dims))[0]) for k in range(2)]
        save_database(build_database(scenes, weights), db, weights)
        with np.load(db / "embeddings.npz") as z:
            archive = {name: z[name] for name in z.files}
        assert len(archive["edge_distances"])
        return db, archive

    @SETTINGS
    @given(data=st.data())
    def test_database(self, files, database, data):
        saved, archive = database
        entries = dict(archive)
        name = data.draw(st.sampled_from(
            ["positions", "f_vl", "edge_distances", "globals", "nodes"]))
        entries[name] = with_huge_entries(data, entries[name])
        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "db"
            db.mkdir()
            (db / "index.json").write_bytes((saved / "index.json").read_bytes())
            with open(db / "embeddings.npz", "wb") as fh:
                np.savez(fh, **entries)
            run = run_main("retrieve", "--query", files / "pair" / "a.json", "--db", db,
                           "--k", "2", "--weights", files / "w.npz")
            check_quiet(run, "retrieve")
            if name in ("globals", "nodes") and (np.abs(entries[name]) > 1).any():
                assert run.returncode == 2, run
                assert "embeddings.npz: scene 's" in run.stderr, run.stderr


# Changes to one tensor entry of a weights archive.
TENSOR_EDITS = ["none", "drop", "extra", "shape", "nan", "int", "text", "object"]


class TestMutatedWeights:
    @pytest.fixture(scope="class")
    def archive(self, files):
        with np.load(files / "w.npz") as z:
            return {name: z[name] for name in z.files}

    @SETTINGS
    @given(data=st.data())
    def test_weights(self, files, archive, data):
        entries = dict(archive)
        meta = data.draw(mutated(json.loads(str(entries["meta"]))))
        entries["meta"] = np.array(json.dumps(meta))
        name = data.draw(st.sampled_from(sorted(n for n in entries if n != "meta")))
        edit = data.draw(st.sampled_from(TENSOR_EDITS))
        if edit == "drop":
            del entries[name]
        elif edit == "extra":
            entries["bogus"] = np.ones((2, 2))
        elif edit == "shape":
            entries[name] = entries[name][..., :1]
        elif edit == "nan":
            entries[name] = np.full_like(entries[name], np.nan)
        elif edit == "int":
            entries[name] = entries[name].astype(np.int64)
        elif edit == "text":
            entries[name] = np.array("x")
        elif edit == "object":
            entries[name] = np.array([None, 1], dtype=object)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.npz"
            with open(path, "wb") as fh:
                np.savez(fh, **entries)
            check(run_main("encode", files / "pair" / "a.json", "--weights", path), "encode")

    @SETTINGS
    @given(data=st.data())
    def test_huge_tensor_entries(self, files, archive, data):
        entries = dict(archive)
        name = data.draw(st.sampled_from(sorted(n for n in entries if n != "meta")))
        entries[name] = with_huge_entries(data, entries[name])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.npz"
            with open(path, "wb") as fh:
                np.savez(fh, **entries)
            check_quiet(run_main("encode", files / "pair" / "a.json", "--weights", path),
                        "encode")

    @pytest.mark.parametrize("kind", ["json_v1", "npy", "empty", "text"])
    def test_refused_file_kinds(self, files, archive, tmp_path, kind):
        path = tmp_path / "w"
        if kind == "json_v1":
            meta = json.loads(str(archive["meta"]))
            path.write_text(json.dumps({**meta, "format_version": 1, "tensors": {
                name: arr.tolist() for name, arr in archive.items() if name != "meta"}}))
        elif kind == "npy":
            np.save(tmp_path / "w.npy", archive["cls_token"])
            path = tmp_path / "w.npy"
        else:
            path.write_text("" if kind == "empty" else "weights")
        run = run_main("encode", files / "pair" / "a.json", "--weights", path)
        check(run, "encode")
        assert run.returncode == 2 and "not an npz weights archive" in run.stderr


# ---------------------------------------------------------------------------
# The encoder is batch-invariant: a graph's rows and global embedding do not
# depend on the other graphs of its batch.


@st.composite
def encoder_batches(draw, feature_dims):
    """1-4 graphs of 0-12 nodes. Dense spans give high, uneven degrees and
    far-flung ones isolated nodes; a graph of 0 or 1 node has no active row,
    and one of 2 nodes has 0 or 2."""
    d_vl, d_t = feature_dims
    graphs = []
    for g in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 12))
        span = draw(st.sampled_from([0.5, 2.0, 5.0, 1000.0]))
        n_max = draw(st.integers(1, 8))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        rows = [(rng.uniform(0.0, span, 3), rng.standard_normal(d_vl),
                 rng.standard_normal(d_t), rng.uniform(0.1, 1.0, 3)) for _ in range(n)]
        graphs.append(rows_graph(rows, feature_dims, f"g{g}", n_max=n_max))
    return graphs


class TestBatchInvariance:
    @SETTINGS
    @given(data=st.data())
    def test_rows_and_globals_equal_one_graph_calls(self, small_weights, data):
        graphs = data.draw(encoder_batches(small_weights.config.feature_dims))
        nodes = encode_nodes(graphs, small_weights)
        full = encode_graphs(graphs, small_weights)
        for graph, emb, (full_emb, glob) in zip(graphs, nodes, full):
            [one] = encode_nodes([graph], small_weights)
            one_emb, one_glob = encode_graph(graph, small_weights)
            assert emb.tobytes() == one.tobytes() == full_emb.tobytes() == one_emb.tobytes()
            assert glob.tobytes() == one_glob.tobytes()

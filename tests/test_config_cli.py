import contextlib
import csv
import dataclasses
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli, run_main, with_edges

from sgalign import cli, retrieval
from sgalign.allocator import McfParams, MnnParams
from sgalign.config import (EdgeParams, PipelineConfig, RetrievalParams, config_from_dict,
                            load_config)
from sgalign.encoder import EncoderConfig, init_weights, save_weights
from sgalign.errors import ConfigError
from sgalign.matcher import MatcherParams
from sgalign.retrieval import build_database, save_database
from sgalign.scene_graph import save_graph
from sgalign.synth import SynthConfig, generate_scene, make_sample, save_sample

GOLDEN = Path(__file__).parent / "data" / "default_config.json"


def write_config(config: PipelineConfig, path) -> None:
    """The config document of `config`, written to `path`."""
    Path(path).write_text(json.dumps(config.to_dict(), indent=2), encoding="utf-8")


# Field values of the wrong type: each must end in a ConfigError.
TYPE_ERRORS = [
    ("edges", "n_max", "4"), ("edges", "n_max", 2.5), ("edges", "d_th", None),
    ("matcher", "temperature", "x"), ("matcher", "dustbin_logit", "a"),
    ("encoder", "heads", "8"), ("encoder", "layers", 1.0), ("encoder", "dropout", "x"),
    ("encoder", "d_model", True), ("encoder", "feature_dims", 5),
    ("encoder", "feature_dims", ["a", 3])]
# Non-finite values where a finite number is needed: the same.
NON_FINITE = [
    ("edges", "d_th", float("nan")), ("matcher", "temperature", float("inf")),
    ("matcher", "temperature", float("nan")), ("matcher", "dustbin_logit", float("nan")),
    ("matcher", "dustbin_logit", -float("inf"))]
# Finite values whose logits or flow costs would overflow at the first score,
# and an integer no float holds: the same.
OVERFLOWING = [
    ("matcher", "temperature", 1e-310), ("mcf", "lambda", 1.7e308),
    ("matcher", "dustbin_logit", 1e308), ("mcf", "c_unmatched", -1.7e308),
    ("matcher", "dustbin_logit", 10 ** 400), ("edges", "d_th", -10 ** 400)]


class TestConfig:
    def test_empty_document_gives_defaults(self):
        cfg, warnings = config_from_dict({})
        assert cfg.mcf.tau == 0.3
        assert cfg.mcf.top_k == 5
        assert cfg.encoder.heads == 8
        assert warnings == []

    def test_constraint_violation_names_field(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"mcf": {"max_iters": 0}})
        assert "mcf" in str(err.value)
        assert "max_iters" in str(err.value)

    def test_round_trip(self, tmp_path):
        cfg = PipelineConfig()
        write_config(cfg, tmp_path / "c.json")
        back, warnings = load_config(tmp_path / "c.json")
        assert back == cfg
        assert warnings == []

    def test_unknown_fields_warned(self):
        cfg, warnings = config_from_dict({"mcf": {"bogus": 1}, "extra": {}})
        assert cfg.mcf.tau == 0.3
        assert any("mcf.bogus" in w for w in warnings)
        assert any("extra" in w for w in warnings)

    @pytest.mark.parametrize("dropped", ["src_cap", "cost_scale"])
    def test_dropped_src_cap_is_unknown(self, dropped):
        cfg, warnings = config_from_dict({"mcf": {dropped: 2}})
        assert cfg.mcf == PipelineConfig().mcf
        assert warnings == [f"unknown field mcf.{dropped}"]

    @pytest.mark.parametrize("mode", ["raw", "dual_softmax"])
    def test_dropped_matcher_mode_is_unknown(self, mode):
        cfg, warnings = config_from_dict({"matcher": {"mode": mode}})
        assert cfg.matcher == PipelineConfig().matcher
        assert warnings == ["unknown field matcher.mode"]

    @pytest.mark.parametrize("section,key,value", [
        ("mcf", "cap_max", 1.5), ("mcf", "cap_max", True), ("mcf", "cap_max", "2"),
        ("mcf", "top_k", 2.5), ("mcf", "top_k", "3"), ("mcf", "max_iters", 2.5),
        ("mcf", "tau", "0.3"), ("mcf", "lambda", None), ("mcf", "c_unmatched", "x"),
        ("mcf", "tau", True), ("mnn", "min_score", "0.1"),
        ("mcf", "lambda", float("inf"))])
    def test_allocator_field_type_rejected(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            config_from_dict({section: {key: value}})
        assert section in str(err.value)
        assert f"{key} must be" in str(err.value)

    @pytest.mark.parametrize("section,key,value", TYPE_ERRORS + NON_FINITE + OVERFLOWING)
    def test_field_type_rejected(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            config_from_dict({section: {key: value}})
        assert f"config field '{section}': {key} must be" in str(err.value)

    @pytest.mark.parametrize("value", [3, ["w.npz"], True])
    def test_weights_path_must_be_string(self, value):
        with pytest.raises(ConfigError, match="weights_path"):
            config_from_dict({"weights_path": value})

    def test_partial_override(self):
        cfg, _ = config_from_dict({"mcf": {"tau": 0.5}, "mnn": {"min_score": 0.2}})
        assert cfg.mcf.tau == 0.5
        assert cfg.mcf.top_k == 5
        assert cfg.mnn.min_score == 0.2

    def test_non_default_round_trip(self, tmp_path):
        """Every field set to a valid non-default value survives a save and a
        load."""
        cfg = PipelineConfig(
            encoder=EncoderConfig(pe_dim=6, heads=3, layers=1, d_model=12, gate_hidden=5,
                                  geo_hidden=7, dropout=0.25, feature_dims=(9, 11)),
            matcher=MatcherParams(temperature=0.2, dustbin_logit=-0.5),
            mnn=MnnParams(min_score=0.3),
            mcf=McfParams(tau=0.4, top_k=3, c_unmatched=1.5, lam=0.5, cap_max=2,
                          max_iters=7),
            edges=EdgeParams(n_max=6, d_th=1.5),
            retrieval=RetrievalParams(allocator="mcf", rerank="direct"),
            weights_path="w.npz")
        for f in dataclasses.fields(cfg):
            value, default = getattr(cfg, f.name), getattr(PipelineConfig(), f.name)
            if dataclasses.is_dataclass(value):
                assert all(getattr(value, g.name) != getattr(default, g.name)
                           for g in dataclasses.fields(value)), f.name
            else:
                assert value != default
        write_config(cfg, tmp_path / "c.json")
        back, warnings = load_config(tmp_path / "c.json")
        assert back == cfg
        assert warnings == []

    def test_golden_default_file(self):
        golden = json.loads(GOLDEN.read_text())
        assert PipelineConfig().to_dict() == golden


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "scene.json"
    g, _ = generate_scene(SynthConfig(seed=2, n_objects=(6, 6),
                                      feature_noise_sigma=0.0,
                                      unique_classes=True))
    save_graph(g, path)
    return path


@pytest.fixture(scope="module")
def pair_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pairs")
    for k in range(3):
        sample = make_sample("f2s", SynthConfig(
            seed=40 + k, feature_noise_sigma=0.0, position_noise_sigma=0.0,
            undersegment_prob=0.0, unique_classes=True))
        save_sample(sample, root / f"f2s_{k:03d}")
    return root


class TestCliAlign:
    """The first three tests run `python -m sgalign.cli` in a child, one per
    exit code; every other CLI test calls main in process."""

    def test_self_alignment_identity(self, scene_file):
        proc = run_main("align", scene_file, scene_file, "--allocator", "mnn")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        n = len(json.loads(scene_file.read_text())["nodes"])
        assert [(i, j) for i, j, _ in doc["pairs"]] == [(i, i) for i in range(n)]
        assert doc["meta"]["allocator"] == "mnn"

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("align", str(bad), str(bad))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"{bad}: unreadable JSON" in one_stderr_line(proc)

    def test_missing_file_exit_1(self, scene_file):
        proc = run_cli("align", str(scene_file), "/nonexistent.json")
        assert proc.returncode == 1

    def test_invalid_graph_exit_2(self, tmp_path, scene_file):
        doc = json.loads(scene_file.read_text())
        doc["nodes"][0]["f_g"] = [2.0, 2.0, 2.0]  # outside (0, 1]
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(doc))
        proc = run_main("align", bad, scene_file)
        assert proc.returncode == 2
        assert proc.stdout == ""

    @pytest.mark.parametrize("doc", [{s: {k: v}} for s, k, v in TYPE_ERRORS]
                             + [{"weights_path": 3}]
                             + [{s: {k: v}} for s, k, v in NON_FINITE])
    def test_config_type_error_exit_2(self, scene_file, tmp_path, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        proc = run_main("align", scene_file, scene_file, "--config", cfg)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "config field" in one_stderr_line(proc)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("section,key,value", OVERFLOWING)
    def test_overflowing_config_exit_2(self, scene_file, tmp_path, section, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        proc = run_main("align", scene_file, scene_file, "--config", cfg)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"config field '{section}': {key} must be" in one_stderr_line(proc)

    @pytest.mark.parametrize("section,key,value", [
        ("matcher", "temperature", 2.3e-308), ("mcf", "lambda", 2.8e149),
        ("mcf", "lambda", -2.8e149), ("mcf", "c_unmatched", 1e300)])
    def test_config_just_inside_bound_runs(self, scene_file, tmp_path, section, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({section: {key: value}, "encoder": {
            "d_model": 16, "heads": 2, "layers": 1, "pe_dim": 8}}))
        proc = run_main("align", scene_file, scene_file, "--config", cfg)
        assert proc.returncode == 0, proc.stderr

    def test_align_fractional_cap_max_exit_2(self, scene_file, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mcf": {"cap_max": 1.5}}))
        proc = run_main("align", scene_file, scene_file, "--config", cfg)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "cap_max" in one_stderr_line(proc)
        assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def default_weights_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "w.npz"
    save_weights(init_weights(EncoderConfig(), seed=0), path)
    return path


@pytest.fixture(scope="module")
def small_weights_file(tmp_path_factory, small_weights):
    path = tmp_path_factory.mktemp("weights") / "small.npz"
    save_weights(small_weights, path)
    return path


def one_stderr_line(proc) -> str:
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    return lines[0]


class TestCliWeights:
    def test_saved_weights_match_seed(self, scene_file, default_weights_file):
        by_seed = run_main("align", scene_file, scene_file, "--seed", "0")
        by_file = run_main("align", scene_file, scene_file, "--weights", default_weights_file)
        assert by_file.returncode == 0, by_file.stderr
        assert json.loads(by_file.stdout)["pairs"] == json.loads(by_seed.stdout)["pairs"]

    @pytest.mark.parametrize("kind", ["truncated", "garbage", "no_meta"])
    def test_bad_weights_file(self, scene_file, default_weights_file, tmp_path, kind):
        bad = tmp_path / "bad.npz"
        if kind == "truncated":
            bad.write_bytes(default_weights_file.read_bytes()[:4096])
        elif kind == "garbage":
            bad.write_bytes(b"\x89\x00\xff not a weights file")
        else:
            with open(bad, "wb") as fh:
                np.savez(fh, cls_token=np.zeros(512))
        proc = run_main("align", scene_file, scene_file, "--weights", bad)
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "Traceback" not in one_stderr_line(proc)

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_empty_weights_path_refused(self, scene_file, tmp_path, where):
        """An empty path is a file that cannot be read, not an absent one."""
        args = ["align", scene_file, scene_file]
        if where == "flag":
            args += ["--weights", ""]
        else:
            (tmp_path / "c.json").write_text(json.dumps({"weights_path": ""}))
            args += ["--config", tmp_path / "c.json"]
        proc = run_main(*args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert one_stderr_line(proc) == \
            "ERROR sgalign: [Errno 2] No such file or directory: ''"


class TestCliValidate:
    def test_valid_graph(self, scene_file):
        proc = run_main("validate", scene_file)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["violations"] == []

    def test_invalid_graph(self, tmp_path, scene_file):
        doc = json.loads(scene_file.read_text())
        doc["nodes"][1]["id"] = doc["nodes"][0]["id"]
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(doc))
        proc = run_main("validate", bad)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["violations"]

    @pytest.mark.parametrize("edit", [
        "top_level_list", "two_element_edge", "fractional_id", "id_beyond_int64",
        "numeric_label", "string_gt_instance", "unknown_frame_kind"])
    def test_malformed_graph_exit_2(self, tmp_path, scene_file, edit):
        doc = json.loads(scene_file.read_text())
        if edit == "top_level_list":
            doc = [doc]
        elif edit == "two_element_edge":
            doc["edges"].append([0, 1])
        elif edit == "fractional_id":
            doc["nodes"][0]["id"] = 1.7
        elif edit == "id_beyond_int64":
            doc["nodes"][0]["id"] = 2 ** 63
        elif edit == "numeric_label":
            doc["nodes"][0]["label"] = 5
        elif edit == "string_gt_instance":
            doc["nodes"][0]["gt_instance"] = "x"
        else:
            doc["frame_kind"] = "banana"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_main("validate", bad)
        assert proc.returncode == 2
        assert proc.stdout == ""
        line = one_stderr_line(proc)
        assert str(bad) in line and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key", ["nodes", "graph_id", "frame_kind", "id",
                                     "position", "f_vl", "f_t", "f_g"])
    def test_missing_key_exit_2(self, tmp_path, scene_file, key):
        doc = json.loads(scene_file.read_text())
        node = doc["nodes"][1]
        where = ("" if key in doc else "node #1: " if key == "id"
                 else f"node {node['id']}: ")
        del (doc if key in doc else node)[key]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_main("validate", bad)
        assert proc.returncode == 2
        assert proc.stdout == ""
        line = one_stderr_line(proc)
        assert f"{bad}: {where}missing key '{key}'" in line, line

    def test_two_dimensional_position_is_a_violation(self, tmp_path, scene_file):
        """A position that is not a 3-vector cannot be stored as a graph: one
        error line names the file, the node and the shape."""
        doc = json.loads(scene_file.read_text())
        doc["nodes"][0]["position"] = [doc["nodes"][0]["position"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = run_main("validate", bad)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert one_stderr_line(proc).endswith(
            f"{bad}: node {doc['nodes'][0]['id']}: position has shape (1, 3), expected (3,)")

    def test_huge_coordinate_exit_2(self, tmp_path, scene_file):
        """A coordinate whose squared distances would overflow is a violation,
        reported without a numpy warning."""
        doc = json.loads(scene_file.read_text())
        doc["nodes"][0]["position"] = [1e200, 0, 0]
        doc["edges"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        message = f"node {doc['nodes'][0]['id']}: position has a coordinate beyond +-1e+150"
        proc = run_main("validate", bad)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["violations"] == [message]
        assert proc.stderr == ""
        proc = run_main("align", bad, scene_file)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert message in one_stderr_line(proc)


class TestCliEncode:
    def test_embeddings_unit_norm(self, scene_file):
        proc = run_main("encode", scene_file)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        emb = np.asarray(doc["node_embeddings"])
        assert np.all(np.abs(np.linalg.norm(emb, axis=1) - 1) <= 1e-6)
        assert abs(np.linalg.norm(doc["global_embedding"]) - 1) <= 1e-6

    def test_overflowing_features_exit_2(self, tmp_path):
        """Features of 1e300 would overflow in the encoder, so they are a
        violation: validate reports it, and encode and align end in one
        error line naming the file, not in a floating-point error."""
        g, _ = generate_scene(SynthConfig(seed=1))
        save_graph(g, tmp_path / "g.json")
        doc = json.loads((tmp_path / "g.json").read_text())
        doc["nodes"][0]["f_vl"] = [1e300] * len(doc["nodes"][0]["f_vl"])
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        message = f"node {doc['nodes'][0]['id']}: f_vl has a value beyond +-1e+150"
        proc = run_main("validate", huge)
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["violations"] == [message]
        for args in (("encode", huge), ("align", huge, tmp_path / "g.json")):
            proc = run_main(*args)
            assert proc.returncode == 2
            assert proc.stdout == ""
            line = one_stderr_line(proc)
            assert str(huge) in line and message in line, line
            assert "Warning" not in proc.stderr


class TestCliSynthEval:
    def test_synth_writes_samples(self, tmp_path):
        proc = run_main("synth", "--task", "s2s", "--count", "2", "--seed", "7",
                        "--out", tmp_path / "out")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["count"] == 2
        for name in doc["dirs"]:
            for fname in ("a.json", "b.json", "gt.json"):
                assert (tmp_path / "out" / name / fname).exists()

    def test_eval_report(self, pair_dir, tmp_path):
        out = tmp_path / "report.json"
        proc = run_main("eval", "--pairs", pair_dir, "--allocator", "mnn",
                        "--out", out, "--csv", tmp_path / "r.csv")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert set(report) == {"overall", "bins", "per_sample", "meta"}
        assert report["overall"]["f1"] == 1.0  # zero-noise distinct classes
        assert len(report["per_sample"]) == 3
        csv_lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 4

    def test_eval_csv_quotes_fields(self, pair_dir, tmp_path):
        """A sample name with a comma or a quote is one CSV field; a plain
        name's row is its values joined by commas."""
        pairs = tmp_path / "pairs"
        names = ["plain", "scan,1", 'say "hi"']
        for name, sample in zip(names, sorted(pair_dir.iterdir())):
            shutil.copytree(sample, pairs / name)
        path = tmp_path / "r.csv"
        proc = run_main("eval", "--pairs", pairs, "--allocator", "mnn", "--csv", path)
        assert proc.returncode == 0, proc.stderr
        per_sample = json.loads(proc.stdout)["per_sample"]
        columns = ["sample", "overlap", "accuracy", "precision", "recall", "f1"]
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [columns] + [[str(r[c]) for c in columns] for r in per_sample]
        assert sorted(r[0] for r in rows[1:]) == sorted(names)
        lines = path.read_text(encoding="utf-8").splitlines()
        plain = next(r for r in per_sample if r["sample"] == "plain")
        assert ",".join(str(plain[c]) for c in columns) in lines


    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_eval_jobs_below_one_is_usage_error(self, pair_dir, jobs):
        proc = run_main("eval", "--pairs", pair_dir, "--jobs", jobs)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "--jobs" in lines[0], proc.stderr

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_retrieve_k_below_one_is_usage_error(self, tmp_path, k):
        # An empty directory and a missing query: only a refusal before any
        # file is read names --k.
        proc = run_main("retrieve", "--query", tmp_path / "q.json", "--db", tmp_path, "--k", k)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert f"--k must be >= 1, got {k}" in one_stderr_line(proc)

    @pytest.mark.parametrize("flag,value", [
        ("--feature-noise", "inf"), ("--feature-noise", "nan"), ("--feature-noise", "-1"),
        ("--position-noise", "inf"), ("--position-noise", "nan")])
    def test_synth_bad_noise_exit_2(self, tmp_path, flag, value):
        proc = run_main("synth", "--task", "f2s", "--out", tmp_path / "out", flag, value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        field = flag[2:].replace("-noise", "_noise_sigma")
        assert f"{field} must be finite and >= 0" in one_stderr_line(proc)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_synth_count_below_one_is_usage_error(self, tmp_path, count):
        proc = run_main("synth", "--task", "f2s", "--out", tmp_path / "out", "--count", count)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "--count" in one_stderr_line(proc)
        assert not (tmp_path / "out").exists()

    def test_eval_pool_overflow_exit_2(self, pair_dir, monkeypatch):
        """The per-pair work on eval's thread pool raises on overflow too: a
        pool thread does not inherit the command's floating-point state."""
        def overflowing(*args):
            return np.float64(1e300) * np.float64(1e300)

        monkeypatch.setattr(cli, "match_embeddings", overflowing)
        proc = run_main("eval", "--pairs", pair_dir, "--jobs", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert one_stderr_line(proc) == \
            "ERROR sgalign: floating-point error: overflow encountered in scalar multiply"

    def test_eval_negative_encoder_size_exit_2(self, pair_dir, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"encoder": {"d_model": -8, "heads": 1}}))
        proc = run_main("eval", "--pairs", pair_dir, "--config", cfg)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "d_model" in one_stderr_line(proc)
        assert "Traceback" not in proc.stderr


def broken_pair(pair_dir, tmp_path, edit):
    """A copy of the first pair of `pair_dir`, alone under tmp_path/pairs,
    whose a.json document `edit` changes in place. Returns the pair directory."""
    src = sorted(pair_dir.iterdir())[0]
    pair = tmp_path / "pairs" / src.name
    shutil.copytree(src, pair)
    doc = json.loads((pair / "a.json").read_text())
    edit(doc)
    (pair / "a.json").write_text(json.dumps(doc))
    return pair


def bad_extents_and_distance(doc):
    doc["nodes"][0]["f_g"] = [5, -1, 5]
    doc["edges"][0][2] = 99.0


def duplicate_id(doc):
    doc["nodes"][1]["id"] = doc["nodes"][0]["id"]


BROKEN = [(bad_extents_and_distance, ["f_g components", "stored distance 99.0"]),
          (duplicate_id, ["duplicate node id"])]


class TestCliPairFiles:
    """eval and register read pairs through the same checked reader as align."""

    @pytest.mark.parametrize("edit,named", BROKEN, ids=["extents", "duplicate"])
    def test_eval_invalid_pair_exit_2(self, pair_dir, tmp_path, edit, named):
        pair = broken_pair(pair_dir, tmp_path, edit)
        out, csv = tmp_path / "r.json", tmp_path / "r.csv"
        proc = run_main("eval", "--pairs", pair.parent, "--out", out, "--csv", csv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        line = one_stderr_line(proc)
        assert all(part in line for part in [str(pair / "a.json"), *named]), line
        assert not out.exists() and not csv.exists()

    @pytest.mark.parametrize("edit,named", BROKEN, ids=["extents", "duplicate"])
    def test_register_invalid_pair_exit_2(self, pair_dir, tmp_path, edit, named):
        pair = broken_pair(pair_dir, tmp_path, edit)
        proc = run_main("register", "--pair", pair)
        assert proc.returncode == 2
        assert proc.stdout == ""
        line = one_stderr_line(proc)
        assert all(part in line for part in [str(pair / "a.json"), *named]), line

    @pytest.mark.parametrize("gt,named", [
        ({"pairs": [[1]]}, "pairs must be a list"), ({"pairs": "x"}, "pairs must be a list"),
        ({}, "pairs must be a list"), ([], "must be a JSON object"),
        ({"pairs": [[0, 1.5]]}, "pair id must be an integer"),
        ({"pairs": [], "overlap": 1.5}, "overlap must be a number in [0, 1]"),
        ({"pairs": [], "overlap": "1"}, "overlap must be a number in [0, 1]"),
        ({"pairs": [], "task": "x2y"}, "task must be f2s or s2s"),
        ({"pairs": [], "seed": 0.5}, "seed must be an integer"),
        ({"pairs": [], "gt_rotation": "abc"}, "gt_rotation is not an array of numbers"),
        ({"pairs": [], "gt_rotation": [[1, 0, 0], [0, 1, 0], [0, 0, float("nan")]]},
         "gt_rotation must be a finite array of shape (3, 3) or null"),
        ({"pairs": [], "gt_translation": [0, 0]},
         "gt_translation must be a finite array of shape (3,) or null"),
        ({"pairs": [], "gt_rotation": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]},
         "gt_rotation must be a finite array of shape (3, 3) or null, with entries within +-1"),
        ({"pairs": [], "gt_rotation": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0.5]]},
         "gt_rotation: R is not orthonormal"),
        ({"pairs": [], "gt_rotation": [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]},
         "gt_rotation: R is not a proper rotation"),
        ({"pairs": [], "gt_translation": [1e200, 0, 0]},
         "gt_translation must be a finite array of shape (3,) or null, with entries within "
         "+-1e+150")])
    def test_eval_malformed_gt_exit_2(self, pair_dir, tmp_path, small_weights_file, gt,
                                      named):
        pair = broken_pair(pair_dir, tmp_path, lambda doc: None)
        (pair / "gt.json").write_text(json.dumps(gt))
        # gt.json is read before any encoding, so small weights do
        proc = run_main("eval", "--pairs", pair.parent, "--weights", small_weights_file)
        assert proc.returncode == 2
        assert proc.stdout == ""
        line = one_stderr_line(proc)
        assert f"{pair / 'gt.json'}: {named}" in line, line

    def test_absent_gt_fields_take_defaults(self, pair_dir, tmp_path):
        pair = broken_pair(pair_dir, tmp_path, lambda doc: None)
        pairs = json.loads((pair / "gt.json").read_text())["pairs"]
        (pair / "gt.json").write_text(json.dumps({"pairs": pairs}))
        proc = run_main("eval", "--pairs", pair.parent)
        assert proc.returncode == 0, proc.stderr
        row = json.loads(proc.stdout)["per_sample"][0]
        assert (row["overlap"], row["task"], row["f1"]) == (1.0, "f2s", 1.0)
        proc = run_main("register", "--pair", pair)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["error"] is None

    def test_eval_config_edges_rebuild_null_edges(self, tmp_path):
        """Pairs whose edges are null, read with the config's edge parameters,
        score exactly like pairs that store the edges those parameters build,
        and unlike the same pairs read with the default parameters."""
        n_max, d_th = 1, 5.0
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"edges": {"n_max": n_max, "d_th": d_th}}))
        for k in range(4):
            sample = make_sample("f2s", SynthConfig(seed=50 + k))
            sample.graph_a, sample.graph_b = (with_edges(g, n_max=n_max, d_th=d_th)
                                              for g in (sample.graph_a, sample.graph_b))
            save_sample(sample, tmp_path / "stored" / f"f2s_{k:03d}")
            save_sample(sample, tmp_path / "null" / f"f2s_{k:03d}")
            for name in ("a.json", "b.json"):
                path = tmp_path / "null" / f"f2s_{k:03d}" / name
                path.write_text(json.dumps({**json.loads(path.read_text()), "edges": None}))
        stored, null = (run_main("eval", "--pairs", tmp_path / kind, "--config", cfg)
                        for kind in ("stored", "null"))
        default = run_main("eval", "--pairs", tmp_path / "null")
        assert stored.returncode == null.returncode == default.returncode == 0
        assert null.stdout == stored.stdout
        assert null.stdout != default.stdout


# Bytes that no JSON file kind accepts: a cut document, text that is not
# UTF-8, and nesting too deep to decode.
UNREADABLE = {"truncated": lambda data: data[:len(data) // 2],
              "not_utf8": lambda data: b"\xff" + data,
              "nested": lambda data: b"[" * 100_000 + data + b"]" * 100_000}


class TestCliUnreadableJson:
    """Every JSON file kind refuses undecodable bytes: exit 2 and one stderr
    line naming the file."""

    @pytest.mark.parametrize("damage", sorted(UNREADABLE))
    @pytest.mark.parametrize("kind", ["graph", "gt", "config", "index"])
    def test_exit_2_naming_file(self, kind, damage, scene_file, pair_dir,
                                small_weights_file, tmp_path):
        pair = broken_pair(pair_dir, tmp_path, lambda doc: None)
        graph = tmp_path / "g.json"
        shutil.copy(scene_file, graph)
        config = tmp_path / "c.json"
        write_config(PipelineConfig(), config)
        db = tmp_path / "db"
        db.mkdir()
        (db / "index.json").write_text(json.dumps(
            {"format_version": 3, "scenes": [], "weights_hash": "", "graphs": []}))
        weights = ["--weights", small_weights_file]
        path, argv = {
            "graph": (graph, ["validate", graph]),
            "gt": (pair / "gt.json", ["eval", "--pairs", pair.parent, *weights]),
            "config": (config, ["align", graph, graph, "--config", config, *weights]),
            "index": (db / "index.json",
                      ["retrieve", "--query", graph, "--db", db, *weights]),
        }[kind]
        path.write_bytes(UNREADABLE[damage](path.read_bytes()))
        proc = run_main(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"{path}: unreadable JSON: " in one_stderr_line(proc)

    def test_nested_weights_meta_exit_2(self, scene_file, small_weights, tmp_path):
        path = tmp_path / "w.npz"
        with open(path, "wb") as fh:
            np.savez(fh, meta=np.array("[" * 100_000), **small_weights.tensors)
        proc = run_main("encode", scene_file, "--weights", path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"{path}: 'meta' entry: " in one_stderr_line(proc)


class TestCliNumberLiterals:
    """Literals that orjson reads otherwise than json.loads keep their
    answers: a NaN feature value is a violation, and a node id past the
    64-bit ranges is refused with its exact digits."""

    def test_validate_nan_feature(self, scene_file, tmp_path):
        doc = json.loads(scene_file.read_text())
        doc["nodes"][0]["f_vl"][3] = float("nan")
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        proc = run_main("validate", path)
        assert proc.returncode == 2
        assert json.loads(proc.stdout) == {"graph_id": doc["graph_id"],
                                           "violations": ["node 0: non-finite values in f_vl"]}
        assert proc.stderr == ""

    @pytest.mark.parametrize("literal", ["-9223372036854775809", "18446744073709551617"])
    @pytest.mark.parametrize("command", ["validate", "encode"])
    def test_node_id_past_int64(self, scene_file, tmp_path, literal, command):
        doc = json.loads(scene_file.read_text())
        doc["nodes"][1]["id"] = "<id>"
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc).replace('"<id>"', literal))
        proc = run_main(command, path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert one_stderr_line(proc) == (
            f"ERROR sgalign: {path}: node id must be an integer within int64, got {literal}")


class TestCliRegister:
    def test_register_zero_noise(self, pair_dir):
        proc = run_main("register", "--pair", sorted(pair_dir.iterdir())[0], "--allocator", "mnn")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["error"]["rte"] <= 1e-6
        assert doc["error"]["rre"] <= 1e-4
        assert all(th["success"] for th in doc["thresholds"])

    @pytest.mark.parametrize("flag,value", [
        ("--ransac-iters", "-1"), ("--ransac-iters", "0"),
        ("--inlier-eps", "nan"), ("--inlier-eps", "-1"), ("--inlier-eps", "inf")])
    def test_bad_ransac_flag_is_usage_error(self, tmp_path, flag, value):
        # the pair does not exist: the flag must be refused before any loading
        proc = run_main("register", "--pair", tmp_path / "missing", flag, value)
        assert proc.returncode == 1
        assert proc.stdout == ""
        line = one_stderr_line(proc)
        assert flag in line and "Traceback" not in line

    def test_unallocatable_ransac_iters_is_one_line(self, pair_dir):
        # NumPy refuses the 36 TiB sample array at once, touching no memory
        proc = run_main("register", "--pair", sorted(pair_dir.iterdir())[0],
                        "--allocator", "mnn", "--ransac-iters", 10 ** 12)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert one_stderr_line(proc).startswith(
            "ERROR sgalign: estimate_rigid: iters 1000000000000 samples cannot be allocated: ")


class TestCliRetrieve:
    def test_query_ranks_itself_first(self, tmp_path):
        db_dir = tmp_path / "db"
        db_dir.mkdir()
        for seed in range(4):
            g, _ = generate_scene(SynthConfig(seed=seed, n_objects=(5, 7),
                                              feature_noise_sigma=0.0))
            save_graph(g, db_dir / f"scene{seed}.json")
        query = db_dir / "scene2.json"
        proc = run_main("retrieve", "--query", query, "--db", db_dir,
                        "--k", "3", "--rerank", "weighted")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["ranked"][0]["scene_id"] == "scene-2"
        again = run_cli("retrieve", "--query", query, "--db", db_dir,
                        "--k", "3", "--rerank", "weighted")
        assert again.stdout == proc.stdout


    @pytest.fixture()
    def saved_db(self, tmp_path):
        scenes = [(f"scene{seed}", generate_scene(SynthConfig(
            seed=seed, n_objects=(5, 7), feature_noise_sigma=0.0))[0]) for seed in range(4)]
        weights = init_weights(EncoderConfig(), seed=0)  # what --seed 0 builds
        save_database(build_database(scenes, weights), tmp_path / "db", weights)
        save_graph(scenes[2][1], tmp_path / "query.json")
        return tmp_path / "db", tmp_path / "query.json"

    def test_saved_database(self, saved_db):
        db_dir, query = saved_db
        proc = run_main("retrieve", "--query", query, "--db", db_dir, "--k", "3")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ranked"][0]["scene_id"] == "scene2"

    def test_config_rerank_mode_used(self, saved_db, tmp_path):
        db_dir, query = saved_db
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"retrieval": {"rerank": "direct"}}))

        def scores(*args):
            proc = run_main("retrieve", "--query", query, "--db", db_dir, "--k", "3", *args)
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(proc.stdout)
            return doc["meta"]["rerank"], [(r["scene_id"], r["score"]) for r in doc["ranked"]]

        from_config = scores("--config", cfg)
        assert from_config == scores("--rerank", "direct")
        assert from_config[0] == "direct"
        weighted = scores("--config", cfg, "--rerank", "weighted")  # the flag wins
        assert weighted == scores()
        assert weighted[0] == "weighted" and weighted[1] != from_config[1]

    @pytest.mark.parametrize("version", [None, 2])
    def test_old_database_format_exit_2(self, scene_file, tmp_path, version):
        """Directories of per-scene graph JSON (format 1 has no format_version)
        are refused, not re-encoded."""
        db_dir = tmp_path / "db"
        db_dir.mkdir()
        shutil.copy(scene_file, db_dir / "s0.graph.json")
        index = {"scenes": ["s0"], "weights_hash": "0" * 64}
        if version is not None:
            index["format_version"] = version
        (db_dir / "index.json").write_text(json.dumps(index))
        proc = run_main("retrieve", "--query", scene_file, "--db", db_dir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"{db_dir / 'index.json'}: database format_version {version}" \
            in one_stderr_line(proc)

    def test_embedding_mismatch_exit_2(self, saved_db):
        db_dir, query = saved_db
        path = db_dir / "embeddings.npz"
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["offsets"][2] += 1
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        proc = run_main("retrieve", "--query", query, "--db", db_dir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "scene1" in one_stderr_line(proc)

    @pytest.mark.parametrize("kind", ["npy", "text"])
    def test_archive_not_a_zip_exit_2(self, saved_db, kind):
        """An embeddings.npz holding .npy bytes or text is refused in one line
        naming it, as a weights file is."""
        db_dir, query = saved_db
        path = db_dir / "embeddings.npz"
        if kind == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            path.write_text("embeddings")
        proc = run_main("retrieve", "--query", query, "--db", db_dir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert one_stderr_line(proc) == f"ERROR sgalign: {path}: not an npz archive"

    def test_unsafe_scene_id_exit_2(self, saved_db):
        db_dir, query = saved_db
        index = json.loads((db_dir / "index.json").read_text())
        index["scenes"][0] = "../scene0"
        (db_dir / "index.json").write_text(json.dumps(index))
        proc = run_main("retrieve", "--query", query, "--db", db_dir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "safe file name" in one_stderr_line(proc)


    def test_invalid_scene_graph_exit_2(self, saved_db):
        db_dir, query = saved_db
        path = db_dir / "embeddings.npz"
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["f_g"][arrays["offsets"][1]] = [5, -1, 5]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        proc = run_main("retrieve", "--query", query, "--db", db_dir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        line = one_stderr_line(proc)
        assert f"{path}: scene 'scene1': " in line and "f_g components" in line

    def test_repeated_scene_id_exit_2_before_archive(self, saved_db):
        """An index.json that lists a scene twice is refused before its
        archive is read, naming the file and the id."""
        db_dir, query = saved_db
        index = json.loads((db_dir / "index.json").read_text())
        index["scenes"][0] = "scene1"
        (db_dir / "index.json").write_text(json.dumps(index))
        (db_dir / "embeddings.npz").unlink()
        proc = run_main("retrieve", "--query", query, "--db", db_dir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert one_stderr_line(proc) == (f"ERROR sgalign: {db_dir / 'index.json'}: "
                                         f"scene id 'scene1' is listed twice")

    def test_bare_directory_repeated_graph_id_exit_2_before_encoding(self, tmp_path,
                                                                     monkeypatch):
        g, _ = generate_scene(SynthConfig(seed=1, n_objects=(5, 7)))
        db_dir = tmp_path / "db"
        db_dir.mkdir()
        for name in ("a.json", "b.json", "query.json"):
            save_graph(g, (tmp_path if name == "query.json" else db_dir) / name)
        monkeypatch.setattr(retrieval, "build_database",
                            lambda *args: pytest.fail("the graphs were encoded"))
        proc = run_main("retrieve", "--query", tmp_path / "query.json", "--db", db_dir)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert one_stderr_line(proc) == (f"ERROR sgalign: {db_dir / 'a.json'} and "
                                         f"{db_dir / 'b.json'}: both have graph_id "
                                         f"{g.graph_id!r}")

    def test_bare_directory_invalid_graph_exit_2(self, tmp_path):
        g, _ = generate_scene(SynthConfig(seed=1, n_objects=(5, 7)))
        save_graph(g, tmp_path / "query.json")
        (tmp_path / "db").mkdir()
        doc = json.loads((tmp_path / "query.json").read_text())
        doc["edges"][0][2] = 99.0
        (tmp_path / "db" / "scene.json").write_text(json.dumps(doc))
        proc = run_main("retrieve", "--query", tmp_path / "query.json", "--db", tmp_path / "db")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert str(tmp_path / "db" / "scene.json") in one_stderr_line(proc)

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_db_not_a_directory_exit_1(self, scene_file, tmp_path, kind):
        db = tmp_path / "no_such_dir"
        if kind == "file":
            db = tmp_path / "scene.json"
            shutil.copy(scene_file, db)
        proc = run_main("retrieve", "--query", scene_file, "--db", db)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert one_stderr_line(proc) == f"ERROR sgalign: --db {db}: not a directory"

    def test_db_without_scene_graphs_exit_2(self, scene_file, tmp_path):
        (tmp_path / "notes.txt").write_text("no graphs here")
        proc = run_main("retrieve", "--query", scene_file, "--db", tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert one_stderr_line(proc) == f"ERROR sgalign: no scene graphs under {tmp_path}"


# Each command that takes --seed, with inputs under a directory that holds
# none, so only a refusal before any loading names --seed.
SEED_COMMANDS = {
    "synth": ["synth", "--task", "f2s", "--out", "{tmp}/out"],
    "align": ["align", "{tmp}/a.json", "{tmp}/b.json"],
    "encode": ["encode", "{tmp}/a.json"],
    "eval": ["eval", "--pairs", "{tmp}"],
    "register": ["register", "--pair", "{tmp}"],
    "retrieve": ["retrieve", "--query", "{tmp}/a.json", "--db", "{tmp}"],
    "demo-fit": ["demo-fit", "--steps", "1"],
}


@pytest.mark.parametrize("command", list(SEED_COMMANDS))
def test_negative_seed_is_usage_error(tmp_path, command):
    args = [arg.format(tmp=tmp_path) for arg in SEED_COMMANDS[command]]
    proc = run_main(*args, "--seed", "-1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "--seed must be >= 0, got -1" in one_stderr_line(proc)
    assert not (tmp_path / "out").exists()


class TestArgparseRefusals:
    """What argparse itself refuses ends like every other usage error:
    exit 1, nothing on stdout, one stderr line."""

    @pytest.mark.parametrize("args, message", [
        (["demo-fit", "--steps", "x"], "sgalign demo-fit: argument --steps: invalid int value: 'x'"),
        (["align", "a.json"], "sgalign align: the following arguments are required: graph_b"),
        (["frobnicate"], "sgalign: argument command: invalid choice: 'frobnicate'")])
    def test_one_line_usage_error(self, args, message):
        proc = run_main(*args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert message in one_stderr_line(proc)

    @pytest.mark.parametrize("args", [["--help"], ["align", "--help"]])
    def test_help_goes_to_stdout(self, args):
        proc = run_main(*args)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: sgalign") and proc.stderr == ""


class TestCliDemoFit:
    def test_loss_drops(self):
        proc = run_main("demo-fit", "--task", "f2s", "--steps", "60", "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["final_loss"] < doc["initial_loss"]

    @pytest.mark.parametrize("flag, value", [
        ("--steps", "-3"), ("--steps", "-1"), ("--lr", "nan"), ("--lr", "inf"),
        ("--lr", "0"), ("--lr", "-0.1")])
    def test_bad_flag_is_usage_error(self, flag, value):
        proc = run_main("demo-fit", flag, value)
        assert proc.returncode == 1
        assert proc.stdout == ""
        want = ">= 0" if flag == "--steps" else "finite and > 0"
        assert f"{flag} must be {want}, got " in one_stderr_line(proc)

    def test_zero_steps_give_one_loss(self):
        proc = run_main("demo-fit", "--steps", "0")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert len(doc["trajectory"]) == 1
        assert doc["initial_loss"] == doc["final_loss"] == doc["trajectory"][0]


class TestStderrLines:
    """main writes its diagnostics to the sys.stderr of each call, and
    SGA_LOG=error hides warnings."""

    def test_each_call_writes_to_its_own_stderr(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        buffers = [io.StringIO(), io.StringIO()]
        for buffer in buffers:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(buffer):
                assert cli.main(["validate", missing]) == cli.EXIT_USAGE
        for buffer in buffers:
            lines = buffer.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("ERROR sgalign: [Errno 2] "), lines
            assert missing in lines[0]

    @pytest.mark.parametrize("level, shown", [
        (None, True), ("warn", True), ("debug", True), ("anything", True), ("error", False)])
    def test_sga_log_error_hides_warnings(self, scene_file, tmp_path, monkeypatch, level,
                                          shown):
        if level is None:
            monkeypatch.delenv("SGA_LOG", raising=False)
        else:
            monkeypatch.setenv("SGA_LOG", level)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus": 1, "mcf": {"extra": 2}}))
        proc = run_main("validate", scene_file, "--config", cfg)
        assert proc.returncode == 0
        assert proc.stderr == ("WARNING sgalign: config: unknown field mcf.extra\n"
                               "WARNING sgalign: config: unknown field bogus\n" if shown else "")

    @pytest.mark.parametrize("args, message", [
        (["demo-fit", "--lr", "x"], "sgalign demo-fit: argument --lr: invalid float value: 'x'"),
        (["eval", "--pairs", ".", "--jobs", "1.5"],
         "sgalign eval: argument --jobs: invalid int value: '1.5'")])
    def test_bounded_flags_name_their_type(self, args, message):
        proc = run_main(*args)
        assert (proc.returncode, proc.stdout) == (cli.EXIT_USAGE, "")
        assert one_stderr_line(proc) == f"ERROR sgalign: {message}"

    def test_bounds_are_refused_while_parsing(self):
        with pytest.raises(cli.UsageError, match=r"^--count must be >= 1, got 0$"):
            cli._build_parser().parse_args(["synth", "--task", "f2s", "--out", "x",
                                            "--count", "0"])


def renumbered(src: Path, dst: Path, new_id) -> None:
    """A copy of the pair at src with every node id i replaced by new_id(i)
    in a.json, b.json (nodes and edges) and gt.json."""
    dst.mkdir(parents=True)
    for name in ("a.json", "b.json"):
        doc = json.loads((src / name).read_text())
        for node in doc["nodes"]:
            node["id"] = new_id(node["id"])
        doc["edges"] = [[new_id(i), new_id(j), d] for i, j, d in doc["edges"]]
        (dst / name).write_text(json.dumps(doc))
    gt = json.loads((src / "gt.json").read_text())
    gt["pairs"] = [[new_id(a), new_id(b)] for a, b in gt["pairs"]]
    (dst / "gt.json").write_text(json.dumps(gt))


class TestEvalNodeIds:
    """eval compares predicted matches with gt.json by node id, so pairs
    whose ids are not their row numbers score like those whose ids are."""

    def test_renumbered_pair_scores_alike(self, tmp_path):
        sample = make_sample("s2s", SynthConfig(seed=3, feature_noise_sigma=0.0,
                                                position_noise_sigma=0.0,
                                                undersegment_prob=0.0))
        save_sample(sample, tmp_path / "rows" / "s2s_00003")
        renumbered(tmp_path / "rows" / "s2s_00003", tmp_path / "ids" / "s2s_00003",
                   lambda i: 10 * i + 7)
        rows, ids = (run_main("eval", "--pairs", tmp_path / kind, "--allocator", "mcf")
                     for kind in ("rows", "ids"))
        assert rows.returncode == ids.returncode == 0, rows.stderr + ids.stderr
        assert json.loads(rows.stdout)["overall"]["f1"] > 0
        assert json.loads(ids.stdout)["overall"] == json.loads(rows.stdout)["overall"]
        assert ids.stdout == rows.stdout

    @pytest.mark.parametrize("side", [0, 1])
    def test_gt_id_that_is_no_node_exit_2(self, pair_dir, tmp_path, side):
        pair = broken_pair(pair_dir, tmp_path, lambda doc: None)
        gt = json.loads((pair / "gt.json").read_text())
        gt["pairs"][0][side] = 999
        (pair / "gt.json").write_text(json.dumps(gt))
        for argv in (("eval", "--pairs", pair.parent), ("register", "--pair", pair)):
            proc = run_main(*argv)
            assert (proc.returncode, proc.stdout) == (cli.EXIT_VALIDATION, "")
            assert one_stderr_line(proc) == (f"ERROR sgalign: {pair / 'gt.json'}: pair id 999 "
                                             f"is not a node of {'ab'[side]}.json")

    def test_eval_empty_a_names_the_pair(self, pair_dir, tmp_path):
        def no_nodes(doc):
            doc["nodes"], doc["edges"] = [], []

        pair = broken_pair(pair_dir, tmp_path, no_nodes)
        (pair / "gt.json").write_text(json.dumps({"pairs": []}))
        proc = run_main("eval", "--pairs", pair.parent)
        assert (proc.returncode, proc.stdout) == (cli.EXIT_VALIDATION, "")
        assert one_stderr_line(proc) == f"ERROR sgalign: {pair}: a.json has no nodes to score"

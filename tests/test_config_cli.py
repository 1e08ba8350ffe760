import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgalign.config import (PipelineConfig, config_from_dict, load_config,
                            save_config)
from sgalign.encoder import EncoderConfig, init_weights, save_weights
from sgalign.errors import ConfigError
from sgalign.retrieval import build_database, save_database
from sgalign.scene_graph import save_graph
from sgalign.synth import SynthConfig, generate_scene, make_sample, save_sample

GOLDEN = Path(__file__).parent / "data" / "default_config.json"


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
        save_config(cfg, tmp_path / "c.json")
        back, warnings = load_config(tmp_path / "c.json")
        assert back == cfg
        assert warnings == []

    def test_unknown_fields_warned(self):
        cfg, warnings = config_from_dict({"mcf": {"bogus": 1}, "extra": {}})
        assert cfg.mcf.tau == 0.3
        assert any("mcf.bogus" in w for w in warnings)
        assert any("extra" in w for w in warnings)

    def test_dropped_src_cap_is_unknown(self):
        cfg, warnings = config_from_dict({"mcf": {"src_cap": 2}})
        assert cfg.mcf == PipelineConfig().mcf
        assert warnings == ["unknown field mcf.src_cap"]

    def test_partial_override(self):
        cfg, _ = config_from_dict({"mcf": {"tau": 0.5}, "mnn": {"min_score": 0.2}})
        assert cfg.mcf.tau == 0.5
        assert cfg.mcf.top_k == 5
        assert cfg.mnn.min_score == 0.2

    def test_golden_default_file(self):
        golden = json.loads(GOLDEN.read_text())
        assert PipelineConfig().to_dict() == golden


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "sgalign.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


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
    def test_self_alignment_identity(self, scene_file):
        proc = run_cli("align", str(scene_file), str(scene_file),
                       "--allocator", "mnn")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        n = len(json.loads(scene_file.read_text())["nodes"])
        assert [(i, j) for i, j, _ in doc["pairs"]] == [(i, i) for i in range(n)]
        assert doc["meta"]["allocator"] == "mnn"

    def test_malformed_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("align", str(bad), str(bad))
        assert proc.returncode == 1
        assert proc.stdout == ""

    def test_missing_file_exit_1(self, scene_file):
        proc = run_cli("align", str(scene_file), "/nonexistent.json")
        assert proc.returncode == 1

    def test_invalid_graph_exit_2(self, tmp_path, scene_file):
        doc = json.loads(scene_file.read_text())
        doc["nodes"][0]["f_g"] = [2.0, 2.0, 2.0]  # outside (0, 1]
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("align", str(bad), str(scene_file))
        assert proc.returncode == 2
        assert proc.stdout == ""


@pytest.fixture(scope="module")
def default_weights_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "w.npz"
    save_weights(init_weights(EncoderConfig(), seed=0), path)
    return path


def one_stderr_line(proc) -> str:
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    return lines[0]


class TestCliWeights:
    def test_saved_weights_match_seed(self, scene_file, default_weights_file):
        by_seed = run_cli("align", str(scene_file), str(scene_file), "--seed", "0")
        by_file = run_cli("align", str(scene_file), str(scene_file),
                          "--weights", str(default_weights_file))
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
        proc = run_cli("align", str(scene_file), str(scene_file), "--weights", str(bad))
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "Traceback" not in one_stderr_line(proc)


class TestCliValidate:
    def test_valid_graph(self, scene_file):
        proc = run_cli("validate", str(scene_file))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["violations"] == []

    def test_invalid_graph(self, tmp_path, scene_file):
        doc = json.loads(scene_file.read_text())
        doc["nodes"][1]["id"] = doc["nodes"][0]["id"]
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(doc))
        proc = run_cli("validate", str(bad))
        assert proc.returncode == 2
        assert json.loads(proc.stdout)["violations"]


class TestCliEncode:
    def test_embeddings_unit_norm(self, scene_file):
        proc = run_cli("encode", str(scene_file))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        emb = np.asarray(doc["node_embeddings"])
        assert np.all(np.abs(np.linalg.norm(emb, axis=1) - 1) <= 1e-6)
        assert abs(np.linalg.norm(doc["global_embedding"]) - 1) <= 1e-6


class TestCliSynthEval:
    def test_synth_writes_samples(self, tmp_path):
        proc = run_cli("synth", "--task", "s2s", "--count", "2", "--seed", "7",
                       "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["count"] == 2
        for name in doc["dirs"]:
            for fname in ("a.json", "b.json", "gt.json"):
                assert (tmp_path / "out" / name / fname).exists()

    def test_eval_report(self, pair_dir, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("eval", "--pairs", str(pair_dir), "--allocator", "mnn",
                       "--out", str(out), "--csv", str(tmp_path / "r.csv"))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert set(report) == {"overall", "bins", "per_sample", "meta"}
        assert report["overall"]["f1"] == 1.0  # zero-noise distinct classes
        assert len(report["per_sample"]) == 3
        csv_lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 4


    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_eval_jobs_below_one_is_usage_error(self, pair_dir, jobs):
        proc = run_cli("eval", "--pairs", str(pair_dir), "--jobs", jobs)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "--jobs" in lines[0], proc.stderr

    def test_eval_negative_encoder_size_exit_2(self, pair_dir, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"encoder": {"d_model": -8, "heads": 1}}))
        proc = run_cli("eval", "--pairs", str(pair_dir), "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "d_model" in one_stderr_line(proc)
        assert "Traceback" not in proc.stderr


class TestCliRegister:
    def test_register_zero_noise(self, pair_dir):
        proc = run_cli("register", "--pair", str(sorted(pair_dir.iterdir())[0]),
                       "--allocator", "mnn")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["error"]["rte"] <= 1e-6
        assert doc["error"]["rre"] <= 1e-4
        assert all(th["success"] for th in doc["thresholds"])


class TestCliRetrieve:
    def test_query_ranks_itself_first(self, tmp_path):
        db_dir = tmp_path / "db"
        db_dir.mkdir()
        for seed in range(4):
            g, _ = generate_scene(SynthConfig(seed=seed, n_objects=(5, 7),
                                              feature_noise_sigma=0.0))
            save_graph(g, db_dir / f"scene{seed}.json")
        query = db_dir / "scene2.json"
        proc = run_cli("retrieve", "--query", str(query), "--db", str(db_dir),
                       "--k", "3", "--rerank", "weighted")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["ranked"][0]["scene_id"] == "scene-2"
        assert all(r["seconds"] is not None for r in doc["ranked"])


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
        proc = run_cli("retrieve", "--query", str(query), "--db", str(db_dir), "--k", "3")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["ranked"][0]["scene_id"] == "scene2"

    def test_embedding_mismatch_exit_2(self, saved_db):
        db_dir, query = saved_db
        path = db_dir / "embeddings.npz"
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["offsets"][2] += 1
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        proc = run_cli("retrieve", "--query", str(query), "--db", str(db_dir))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "scene1" in one_stderr_line(proc)

    def test_unsafe_scene_id_exit_2(self, saved_db):
        db_dir, query = saved_db
        index = json.loads((db_dir / "index.json").read_text())
        index["scenes"][0] = "../scene0"
        (db_dir / "index.json").write_text(json.dumps(index))
        proc = run_cli("retrieve", "--query", str(query), "--db", str(db_dir))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "safe file name" in one_stderr_line(proc)


class TestCliDemoFit:
    def test_loss_drops(self):
        proc = run_cli("demo-fit", "--task", "f2s", "--steps", "60",
                       "--seed", "3")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["final_loss"] < doc["initial_loss"]

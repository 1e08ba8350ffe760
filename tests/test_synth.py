import json
from collections import Counter

import numpy as np
import pytest

from conftest import assert_same_graphs, with_edges
from oracles import rows_of_reference

from sgalign.errors import GenerationError, InvalidInputError
from sgalign.scene_graph import validate_graph
from sgalign.synth import (SynthConfig, generate_scene, load_sample,
                           make_f2s_pair, make_s2s_pair, make_sample,
                           save_sample)


class TestGenerateScene:
    def test_single_object(self):
        g, _ = generate_scene(SynthConfig(seed=1, n_objects=(1, 1)))
        assert len(g.ids) == 1 and len(g.endpoints) == 0

    def test_seed_determinism(self):
        a, _ = generate_scene(SynthConfig(seed=9))
        b, _ = generate_scene(SynthConfig(seed=9))
        assert_same_graphs([a], [b])

    def test_min_separation(self):
        for seed in range(100):
            g, _ = generate_scene(SynthConfig(seed=seed, min_separation=0.3))
            pos = g.positions()
            for i in range(len(pos)):
                for j in range(i + 1, len(pos)):
                    assert np.linalg.norm(pos[i] - pos[j]) >= 0.3

    def test_valid_graphs(self):
        g, _ = generate_scene(SynthConfig(seed=3))
        assert validate_graph(g) == []

    def test_unique_classes_distinct(self):
        g, _ = generate_scene(SynthConfig(seed=5, unique_classes=True))
        assert len(g.labels) == len(set(g.labels))


class TestMakeF2sPair:
    def test_zero_noise_full_view_identity_gt(self):
        cfg = SynthConfig(seed=4, feature_noise_sigma=0.0,
                          position_noise_sigma=0.0, undersegment_prob=0.0,
                          f2s_view_radius=100.0)
        scene, _ = generate_scene(cfg)
        s = make_f2s_pair(scene, cfg)
        assert s.gt.pairs == {(i, i) for i in range(len(scene.ids))}
        assert s.overlap_ratio == 1.0
        assert s.graph_a.frame_kind == "camera"

    def test_forced_undersegmentation(self):
        cfg = SynthConfig(seed=6, undersegment_prob=1.0, f2s_view_radius=100.0)
        scene, _ = generate_scene(cfg)
        s = make_f2s_pair(scene, cfg)
        assert len(s.graph_a.ids) == 2 * len(scene.ids)
        by_b = Counter(b for _, b in s.gt.pairs)
        assert all(v == 2 for v in by_b.values())

    def test_overlap_metadata_recount(self):
        cfg = SynthConfig(seed=8, undersegment_prob=0.2, f2s_view_radius=3.0)
        scene, _ = generate_scene(cfg)
        s = make_f2s_pair(scene, cfg)
        assert s.overlap_ratio == len({a for a, _ in s.gt.pairs}) / len(s.graph_a.ids)

    def test_gt_transform_maps_a_onto_b(self):
        cfg = SynthConfig(seed=11, feature_noise_sigma=0.0,
                          position_noise_sigma=0.0, undersegment_prob=0.0)
        scene, _ = generate_scene(cfg)
        s = make_f2s_pair(scene, cfg)
        a, b = s.graph_a, s.graph_b
        rows = rows_of_reference(b.ids, a.gt_instance)
        assert a.gt_present.all() and (rows >= 0).all()
        target = b.positions()[rows]
        mapped = a.positions() @ s.gt_rotation.T + s.gt_translation
        assert (np.linalg.norm(mapped - target, axis=1) <= 1e-9).all()

    def test_valid_outputs(self):
        cfg = SynthConfig(seed=13, undersegment_prob=0.3)
        s = make_sample("f2s", cfg)
        assert validate_graph(s.graph_a) == []
        assert validate_graph(s.graph_b) == []


class TestMakeS2sPair:
    def test_full_overlap_covers_everything(self):
        cfg = SynthConfig(seed=3, s2s_crop_overlap=1.0, feature_noise_sigma=0.0,
                          position_noise_sigma=0.0)
        scene, _ = generate_scene(cfg)
        s = make_s2s_pair(scene, cfg)
        assert s.overlap_ratio == 1.0
        assert len(s.gt.pairs) == len(scene.ids)
        assert {a for a, _ in s.gt.pairs} == set(s.graph_a.ids.tolist())

    def test_no_many_to_one(self):
        for seed in range(20):
            s = make_sample("s2s", SynthConfig(seed=seed, s2s_crop_overlap=0.6))
            by_b = Counter(b for _, b in s.gt.pairs)
            assert all(v == 1 for v in by_b.values())

    def test_disjoint_crops_empty_gt(self):
        # hunt a seed whose crops share nothing; gt must then be empty
        found = False
        for seed in range(40):
            cfg = SynthConfig(seed=seed, s2s_crop_overlap=0.01,
                              s2s_overlap_tol=0.2)
            scene, _ = generate_scene(cfg)
            try:
                s = make_s2s_pair(scene, cfg)
            except GenerationError:
                continue
            if s.overlap_ratio == 0.0:
                assert s.gt.pairs == set()
                found = True
                break
        assert found

    def test_target_overlap_within_tolerance(self):
        hits = 0
        for seed in range(100):
            cfg = SynthConfig(seed=seed, s2s_crop_overlap=0.5)
            try:
                s = make_sample("s2s", cfg)
            except GenerationError:
                continue
            assert abs(s.overlap_ratio - 0.5) <= 0.15
            hits += 1
        assert hits >= 95

    def test_gt_transform_maps_a_onto_b(self):
        cfg = SynthConfig(seed=21, feature_noise_sigma=0.0,
                          position_noise_sigma=0.0, s2s_crop_overlap=0.7)
        scene, _ = generate_scene(cfg)
        s = make_s2s_pair(scene, cfg)
        a, b = s.graph_a, s.graph_b
        pos_b = {g: x for g, x, present in zip(b.gt_instance.tolist(), b.positions(),
                                               b.gt_present) if present}
        for g, x, present in zip(a.gt_instance.tolist(), a.positions(), a.gt_present):
            if not present or g not in pos_b:
                continue
            mapped = s.gt_rotation @ x + s.gt_translation
            assert np.linalg.norm(mapped - pos_b[g]) <= 1e-9

    def test_yaw_only_rotation(self):
        cfg = SynthConfig(seed=2, s2s_crop_overlap=0.8)
        scene, _ = generate_scene(cfg)
        s = make_s2s_pair(scene, cfg)
        # gravity-aligned frames: relative rotation keeps z fixed
        assert np.allclose(s.gt_rotation @ np.array([0, 0, 1.0]),
                           [0, 0, 1.0], atol=1e-12)


class TestSampleDeterminismAndIo:
    def test_same_seed_identical(self):
        a = make_sample("f2s", SynthConfig(seed=17, undersegment_prob=0.3))
        b = make_sample("f2s", SynthConfig(seed=17, undersegment_prob=0.3))
        assert_same_graphs([a.graph_a, a.graph_b], [b.graph_a, b.graph_b])
        assert a.gt.pairs == b.gt.pairs

    def test_f2s_many_to_one_iff_undersegment(self):
        none = make_sample("f2s", SynthConfig(seed=23, undersegment_prob=0.0))
        assert all(v == 1 for v in Counter(b for _, b in none.gt.pairs).values())

    def test_save_load_round_trip(self, tmp_path):
        s = make_sample("s2s", SynthConfig(seed=29, s2s_crop_overlap=0.6))
        save_sample(s, tmp_path / "pair")
        back = load_sample(tmp_path / "pair")
        assert back.gt.pairs == s.gt.pairs
        assert back.overlap_ratio == s.overlap_ratio
        assert back.task == "s2s"
        assert np.allclose(back.gt_rotation, s.gt_rotation)
        assert_same_graphs([back.graph_a], [s.graph_a])

    def test_load_uses_edge_parameters(self, tmp_path):
        s = make_sample("f2s", SynthConfig(seed=31))
        save_sample(s, tmp_path / "pair")
        path = tmp_path / "pair" / "b.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "edges": None}))
        back = load_sample(tmp_path / "pair", n_max=2, d_th=0.8)
        assert_same_graphs([back.graph_b], [with_edges(s.graph_b, n_max=2, d_th=0.8)])
        assert_same_graphs([back.graph_a], [s.graph_a])

    def test_load_rejects_invalid_graph(self, tmp_path):
        save_sample(make_sample("f2s", SynthConfig(seed=31)), tmp_path / "pair")
        path = tmp_path / "pair" / "a.json"
        doc = json.loads(path.read_text())
        doc["nodes"][0]["f_g"] = [5, -1, 5]
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match="a.json"):
            load_sample(tmp_path / "pair")

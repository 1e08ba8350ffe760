"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import functools
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import run_cli, with_edges
from oracles import brute_force_allocate, solve_mcf

from sgalign.config import PipelineConfig
from sgalign.encoder import BATCH_NODES, encode_graph, node_batches
from sgalign.evaluation import aggregate, bin_by_overlap, sample_metrics
from sgalign.losses import InfoNceInput, TripletInput, info_nce, triplet_loss
from sgalign.matcher import cosine_scores, score_matrix
from sgalign.pipeline import align_graphs, allocate
from sgalign.registration import (RigidTransform, estimate_rigid,
                                  registration_error)
from sgalign.retrieval import (EncodedScene, build_database, encode_scene,
                               rerank, retrieve, topk_filter)
from sgalign.scene_graph import GroundTruthMap, save_graph
from sgalign.synth import (SynthConfig, generate_scene, load_sample, make_sample,
                           save_sample)

GOLDEN_CONFIG = Path(__file__).parent / "data" / "default_config.json"


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nFAIL criterion {num:2d}: {desc}")
                raise
            print(f"\nPASS criterion {num:2d}: {desc}")
        return wrapper
    return deco


def random_so3(rng):
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


@criterion(1, "MCF total cost equals enumeration oracle on 1000 instances")
def test_mcf_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    for trial in range(1000):
        n_a = int(rng.integers(1, 7))
        n_b = int(rng.integers(1, 7))
        cap = [1, 2, None][trial % 3]
        cands, costs = [], {}
        for i in range(n_a):
            k = int(rng.integers(0, min(5, n_b) + 1))
            for j in rng.permutation(n_b)[:k]:
                cands.append((i, int(j)))
                costs[(i, int(j))] = float(rng.uniform(0, 5))
        cands.sort()
        c_un = float(rng.uniform(0.5, 4.0))
        res = solve_mcf(cands, costs, c_un, cap, n_a, n_b)
        best_cost, _ = brute_force_allocate(cands, costs, c_un, cap, n_a, n_b)
        assert abs(res.total_cost - best_cost) <= 2 * n_a / 10 ** 6
        # binary flow, per-A conservation, per-B capacity
        counts_a = Counter(i for i, _ in res.matched)
        assert all(v == 1 for v in counts_a.values())
        assert sorted(res.unmatched_a + list(counts_a)) == list(range(n_a))
        if cap is not None:
            assert all(v <= cap for v in Counter(j for _, j in res.matched).values())
    assert time.perf_counter() - started < 30.0


@criterion(2, "encoder embeddings invariant under 100 rigid transforms")
def test_rigid_invariance(default_weights):
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    for g_seed in range(20):
        graph, _ = generate_scene(SynthConfig(seed=g_seed, n_objects=(8, 20)))
        emb, glob = encode_graph(graph, default_weights)
        for _ in range(5):
            rot = random_so3(rng)
            t = rng.uniform(-10, 10, 3)
            g2 = with_edges(graph, graph_id="m",
                            positions=np.array([rot @ x + t for x in graph.positions()]))
            emb2, glob2 = encode_graph(g2, default_weights)
            assert np.abs(emb - emb2).max() <= 1e-5
            assert np.abs(glob - glob2).max() <= 1e-5
    assert time.perf_counter() - started < 10.0


@criterion(3, "self-alignment F1 = 1.0 on 50 zero-noise scenes, MNN and MCF")
def test_self_alignment_identity(default_weights):
    config = PipelineConfig()
    for seed in range(50):
        scene, _ = generate_scene(SynthConfig(
            seed=seed, feature_noise_sigma=0.0, position_noise_sigma=0.0,
            undersegment_prob=0.0, unique_classes=True))
        emb, _ = encode_graph(scene, default_weights)
        scores = score_matrix(cosine_scores(emb, emb), config.matcher)
        gt = GroundTruthMap({(i, i) for i in scene.ids.tolist()})
        pos = scene.positions()
        for allocator in ("mnn", "mcf"):
            matches = allocate(scores, pos, pos, config, allocator)
            metrics = sample_metrics(matches, gt, len(scene.ids))
            assert metrics.f1 == 1.0, (seed, allocator, metrics)


@criterion(4, "MCF beats MNN recall and recovers every noise-free split pair")
def test_many_to_one_recovery(default_weights):
    config = PipelineConfig()
    mcf_recall, mnn_recall = [], []
    split_groups = 0
    for seed in range(100):
        sample = make_sample("f2s", SynthConfig(
            seed=seed, feature_noise_sigma=0.0, position_noise_sigma=0.0,
            undersegment_prob=0.3, unique_classes=True))
        res_mcf = align_graphs(sample.graph_a, sample.graph_b, default_weights,
                               config, allocator="mcf", validate=False)
        res_mnn = allocate(res_mcf.scores, sample.graph_a.positions(),
                           sample.graph_b.positions(), config, "mnn")
        n_a = len(sample.graph_a.ids)
        mcf_recall.append(sample_metrics(res_mcf.matches, sample.gt, n_a).recall)
        mnn_recall.append(sample_metrics(res_mnn, sample.gt, n_a).recall)
        predicted = res_mcf.matches.pair_set()
        for b, count in Counter(b for _, b in sample.gt.pairs).items():
            if count > 1:
                split_groups += 1
                group = [p for p in sample.gt.pairs if p[1] == b]
                assert all(p in predicted for p in group), (seed, group)
    assert split_groups > 0
    assert np.mean(mcf_recall) > np.mean(mnn_recall)


@criterion(5, "mean F1 non-decreasing over overlap bins (one inversion <= 0.02)")
def test_overlap_trend(default_weights):
    config = PipelineConfig()
    rng = np.random.default_rng(0)
    rows = []
    for k in range(500):
        target = float(rng.uniform(0.05, 1.0))
        sample = make_sample("s2s", SynthConfig(
            seed=5000 + k, feature_noise_sigma=0.1, position_noise_sigma=0.02,
            s2s_crop_overlap=target))
        res = align_graphs(sample.graph_a, sample.graph_b, default_weights,
                           config, allocator="mnn", validate=False)
        metrics = sample_metrics(res.matches, sample.gt,
                                 len(sample.graph_a.ids))
        rows.append((sample.overlap_ratio, metrics))
    bins = bin_by_overlap(rows)
    means = [b["mean"]["f1"] for b in bins if b["count"] > 0]
    assert len(means) >= 2
    inversions = [b - a for a, b in zip(means, means[1:]) if b < a]
    assert len(inversions) <= 1
    assert all(abs(d) <= 0.02 for d in inversions)


@criterion(6, "analytic gradients match finite differences at < 1e-6")
def test_gradient_fidelity():
    rng = np.random.default_rng(11)

    def finite_difference(fn, x, h=1e-5):
        grad = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            grad[idx] = (fn(xp) - fn(xm)) / (2 * h)
            it.iternext()
        return grad

    for _ in range(100):
        n_a, n_b = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        k = int(rng.integers(1, min(n_a, n_b) + 1))
        positives = set(zip(rng.permutation(n_a)[:k].tolist(),
                            rng.permutation(n_b)[:k].tolist()))
        S = rng.uniform(-1, 1, (n_a, n_b))
        _, grad = info_nce(InfoNceInput(S, positives, 0.3))
        fd = finite_difference(
            lambda s: info_nce(InfoNceInput(s, positives, 0.3))[0], S)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-6

    checked = 0
    while checked < 100:
        a, p, n = (rng.uniform(-1, 1, 6) for _ in range(3))
        margin = 0.5
        if abs(np.linalg.norm(a - p) - np.linalg.norm(a - n) + margin) <= 1e-3:
            continue  # kink exclusion
        checked += 1
        _, ga, gp, gn = triplet_loss(TripletInput(a, p, n, margin))
        for which, grad in ((0, ga), (1, gp), (2, gn)):
            def f(x, which=which, a=a, p=p, n=n):
                args = [a, p, n]
                args[which] = x
                return triplet_loss(TripletInput(*args, margin))[0]
            fd = finite_difference(f, [a, p, n][which])
            assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-6


@criterion(7, "retrieval: Recall@K monotone; weighted==direct at unit dots; "
              "self query first")
def test_retrieval_properties(default_weights):
    config = PipelineConfig()
    scenes = []
    for seed in range(50):
        g, _ = generate_scene(SynthConfig(seed=seed, n_objects=(6, 14)))
        scenes.append((f"scene{seed:02d}", g))
    db = build_database(scenes, default_weights)

    # noisy frame queries drawn from each scene
    queries = []
    for seed in range(0, 50, 2):
        sample = make_sample("f2s", SynthConfig(seed=seed, n_objects=(6, 14),
                                                undersegment_prob=0.0))
        queries.append((f"scene{seed:02d}",
                        encode_scene("q", sample.graph_a, default_weights)))

    recalls = []
    for k in (1, 2, 5, 10, 20, 50):
        hits = sum(1 for true_id, q in queries
                   if true_id in topk_filter(q.global_embedding, db, k))
        recalls.append(hits / len(queries))
    assert all(b >= a for a, b in zip(recalls, recalls[1:]))

    # weighted == direct exactly when all global dot products are forced to 1
    basis = np.zeros(default_weights.config.d_model)
    basis[0] = 1.0
    query = EncodedScene("q", db.entries[3].graph,
                         db.entries[3].node_embeddings, basis)
    forced = [EncodedScene(e.scene_id, e.graph, e.node_embeddings,
                           basis.copy()) for e in db.entries]
    weighted = rerank(query, forced, "weighted", config)
    direct = rerank(query, forced, "direct", config)
    assert [(s, v) for s, v, _ in weighted.ranked] == \
           [(s, v) for s, v, _ in direct.ranked]

    # a query drawn from a database scene ranks that scene first (zero noise)
    for idx in (0, 17, 42):
        res = retrieve(db.entries[idx], db, 5, "weighted", config)
        assert res.ranked[0][0] == db.entries[idx].scene_id


@criterion(8, "registration: exact recovery noise-free; 100% success at "
              "strictest bin with noise and outliers")
def test_registration(default_weights):
    rng = np.random.default_rng(3)
    for _ in range(100):
        rot = random_so3(rng)
        t = rng.uniform(-5, 5, 3)
        pts = rng.uniform(0, 6, (12, 3))
        est, _ = estimate_rigid([(p, rot @ p + t) for p in pts], seed=0)
        err = registration_error(est, RigidTransform(rot, t))
        assert err.rre < 1e-6
        assert err.rte < 1e-9

    successes = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        rot = random_so3(rng)
        t = rng.uniform(-5, 5, 3)
        pts = rng.uniform(0, 6, (20, 3))
        pairs = [(p, rot @ p + t + rng.normal(0, 0.01, 3)) for p in pts[:16]]
        pairs += [(p, rng.uniform(0, 6, 3)) for p in pts[16:]]  # 20% outliers
        est, _ = estimate_rigid(pairs, seed=seed)
        err = registration_error(est, RigidTransform(rot, t))
        if err.rte <= 0.5 and err.rre <= 5.0:
            successes += 1
    assert successes == 100


@criterion(9, "default config serializes exactly the documented values")
def test_parameter_fidelity():
    golden = json.loads(GOLDEN_CONFIG.read_text())
    doc = PipelineConfig().to_dict()
    assert doc == golden
    assert doc["mcf"]["tau"] == 0.3
    assert doc["mcf"]["top_k"] == 5
    assert doc["mcf"]["c_unmatched"] == 2.0
    assert doc["mcf"]["lambda"] == 1.0
    assert doc["mcf"]["cap_max"] is None
    assert doc["mcf"]["max_iters"] == 5
    assert doc["encoder"]["heads"] == 8
    assert doc["encoder"]["layers"] == 4
    assert doc["encoder"]["dropout"] == 0.1
    assert doc["encoder"]["d_model"] == 512
    assert doc["edges"]["n_max"] == 4
    assert doc["mnn"]["min_score"] == 0.1


@criterion(10, "align stdout and eval reports byte-identical across runs/jobs")
def test_end_to_end_determinism(tmp_path):
    scene, _ = generate_scene(SynthConfig(seed=31, n_objects=(10, 10),
                                          unique_classes=True))
    graph_path = tmp_path / "g.json"
    save_graph(scene, graph_path)
    first = run_cli("align", str(graph_path), str(graph_path), "--seed", "0", text=False)
    second = run_cli("align", str(graph_path), str(graph_path), "--seed", "0", text=False)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty JSON

    pairs_dir = tmp_path / "pairs"
    for k in range(6):
        sample = make_sample("f2s", SynthConfig(seed=600 + k,
                                                undersegment_prob=0.2))
        save_sample(sample, pairs_dir / f"s{k:02d}")
    reports = []
    for jobs in ("1", "8"):
        out = tmp_path / f"report_{jobs}.json"
        proc = run_cli("eval", "--pairs", str(pairs_dir), "--allocator", "mcf",
                       "--jobs", jobs, "--out", str(out), text=False)
        assert proc.returncode == 0, proc.stderr.decode()
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_batched_eval_equals_per_pair_alignment(tmp_path, default_weights):
    """Criterion 10 for the batched eval: a directory spanning several
    encoder batches gives the same bytes at every --jobs, equal to a report
    built from one align_graphs call per pair."""
    pairs_dir = tmp_path / "pairs"
    # Eight pairs per 64 nodes of budget (about 22 nodes a pair): three or
    # more batches at any BATCH_NODES.
    for k in range(8 * BATCH_NODES // 64):
        save_sample(make_sample("f2s", SynthConfig(seed=700 + k)),
                    pairs_dir / f"p{k:02d}")
    dirs = sorted(pairs_dir.iterdir())
    samples = [load_sample(d) for d in dirs]
    batches = list(node_batches(samples, lambda s: len(s.graph_a.ids)
                                + len(s.graph_b.ids)))
    assert len(batches) >= 3

    outputs = []
    for jobs in ("1", "2", "8"):
        proc = run_cli("eval", "--pairs", str(pairs_dir), "--allocator", "mcf",
                       "--jobs", jobs, text=False)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]

    config = PipelineConfig()
    rows = []
    for d, sample in zip(dirs, samples):
        result = align_graphs(sample.graph_a, sample.graph_b, default_weights,
                              config, allocator="mcf", validate=False)
        metrics = sample_metrics(result.matches, sample.gt, len(sample.graph_a.ids))
        rows.append(({"sample": d.name, "overlap": sample.overlap_ratio,
                      "task": sample.task, **metrics.to_dict()},
                     (sample.overlap_ratio, metrics)))
    report = {
        "overall": aggregate([m for _, (_, m) in rows]),
        "bins": bin_by_overlap([om for _, om in rows]),
        "per_sample": [r for r, _ in rows],
        "meta": {"weights": None, "seed": 0, "allocator": "mcf",
                 "n_samples": len(rows)},
    }
    assert outputs[0].decode() == json.dumps(report, sort_keys=True) + "\n"

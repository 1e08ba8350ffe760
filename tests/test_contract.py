"""The contract of the public calls: a valid base call of each name that
`sgalign` exports (and of the other public calls that refusals reach), and
FOLDED, one table of refusals. A row (case id, call, {argument: value},
message[, error]) replaces base arguments by name and asserts the exact
message and class (InvalidInputError unless named) with `encoder._node_pass`
and `retrieval._read_archive` patched to fail, so no work precedes the
refusal. A new refusal is one row. Rows are grouped by the test that runs
them: a test of another file keeps its id there (conftest's collection hook
calls `keep_ids`); the rows new with the table run here, as `test_refusal`."""

import inspect
import json
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sgalign
from sgalign import *  # noqa: F403  (every export has a base call)
from sgalign import encoder, retrieval
from sgalign.errors import (DOCUMENT_KEYS, DegenerateGeometryError, GenerationError,
                            InvalidInputError, NumericError, ShapeError)
from sgalign.retrieval import encode_scene, weights_fingerprint
from sgalign.scene_graph import GraphBatch
from conftest import graph_columns, with_columns


def scene(seed: int, n: int, dims=(10, 12)) -> SceneGraph:
    return generate_scene(SynthConfig(seed=seed, n_objects=(n, n), feature_dims=dims))[0]


def shared_args(weights: EncoderWeights, directory: Path) -> SimpleNamespace:
    """The arguments the base calls share: small weights, graphs, a
    database of three scenes, a sample, and their files under `directory`."""
    graphs = [scene(seed, 8) for seed in range(3)]
    db = build_database([(f"scene{k:02d}", g) for k, g in enumerate(graphs)], weights)
    a = SimpleNamespace(
        w=weights, g=graphs[0], g2=graphs[1], db=db, q=db.entries[0], c=db.entries[1],
        P=np.full((2, 2), 0.5), pairs=[(p, p) for p in np.random.default_rng(0).random((6, 3))],
        sample=make_sample("f2s", SynthConfig(seed=2, n_objects=(6, 6), undersegment_prob=0.0)),
        metrics=SampleMetrics(1.0, 1.0, 1.0, 1.0, 1, 0, 0, 0), dir=directory,
        columns={**graph_columns(scene(0, 3, (4, 5))), "endpoints": np.array([[0, 1], [1, 2]]),
                 "edge_distances": np.ones(2)})
    save_database(db, directory / "db", weights)
    save_weights(weights, directory / "w.npz")
    save_graph(a.g, directory / "g.json")
    save_sample(a.sample, directory / "sample")
    (directory / "config.json").write_text(json.dumps(PipelineConfig().to_dict()))
    return a


def base_calls(a: SimpleNamespace) -> dict:
    """One valid call of each public name, as (function, bound arguments)."""
    def call(func, *args, **kwargs):
        return func, inspect.signature(func).bind(*args, **kwargs)
    gate = {"w1": np.zeros((4, 1)), "b1": np.zeros(4), "w2": np.zeros((1, 4)), "b2": np.zeros(1)}
    rigid = RigidTransform(np.eye(3), np.zeros(3))
    return {
        "MatchSet": call(MatchSet, [(0, 0, 0.9)], [1]),
        "McfParams": call(McfParams),
        "MnnParams": call(MnnParams),
        "candidate_set": call(candidate_set, a.P, 0.3, 2),
        "mcf_allocate": call(mcf_allocate, a.P, np.zeros((2, 3)), np.zeros((2, 3)), McfParams()),
        "mnn_allocate": call(mnn_allocate, a.P, MnnParams()),
        "PipelineConfig": call(PipelineConfig),
        "load_config": call(load_config, a.dir / "config.json"),
        "EncoderConfig": call(EncoderConfig),
        "EncoderWeights": call(EncoderWeights, a.w.config, a.w.tensors, seed=7),
        "distance_gate": call(distance_gate, 1.0, gate),
        "encode_graph": call(encode_graph, a.g, a.w),
        "encode_graphs": call(encode_graphs, [a.g, a.g2], a.w),
        "encode_nodes": call(encode_nodes, [a.g, a.g2], a.w),
        "encode_scene": call(encode_scene, "q", a.g, a.w),
        "init_weights": call(init_weights, a.w.config, 0),
        "initial_embeddings": call(initial_embeddings, [a.g], a.w),
        "load_weights": call(load_weights, a.dir / "w.npz"),
        "save_weights": call(save_weights, a.w, a.dir / "saved.npz"),
        "weights_fingerprint": call(weights_fingerprint, a.w),
        "sinusoidal_pe": call(sinusoidal_pe, 1.0, 8),
        "AlignmentSample": call(AlignmentSample, a.g, a.g2, GroundTruthMap({(0, 0)})),
        "SampleMetrics": call(SampleMetrics, 1.0, 1.0, 1.0, 1.0, 1, 0, 0, 0),
        "aggregate": call(aggregate, [a.metrics]),
        "bin_by_overlap": call(bin_by_overlap, [(0.5, a.metrics)]),
        "sample_metrics": call(sample_metrics, MatchSet([], [0]), GroundTruthMap(), 1),
        "InfoNceInput": call(InfoNceInput, np.eye(2), {(0, 0)}),
        "TripletInput": call(TripletInput, np.zeros(3), np.ones(3), np.ones(3)),
        "hard_negative_mine": call(hard_negative_mine, np.ones(3), 0, [np.ones(3), np.zeros(3)]),
        "info_nce": call(info_nce, InfoNceInput(np.eye(2), {(0, 0)})),
        "toy_embedding_fit": call(toy_embedding_fit, a.sample, steps=1),
        "triplet_loss": call(triplet_loss, TripletInput(np.zeros(3), np.ones(3), -np.ones(3))),
        "MatcherParams": call(MatcherParams),
        "ScoreMatrix": call(ScoreMatrix, a.P, np.zeros(2), np.zeros(2)),
        "cosine_scores": call(cosine_scores, np.eye(3), np.eye(3)),
        "score_matrix": call(score_matrix, np.eye(2), MatcherParams()),
        "AlignmentResult": call(AlignmentResult, MatchSet([], [0]), score_matrix(np.eye(1)),
                                np.eye(1), np.eye(1)),
        "align_graphs": call(align_graphs, a.g, a.g2, a.w, PipelineConfig()),
        "RegistrationError": call(RegistrationError, 0.0, 0.0),
        "RigidTransform": call(RigidTransform, np.eye(3), np.zeros(3)),
        "estimate_rigid": call(estimate_rigid, a.pairs),
        "registration_error": call(registration_error, rigid, rigid),
        "SceneDatabase": call(SceneDatabase, entries=[a.q, a.c]),
        "build_database": call(build_database, [("s", a.g)], a.w),
        "global_similarity": call(global_similarity, a.q.global_embedding, a.c.global_embedding),
        "load_database": call(load_database, a.dir / "db", a.w),
        "rerank": call(rerank, a.q, [a.c], "direct", PipelineConfig()),
        "retrieve": call(retrieve, a.q, a.db, 1, "direct", PipelineConfig()),
        "save_database": call(save_database, a.db, a.dir / "saved_db", a.w),
        "topk_filter": call(topk_filter, a.q.global_embedding, a.db, np.int64(1)),
        "GroundTruthMap": call(GroundTruthMap, {(0, 0)}),
        "SceneGraph": call(SceneGraph, "g", "world", **a.columns),
        "GraphBatch.of": call(GraphBatch.of, [a.g, a.g2]),
        "build_edges": call(build_edges, np.arange(2), np.zeros((2, 3))),
        "load_graph": call(load_graph, a.dir / "g.json"),
        "read_graph": call(read_graph, a.dir / "g.json"),
        "save_graph": call(save_graph, a.g, a.dir / "saved.json"),
        "validate_graph": call(validate_graph, a.g),
        "SynthConfig": call(SynthConfig),
        "generate_scene": call(generate_scene, SynthConfig(seed=0, n_objects=(6, 6))),
        "load_sample": call(load_sample, a.dir / "sample"),
        "make_f2s_pair": call(make_f2s_pair, a.g, SynthConfig(seed=1)),
        "make_s2s_pair": call(make_s2s_pair, a.g, SynthConfig(seed=1)),
        "make_sample": call(make_sample, "f2s", SynthConfig(seed=1, n_objects=(6, 6))),
        "save_sample": call(save_sample, a.sample, a.dir / "saved_sample"),
    }


INF, NAN = float("inf"), float("nan")


def numbers(name: str) -> re.Pattern:
    """as_array's refusal of `name`; NumPy's own words after it vary with its version."""
    return re.compile(rf"{re.escape(name)} is not an array of numbers \(.+\)")


FOLDED = {
    "test_allocator.py::TestCandidateSet::test_bad_params_refused": [
        (f"{tau}-{top_k}-{message}", "candidate_set", {"tau": tau, "top_k": top_k}, message)
        for tau, top_k, message in [
            (0.3, -1, "candidate_set: top_k must be >= 1, got -1"),
            (0.3, 0, "candidate_set: top_k must be >= 1, got 0"),
            (0.3, 2.5, "candidate_set: top_k must be an integer, got 2.5"),
            (NAN, 2, "candidate_set: tau must be in [0, 1], got nan"),
            (1.5, 2, "candidate_set: tau must be in [0, 1], got 1.5"),
            ("0.3", 2, "candidate_set: tau must be a number, got '0.3'")]],
    "test_allocator.py::test_bad_p_refused": [
        (f"P{k}-{message}-{case}", name, {"P": P}, message)
        for k, (P, message) in enumerate([
            (np.array([[2.0]]), "P must be in [0, 1], got 2.0"),
            (np.array([[0.5, -0.1]]), "P must be in [0, 1], got -0.1"),
            (np.array([[0.5], [NAN]]), "P must be in [0, 1], got nan"),
            (np.array([[INF]]), "P must be in [0, 1], got inf"),
            (np.zeros(3), "P must be 2-D, got shape (3,)"),
            (np.zeros((1, 1, 1)), "P must be 2-D, got shape (1, 1, 1)")])
        for case, name in [("mnn", "mnn_allocate"), ("mcf", "mcf_allocate"),
                           ("candidate_set", "candidate_set")]],
    "test_allocator.py::TestMcfAllocate::test_invalid_p_rejected": [
        (str(bad), "mcf_allocate", {"P": np.array([[0.9, 0.2], [0.3, bad]])},
         f"P must be in [0, 1], got {bad}") for bad in (NAN, INF, -INF, -0.1, 1.5)],
    "test_allocator.py::TestMcfAllocate::test_param_validation": [
        (None, "McfParams", {"tau": 1.5}, "tau must be in [0, 1], got 1.5"),
        (None, "McfParams", {"max_iters": 0}, "max_iters must be >= 1, got 0"),
        *[(None, "McfParams", {field: bad}, f"{DOCUMENT_KEYS.get(field, field)} must be finite, "
           f"got {bad}") for bad in (INF, NAN) for field in ("c_unmatched", "lam")],
        (None, "MnnParams", {"min_score": -0.1}, "min_score must be in [0, 1], got -0.1")],
    "test_allocator.py::TestMcfAllocate::test_p_must_be_2d": [
        (None, "mcf_allocate", {"P": np.array([0.5, 0.5])}, "P must be 2-D, got shape (2,)")],
    # at lambda 0 the positions are never read, and they are refused all the same
    "test_allocator.py::TestMcfAllocate::test_position_shapes_refused": [
        (f"shape_a{k}-shape_b{k}-{pos} must have shape (2, 3), got {shape}", "mcf_allocate",
         {pos: np.zeros(shape), "params": McfParams(lam=lam)},
         f"mcf_allocate: {pos} must have shape (2, 3), got {shape}")
        for k, (pos, shape) in enumerate([("pos_a", (3, 3)), ("pos_a", (2, 2)), ("pos_b", (6,)),
                                          ("pos_b", (2, 3, 1))])
        for lam in (1.0, 0.0)],
    "test_encoder.py::TestSinusoidalPe::test_negative_rejected": [
        (None, "sinusoidal_pe", {"d": -0.1},
         "sinusoidal_pe: distance must be finite and >= 0, got -0.1")],
    "test_encoder.py::TestSinusoidalPe::test_non_number_rejected": [
        ("a", "sinusoidal_pe", {"d": "a"}, numbers("sinusoidal_pe: distance")),
        ("d1", "sinusoidal_pe", {"d": [[1.0, 2.0], [3.0]]}, numbers("sinusoidal_pe: distance")),
        ("None", "sinusoidal_pe", {"d": None},
         "sinusoidal_pe: distance must be finite and >= 0, got nan")],
    "test_encoder.py::TestSinusoidalPe::test_bad_pe_dim_rejected": [
        (str(pe_dim), "sinusoidal_pe", {"pe_dim": pe_dim},
         f"sinusoidal_pe: pe_dim must be {rule}, got {pe_dim}")
        for pe_dim, rule in [(-2, "even and >= 2"), (0, "even and >= 2"), (7, "even and >= 2"),
                             (2.0, "an integer")]],
    "test_encoder.py::TestDistanceGate::test_negative_rejected": [
        (None, "distance_gate", {"d": -1.0},
         "distance_gate: distance must be finite and >= 0, got -1.0")],
    "test_encoder.py::TestInitialEmbed::test_shape_error": [
        (None, "initial_embeddings", lambda a: {"graphs": [scene(0, 3, (3, 12))]},
         "graph 'scene-0': feature dims [3, 12] do not match config dims [10, 12]", ShapeError)],
    "test_encoder.py::TestNotAGraph::test_encode_nodes": [
        (None, "encode_nodes", {"graphs": [1]}, "graphs[0] is not a SceneGraph, got int")],
    "test_encoder.py::TestNotAGraph::test_encode_graphs": [
        (None, "encode_graphs", {"graphs": "ab"}, "graphs[0] is not a SceneGraph, got str")],
    "test_encoder.py::TestNotAGraph::test_encode_scene": [
        (None, "encode_scene", {"graph": None}, "graphs[0] is not a SceneGraph, got NoneType")],
    "test_encoder.py::TestNotAGraph::test_build_database": [
        (f"scenes{k}", "build_database", lambda a, bad=bad: {"scenes": [("g", a.g), bad]},
         "scenes[1] is not a (scene_id, SceneGraph) pair")
        for k, bad in enumerate([("a", 3), ("a",)])],
    "test_encoder.py::TestEncoderConfig::test_heads_must_divide_d_model": [
        (None, "EncoderConfig", {"d_model": 33, "heads": 8},
         "d_model 33 not divisible by heads 8")],
    "test_encoder.py::TestEncoderConfig::test_pe_dim_must_be_even": [
        (None, "EncoderConfig", {"pe_dim": 7}, "pe_dim must be even and >= 2, got 7")],
    "test_encoder.py::TestEncoderConfig::test_dropout_range": [
        (None, "EncoderConfig", {"dropout": 1.0}, "dropout must be in [0, 1), got 1.0")],
    "test_encoder.py::TestEncoderConfig::test_sizes_must_be_positive": [
        (f"{value}-{field}", "EncoderConfig", {field: value},
         f"{field} must be {'even and >= 2' if field == 'pe_dim' else '>= 1'}, got {value}")
        for value in (0, -8)
        for field in ("pe_dim", "heads", "d_model", "gate_hidden", "geo_hidden")],
    "test_encoder.py::TestEncoderConfig::test_feature_dims_must_be_two_positive_sizes": [
        (f"dims{k}", "EncoderConfig", {"feature_dims": dims},
         f"feature_dims must be two integers >= 1, got {dims!r}")
        for k, dims in enumerate([(0, 384), (256, -1), (256,)])],
    "test_encoder.py::TestInitWeightsArguments::test_bad_seed_refused": [
        (case, "init_weights", {"seed": seed}, f"init_weights: seed must be {rule}, got {seed!r}")
        for case, seed, rule in [("negative", -1, ">= 0"), ("float", 1.5, "an integer"),
                                 ("str", "a", "an integer"), ("bool", True, "an integer"),
                                 ("none", None, "an integer")]],
    "test_encoder.py::TestInitWeightsArguments::test_config_must_be_encoder_config": [
        (None, "init_weights", {"config": None},
         "init_weights: config is not an EncoderConfig, got NoneType")],
    "test_encoder.py::TestWeightsSeed::test_string_seed_refused": [
        (None, "EncoderWeights", {"seed": "x"},
         "EncoderWeights: seed must be an integer, got 'x'")],
    "test_encoder.py::TestWeightsSeed::test_negative_seed_refused": [
        (None, "EncoderWeights", {"seed": -5}, "EncoderWeights: seed must be >= 0, got -5")],
    "test_evaluation.py::TestSampleMetrics::test_zero_nodes_rejected": [
        (None, "sample_metrics", {"n_a": 0}, "sample_metrics: n_a must be >= 1, got 0")],
    "test_evaluation.py::TestAggregate::test_empty_rejected": [
        (None, "aggregate", {"samples": []}, "aggregate: empty sample list")],
    "test_losses.py::TestInfoNce::test_no_positives_rejected": [
        (None, "info_nce", {"inp": InfoNceInput(np.zeros((2, 2)), set())},
         "info_nce requires at least one positive pair")],
    "test_losses.py::TestInfoNce::test_one_positive_per_row_and_column": [
        (None, "InfoNceInput", {"similarities": np.zeros((2, 2)), "positives": positives},
         "bidirectional form needs at most one positive per row and column")
        for positives in ({(0, 0), (0, 1)}, {(0, 0), (1, 0)})],
    "test_losses.py::TestInfoNce::test_bad_temperature_rejected": [
        (str(t), "InfoNceInput", {"temperature": t}, f"temperature must be finite and > 0, got {t}")
        for t in (0.0, -0.1, NAN, INF)],
    "test_losses.py::TestInfoNce::test_bad_arguments_rejected": [
        ("similarities0-positives0-InfoNceInput: similarities must be 2-D, got shape (3,)",
         "InfoNceInput", {"similarities": np.ones(3), "positives": set()},
         "InfoNceInput: similarities must be 2-D, got shape (3,)"),
        ("abc-positives1-InfoNceInput: similarities is not an array of numbers", "InfoNceInput",
         {"similarities": "abc", "positives": set()}, numbers("InfoNceInput: similarities")),
        *[(f"similarities{k}-positives{k}-{shown}a positive must be a (row, column) pair, "
           f"got {got}",
           "InfoNceInput", {"positives": positives},
           f"InfoNceInput: a positive must be a (row, column) pair, got {got}")
          for k, shown, positives, got in [(2, "InfoNceInput: ", {(1,)}, "(1,)"),
                                           (3, "", {(0, 1, 1)}, "(0, 1, 1)"), (4, "", [0], "0")]]],
    "test_losses.py::TestInfoNce::test_non_integer_positive_refused": [
        (f"positive{k}-{member}", "InfoNceInput", {"positives": [positive]},
         f"InfoNceInput: a positive {positive!r}: a member must be an integer within int64, "
         f"got {member}")
        for k, (positive, member) in enumerate([((0.5, 1), "0.5"), (("a", 1), "'a'"),
                                                ((True, 0), "True"), ((0, [1]), "[1]")])],
    "test_losses.py::TestTripletLoss::test_bad_margin_rejected": [
        (str(m), "TripletInput", {"margin": m}, f"margin must be finite and > 0, got {m}")
        for m in (0.0, -0.5, NAN, INF)],
    "test_losses.py::TestTripletLoss::test_bad_vectors_rejected": [
        (f"vectors{k}-{shown}", "TripletInput", dict(zip(("anchor", "positive", "negative"),
                                                        vectors)), (exact or [shown])[0])
        for k, (vectors, shown, *exact) in enumerate([
            ((np.ones(3), np.ones(4), np.ones(3)),
             "TripletInput: anchor has width 3 and positive width 4; they must be the same"),
            ((np.ones(3), np.ones(3), np.ones(2)),
             "TripletInput: anchor has width 3 and negative width 2; they must be the same"),
            (("a", "b", "c"), "TripletInput: anchor is not an array of numbers",
             numbers("TripletInput: anchor")),
            ((np.ones((2, 3)),) * 3, "TripletInput: anchor must be 1-D, got shape (2, 3)")])],
    "test_losses.py::TestHardNegativeMine::test_bad_pool_rejected": [
        ("pool0-hard_negative_mine: anchor has width 3 and pool[1] width 4; they must be the same",
         "hard_negative_mine", {"pool": [np.ones(3), np.ones(4)]},
         "hard_negative_mine: anchor has width 3 and pool[1] width 4; they must be the same"),
        ("pool1-anchor has width 3 and pool[0] width 2", "hard_negative_mine",
         {"pool": [np.ones(2), np.ones(3)]},
         "hard_negative_mine: anchor has width 3 and pool[0] width 2; they must be the same"),
        ("pool2-hard_negative_mine: pool[1] is not an array of numbers", "hard_negative_mine",
         {"pool": [np.ones(3), "x"]}, numbers("hard_negative_mine: pool[1]"))],
    "test_losses.py::TestHardNegativeMine::test_exhausted_pool": [
        (None, "hard_negative_mine", {"anchor": np.zeros(2), "pool": [np.ones(2)]},
         "hard_negative_mine: pool has no non-positive entry")],
    "test_losses.py::TestToyEmbeddingFit::test_bad_argument_rejected": [
        (f"{field}-{value}", "toy_embedding_fit", {field: value},
         f"toy_embedding_fit: {field} must be {rule}, got {value}")
        for field, value, rule in [("steps", 2.5, "an integer"), ("steps", -1, ">= 0"),
                                   ("lr", NAN, "finite and >= 0"), ("lr", -0.1, "finite and >= 0"),
                                   ("dim", 0, ">= 1"), ("dim", 2.5, "an integer"),
                                   ("seed", -1, ">= 0")]],
    "test_matcher.py::TestCosineScores::test_zero_vector_names_index": [
        (None, "cosine_scores", {"emb_a": np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 1]])},
         "cosine_scores: zero-norm embedding a[1]", NumericError)],
    "test_matcher.py::TestScoreMatrixDualSoftmax::test_bad_temperature": [
        (None, "MatcherParams", {"temperature": 0.0},
         "temperature must be finite and > 0, got 0.0")],
    "test_matcher.py::TestScoreMatrixDualSoftmax::test_non_finite_param_rejected": [
        (f"{field}-{value}", "MatcherParams", {field: value},
         f"{field} must be {rule}, got {value}")
        for field, value, rule in [("temperature", NAN, "finite and > 0"),
                                   ("temperature", INF, "finite and > 0"),
                                   ("dustbin_logit", NAN, "finite"),
                                   ("dustbin_logit", -INF, "finite")]],
    "test_matcher.py::TestScoreMatrixDualSoftmax::test_non_finite_rejected": [
        (None, "score_matrix", {"S": np.array([[NAN]])}, "score_matrix: non-finite similarities")],
    "test_matcher.py::test_non_2d_refused": [
        ("cosine_a", "cosine_scores", {"emb_a": np.ones(3), "emb_b": np.ones(3)},
         "cosine_scores: emb_a must be 2-D, got shape (3,)"),
        ("cosine_b", "cosine_scores", {"emb_a": np.ones((2, 3)), "emb_b": np.ones((1, 2, 3))},
         "cosine_scores: emb_b must be 2-D, got shape (1, 2, 3)"),
        ("score_1d", "score_matrix", {"S": np.ones(3)},
         "score_matrix: S must be 2-D, got shape (3,)"),
        ("score_0d", "score_matrix", {"S": np.float64(0.5)},
         "score_matrix: S must be 2-D, got shape ()")],
    "test_matcher.py::test_mismatch_refused": [
        (case, "cosine_scores", {"emb_a": emb_a, "emb_b": np.ones((2, 4))}, message)
        for case, emb_a, message in [
            ("widths", np.ones((2, 3)), "cosine_scores: emb_a has width 3 and emb_b width 4; they "
                                        "must be the same"),
            ("empty_side", np.ones((0, 3)), "cosine_scores: emb_a has width 3 and emb_b width 4; "
                                            "they must be the same"),
            ("strings", [["a"]], numbers("cosine_scores: emb_a"))]],
    # NumPy refuses the 36 TiB sample array at once, touching no memory
    "test_registration.py::TestEstimateRigid::test_unallocatable_iters_refused": [
        (None, "estimate_rigid", {"iters": 10 ** 12},
         re.compile(r"estimate_rigid: iters 1000000000000 samples cannot be allocated: .+"))],
    "test_registration.py::TestEstimateRigid::test_too_few_pairs": [
        (None, "estimate_rigid", {"pairs": [(np.zeros(3), np.zeros(3))] * 2},
         "estimate_rigid needs >= 3 pairs, got 2")],
    "test_registration.py::TestEstimateRigid::test_collinear_rejected": [
        (None, "estimate_rigid", {"pairs": [(np.array([i, 0.0, 0]), np.array([i, 1.0, 0]))
                                            for i in range(5)]},
         "A positions are collinear", DegenerateGeometryError)],
    "test_registration.py::TestEstimateRigid::test_bad_iters_rejected": [
        (str(iters), "estimate_rigid", {"iters": iters},
         f"estimate_rigid: iters must be {rule}, got {iters!r}")
        for iters, rule in [(-1, ">= 1"), (0, ">= 1"), (2.5, "an integer"), ("7", "an integer"),
                            (None, "an integer"), (True, "an integer")]],
    "test_registration.py::TestEstimateRigid::test_bad_inlier_eps_rejected": [
        (str(eps), "estimate_rigid", {"inlier_eps": eps},
         f"estimate_rigid: inlier_eps must be {rule}, got {eps!r}")
        for eps, rule in [(NAN, "finite and >= 0"), (INF, "finite and >= 0"),
                          (-1.0, "finite and >= 0"), (None, "a number"), ("0.2", "a number")]],
    "test_registration.py::TestEstimateRigid::test_non_finite_point_rejected": [
        (f"{bad}-{side}", "estimate_rigid",
         lambda a, pair=[np.zeros(3)] * side + [np.array([0, bad, 0])] + [np.zeros(3)] * (1 - side):
             {"pairs": a.pairs + [pair]},
         f"{'AB'[side]} positions must be finite, got {bad}")
        for bad in (NAN, INF) for side in (0, 1)],
    "test_registration.py::TestEstimateRigid::test_2d_points_rejected_as_shape": [
        (None, "estimate_rigid", {"pairs": [(p, p) for p in np.zeros((6, 2))]},
         "A positions must be (n, 3), got shape (6, 2)")],
    "test_registration.py::TestEstimateRigid::test_ragged_points_rejected": [
        (None, "estimate_rigid", lambda a: {"pairs": a.pairs + [(np.zeros(2), np.zeros(3))]},
         numbers("estimate_rigid: A positions"))],
    "test_registration.py::TestEstimateRigid::test_malformed_pair_refused": [
        (f"{case}-{shown}", "estimate_rigid", lambda a, bad=bad: {"pairs": a.pairs + [bad]},
         message)
        for case, bad, shown, message in [
            ("bad0", (np.zeros(3), "abc"), "estimate_rigid: B positions is not an array of numbers",
             numbers("estimate_rigid: B positions")),
            ("bad1", (np.zeros(3),), "estimate_rigid: a pair has no B position",
             "estimate_rigid: a pair has no B position (tuple index out of range)"),
            ("None", None, "estimate_rigid: a pair has no A position",
             "estimate_rigid: a pair has no A position ('NoneType' object is not subscriptable)")]],
    "test_registration.py::TestRigidTransform::test_shapes_refused": [
        (f"{case}-{message}", "RigidTransform", overrides,
         numbers("RigidTransform: R") if case == "abc-t4" else f"RigidTransform: {message}")
        for case, overrides, message in [
            ("R0-t0", {"t": np.zeros(2)}, "t must have shape (3,), got (2,)"),
            ("R1-t1", {"t": np.zeros((3, 1))}, "t must have shape (3,), got (3, 1)"),
            ("R2-t2", {"R": np.eye(2)}, "R must have shape (3, 3), got (2, 2)"),
            ("R3-t3", {"R": np.eye(3).ravel()}, "R must have shape (3, 3), got (9,)"),
            ("abc-t4", {"R": "abc"}, "R is not an array of numbers")]],
    "test_retrieval.py::TestGlobalSimilarity::test_mismatch_refused": [
        (f"{case}-{message}", "global_similarity", {"q": q, "t": t},
         numbers("global_similarity: t") if case == "q3-t3" else f"global_similarity: {message}")
        for case, q, t, message in [
            ("q0-t0", np.ones(3), np.ones(4), "q has width 3 and t width 4; they must be the same"),
            ("q1-t1", np.ones((1, 3)), np.ones(3), "q must be 1-D, got shape (1, 3)"),
            ("q2-1.0", np.ones(3), 1.0, "t must be 1-D, got shape ()"),
            ("q3-t3", np.ones(3), ["a", "b", "c"], "t is not an array of numbers")]],
    "test_retrieval.py::TestTopkFilter::test_k_validation": [
        (None, "topk_filter", {"k": 0}, "topk_filter: k must be >= 1, got 0"),
        (None, "topk_filter", {"k": 2.5}, "topk_filter: k must be an integer, got 2.5")],
    "test_retrieval.py::TestTopkFilter::test_globals_of_another_width_refused": [
        (None, "topk_filter", lambda a: {"query_global": np.ones(31), "db": SceneDatabase(
            entries=[replace(a.q, scene_id=f"s{k}") for k in range(12)])},
         "topk_filter: database globals must have shape (12, 31), got (12, 32)")],
    "test_retrieval.py::TestRerank::test_empty_candidates_rejected": [
        (None, "rerank", {"candidates": []}, "rerank: no candidates")],
    "test_retrieval.py::TestArgumentTypes::test_refused": [
        ("candidate", "rerank", lambda a: {"candidates": [a.c, a.c, None]},
         "candidates[2] is not an EncodedScene, got NoneType"),
        ("only candidate", "rerank", {"candidates": [None]},
         "candidates[0] is not an EncodedScene, got NoneType"),
        ("candidates", "rerank", {"candidates": 5}, "candidates is not a list, got int"),
        ("rerank query", "rerank", {"query": None}, "query is not an EncodedScene, got NoneType"),
        ("candidate graph", "rerank", lambda a: {"candidates": [a.c, replace(a.c, graph=None)]},
         "candidates[1].graph is not a SceneGraph, got NoneType"),
        ("query graph", "rerank", lambda a: {"query": replace(a.q, graph="graph")},
         "query.graph is not a SceneGraph, got str"),
        ("topk db", "topk_filter", {"db": None}, "db is not a SceneDatabase, got NoneType"),
        ("retrieve db", "retrieve", {"db": None}, "db is not a SceneDatabase, got NoneType"),
        ("retrieve query", "retrieve", {"query": None},
         "query is not an EncodedScene, got NoneType"),
        ("entry", "SceneDatabase", lambda a: {"entries": [a.q, None]},
         "entries[1] is not an EncodedScene, got NoneType"),
        ("entries", "SceneDatabase", {"entries": 5}, "entries is not a list, got int")],
    "test_retrieval.py::TestPublicCallTypes::test_refused": [
        ("build_database scenes", "build_database", {"scenes": None},
         "scenes is not a list, got NoneType"),
        ("build_database scene id", "build_database",
         lambda a: {"scenes": [("s", a.g)] * 12 + [(3, a.g)]},
         "scenes[12] scene id is not a str, got int"),
        ("save_database db", "save_database", {"db": None},
         "db is not a SceneDatabase, got NoneType"),
        *[(case, case.split()[0], {"weights": None},
           "weights is not an EncoderWeights, got NoneType") for case in [
            "build_database weights", "save_database weights", "load_database weights",
            "weights_fingerprint", "save_weights", "encode_nodes", "encode_graph", "encode_scene",
            "initial_embeddings", "align_graphs weights"]],
        *[(f"{name} config", name, {"config": None}, "config is not a PipelineConfig, got NoneType")
          for name in ("align_graphs", "rerank", "retrieve")],
        ("score_matrix params", "score_matrix", {"S": np.zeros((2, 2)), "params": None},
         "params is not a MatcherParams, got NoneType"),
        ("mnn_allocate params", "mnn_allocate", {"params": None},
         "params is not a MnnParams, got NoneType"),
        ("mcf_allocate params", "mcf_allocate", {"params": None},
         "params is not a McfParams, got NoneType"),
        ("list scene id", "SceneDatabase",
         lambda a: {"entries": [a.q, replace(a.c, scene_id=["a"])]},
         "entries[1].scene_id is not a str, got list"),
        ("int scene id", "SceneDatabase", lambda a: {"entries": [replace(a.q, scene_id=3)]},
         "entries[0].scene_id is not a str, got int")],
    "test_retrieval.py::TestPersistence::test_duplicate_ids_rejected": [
        (None, "SceneDatabase", lambda a: {"entries": [a.q, a.c, a.c, a.q]},
         "database: scene id 'scene01' is listed twice")],
    "test_scene_graph.py::TestBuildEdges::test_invalid_params": [
        (None, "build_edges", {name: value}, f"build_edges: {name} must be {rule}, got {value}")
        for name, value, rule in [("n_max", 0, ">= 1"), ("d_th", 0.0, "> 0"), ("d_th", NAN, "> 0"),
                                  ("n_max", 2.5, "an integer")]],
    "test_scene_graph.py::TestBuildEdges::test_shapes_refused": [
        (f"ids{k}-positions{k}-{message}", "build_edges", {"ids": ids, "positions": positions},
         f"build_edges: {message}")
        for k, (ids, positions, message) in enumerate([
            ([0, 1], np.zeros((2, 2)), "positions must have shape (2, 3), got (2, 2)"),
            ([0, 1, 2], np.zeros((2, 3)), "positions must have shape (3, 3), got (2, 3)"),
            ([0, 1], np.zeros(6), "positions must have shape (2, 3), got (6,)"),
            ([[0, 1]], np.zeros((2, 3)), "ids must be 1-D, got shape (1, 2)")])],
    # the first id that is not a distinct int64 is named, not truncated or made a self edge
    "test_scene_graph.py::TestBuildEdges::test_ids_refused": [
        (f"ids{k}-{named}", "build_edges", {"ids": ids, "positions": np.zeros((len(ids), 3))},
         f"build_edges: ids must be distinct integers within int64, got {named}")
        for k, (ids, named) in enumerate([
            ([0.5, 0.7], "0.5 at index 0"), ([3, 3], "3 at index 1"),
            ([3, 5, 5, 3], "5 at index 2"), (np.array([1.0, 2.5]), "2.5 at index 1"),
            ([1, 2.0, 2], "2 at index 2"), ([True, False], "True at index 0"),
            ([2 ** 63, 1], f"{2 ** 63} at index 0")])],
    "test_scene_graph.py::TestGroundTruthMap::test_one_to_many_rejected": [
        (None, "GroundTruthMap", {"pairs": {(0, 5), (0, 6)}},
         "ground truth maps an id_A to multiple id_B")],
    "test_scene_graph.py::TestGroundTruthMap::test_non_integer_id_refused": [
        (f"pair{k}-{member}", "GroundTruthMap", {"pairs": [pair]},
         f"a ground truth pair {pair!r}: a member must be an integer within int64, got {member}")
        for k, (pair, member) in enumerate([(([1], 2), "[1]"), ((0.5, 2), "0.5"),
                                            ((True, 2), "True"), ((1, 2 ** 63), str(2 ** 63)),
                                            ((None, 2), "None")])],
    "test_scene_graph.py::TestGraphBatch::test_member_not_a_graph_refused": [
        (case, "GraphBatch.of", lambda a, member=member: {"graphs": [a.g, member]},
         f"graphs[1] is not a SceneGraph, got {type(member).__name__}")
        for case, member in [("3", 3), ("None", None), ("g", "g"), ("member3", {"graph_id": "g"})]],
    "test_scene_graph.py::TestGraphBatch::test_feature_dims_must_agree": [
        (None, "GraphBatch.of",
         lambda a: {"graphs": [with_columns(a.g, "g"), with_columns(scene(1, 3, (2, 3)), "other")]},
         "graph 'other': feature dims [2, 3] do not match those of graph 'g'", ShapeError)],
    "test_scene_graph.py::TestColumns::test_refused": [
        (f"{name}-{case}-{shown}", "SceneGraph", {name: value}, shown + "".join(rest))
        for case, name, value, shown, *rest in [
            ("value0", "ids", np.arange(3.0), "ids is float64 (3,), expected int64 (None,)"),
            ("value1", "ids", np.arange(3, dtype=np.int32), "ids is int32 (3,), expected int64",
             " (None,)"),
            ("value2", "positions", np.zeros((2, 3)),
             "positions is float64 (2, 3), expected float64 (3, 3)"),
            ("value3", "positions", np.zeros((3, 3), np.float32), "positions is float32",
             " (3, 3), expected float64 (3, 3)"),
            ("value4", "f_vl", np.zeros(3), "f_vl is float64 (3,), expected float64 (3, None)"),
            ("value5", "f_t", np.zeros((3, 5, 1)),
             "f_t is float64 (3, 5, 1), expected float64 (3, None)"),
            ("value6", "f_g", np.zeros((3, 2)), "f_g is float64 (3, 2), expected float64 (3, 3)"),
            ("value7", "gt_instance", np.zeros(3),
             "gt_instance is float64 (3,), expected int64 (3,)"),
            ("value8", "gt_present", np.zeros(3, np.int64),
             "gt_present is int64 (3,), expected bool (3,)"),
            ("value9", "endpoints", np.zeros((2, 3), np.int64),
             "endpoints is int64 (2, 3), expected int64", " (None, 2)"),
            ("value10", "endpoints", np.zeros((2, 2)), "endpoints is float64 (2, 2)",
             ", expected int64 (None, 2)"),
            ("value11", "edge_distances", np.ones(3),
             "edge_distances is float64 (3,), expected float64 (2,)"),
            ("value12", "labels", ["a", "b"], "needs 3 labels for its node rows"),
            ("abc", "labels", "abc", "needs 3 labels for its node rows"),
            ("value14", "labels", ["a", 5, "c"], "node 1: label must be a string, got 5")]],
    "test_scene_graph.py::TestColumns::test_names_refused": [
        ("7-world-graph_id must be a string", "SceneGraph", {"graph_id": 7},
         "graph_id must be a string, got 7"),
        ("g-banana-frame_kind must be one of", "SceneGraph", {"frame_kind": "banana"},
         "frame_kind must be one of ['camera', 'world'], got 'banana'")],
    "test_synth.py::TestGenerateScene::test_bad_config_rejected": [
        (f"{field}-{case}", "SynthConfig", {field: value}, message)
        for field, case, value, message in [
            ("n_classes", "0", 0, "n_classes must be >= 1, got 0"),
            ("seed", "-1", -1, "seed must be >= 0, got -1"),
            ("seed", "1.5", 1.5, "seed must be an integer, got 1.5"),
            ("n_objects", "value3", (1.5, 3), "n_objects must be two integers >= 1, got (1.5, 3)"),
            ("n_objects", "value4", (0, 3), "n_objects must be two integers >= 1, got (0, 3)"),
            ("n_objects", "value5", (5, 3), "bad n_objects range (5, 3)"),
            ("s2s_overlap_tol", "-1", -1, "s2s_overlap_tol must be finite and >= 0, got -1"),
            ("s2s_overlap_tol", "nan", NAN, "s2s_overlap_tol must be finite and >= 0, got nan"),
            ("feature_dims", "value8", (0, 5),
             "feature_dims must be two integers >= 1, got (0, 5)"),
            ("box_size", "True", True, "box_size must be a number, got True")]],
    "test_synth.py::TestGenerateScene::test_overcrowded_rejected": [
        (None, "generate_scene",
         {"config": SynthConfig(seed=0, n_objects=(40, 40), box_size=0.5, min_separation=0.4)},
         "placement failed after 100000 attempts (box 0.5 m too crowded for 40 objects at min "
         "separation 0.4 m)", GenerationError)],
    "test_synth.py::TestMakeF2sPair::test_too_few_objects": [
        (None, "make_f2s_pair", lambda a: {"scene": scene(1, 2)},
         "make_f2s_pair: scene needs >= 3 objects")],
    "test_synth.py::TestMakeS2sPair::test_too_few_objects": [
        (None, "make_s2s_pair", lambda a: {"scene": scene(1, 5)},
         "make_s2s_pair: scene needs >= 6 objects")],
    "test_validate_graph.py::test_ground_truth_pair_refused": [
        (case, "GroundTruthMap", {"pairs": {pair, (4, 5)}},
         f"a ground truth pair must be (id_A, id_B), got {pair!r}")
        for case, pair in [("pair0", (1,)), ("pair1", (1, 2, 3)), ("5", 5)]],
    # A scalar argument given an array is refused; a NumPy integer is one number (topk_filter's
    # base call passes np.int64(1)).
    "test_contract.py::test_refusal": [
        (f"{name} {field} {value!r}", name, {field: value},
         f"{where}{field} must be {kind}, got {value!r}")
        for name, field, value, where, kind in [
            ("McfParams", "top_k", np.array([2, 3]), "", "an integer"),
            ("McfParams", "top_k", np.array(1), "", "an integer"),
            ("SynthConfig", "seed", np.array([1, 2]), "", "an integer"),
            ("init_weights", "seed", np.array([1, 2]), "init_weights: ", "an integer"),
            ("topk_filter", "k", np.array([1, 2]), "topk_filter: ", "an integer"),
            ("candidate_set", "top_k", np.array([1, 2]), "candidate_set: ", "an integer"),
            ("estimate_rigid", "iters", np.array([3, 4]), "estimate_rigid: ", "an integer"),
            ("EncoderConfig", "heads", np.ones(3), "", "an integer"),
            ("MatcherParams", "temperature", np.ones(3), "", "a number")]],
}


def refuse(row, a: SimpleNamespace, monkeypatch) -> None:
    """The row's call, with the row's arguments in place of the base ones,
    raises exactly the row's error and message, and does no work."""
    name, overrides, message, *error = row
    func, bound = base_calls(a)[name]
    overrides = overrides(a) if callable(overrides) else overrides
    assert set(overrides) <= set(bound.signature.parameters), (name, overrides)
    bound.arguments.update(overrides)
    for module, work in ((encoder, "_node_pass"), (retrieval, "_read_archive")):
        monkeypatch.setattr(module, work, lambda *args: pytest.fail("work done before the refusal"))
    error = error[0] if error else InvalidInputError
    text = message.pattern if isinstance(message, re.Pattern) else re.escape(message)
    with pytest.raises(error, match=rf"^{text}\Z") as info:
        func(*bound.args, **bound.kwargs)
    assert info.type is error


def keep_ids(module: dict) -> None:
    """Add to a test file's globals each test of that file that FOLDED
    lists (`Class::test` or `test`) under its old id, one case per id."""
    for test, rows in FOLDED.items():
        path, *names = test.split("::")
        if path != Path(module["__file__"]).name:
            continue
        cases = {}
        for case, *row in rows:
            cases.setdefault(case, []).append(row)

        def run(contract_args, monkeypatch, case, cases=cases):
            for row in cases[case]:
                refuse(row, contract_args, monkeypatch)
        run = ((lambda contract_args, monkeypatch, run=run: run(contract_args, monkeypatch, None))
               if list(cases) == [None] else pytest.mark.parametrize("case", list(cases))(run))
        if len(names) == 1:
            module[names[0]] = run
        else:
            new = type(names[0], (), {"__module__": module["__name__"]})
            setattr(module.setdefault(names[0], new), names[1], staticmethod(run))


def test_every_export_has_a_base_call(contract_args):
    assert set(sgalign.__all__) - set(base_calls(contract_args)) == set()


def test_base_call_returns(contract_args):
    for func, bound in base_calls(contract_args).values():
        func(*bound.args, **bound.kwargs)

"""retrieve_db: database ingest and cold start, then one query at a time.

Set-up is the `retrieve --weights W --db saved/` cold-start path with its
ingest: save_weights and load_weights of the default weights, then
build_database over default scenes, save_database and load_database. Each
op encodes a distinct subscan of a database scene with encode_scene and
runs retrieve(k=20, "weighted") with the MCF allocator in rerank. The
database embeddings are shared by every query, as in real use.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from pathlib import Path

import numpy as np

from sgalign import (EncoderConfig, PipelineConfig, SynthConfig, build_database,
                     cosine_scores, generate_scene, global_similarity,
                     init_weights, load_database, load_weights, make_s2s_pair,
                     mcf_allocate, retrieve, save_database, save_weights,
                     score_matrix, topk_filter)
from sgalign.allocator import candidate_set
from sgalign.config import RetrievalParams
from sgalign.errors import GenerationError, InvalidInputError, SgaError
from sgalign.retrieval import RetrievalResult, encode_scene, weights_fingerprint

import common
from spans import SpanRecorder

DB_SCENES = 200
K = 20
MODE = "weighted"
QUALITY_OPS = 100       # quality (recall at 1) covers the first 100 queries
QUERY_SEED_OFFSET = 500_000  # query sub-seeds never meet scene sub-seeds
SOURCE_STEP = 37             # coprime to DB_SCENES


def scenes(seed: int) -> list[tuple[str, object]]:
    out = []
    for j in range(DB_SCENES):
        n = common.scheduled_size(j, *SynthConfig().n_objects)
        graph, _ = generate_scene(SynthConfig(seed=seed * common.SEED_STRIDE + j,
                                              n_objects=(n, n)))
        out.append((f"scene-{j:03d}", graph))
    return out


def queries(seed: int, db_scenes):
    """(source scene id, subscan graph): distinct crops with their own noise."""
    q = 0
    while True:
        # A fixed walk over the database, so every run queries the same size mix.
        sid, scene = db_scenes[(SOURCE_STEP * q) % len(db_scenes)]
        qseed = seed * common.SEED_STRIDE + QUERY_SEED_OFFSET + q
        q += 1
        try:
            pair = make_s2s_pair(scene, SynthConfig(seed=qseed),
                                 np.random.default_rng(qseed))
        except (GenerationError, InvalidInputError):
            continue
        yield sid, pair.graph_a


def _span(rec: SpanRecorder | None, name: str, **attrs):
    return rec.span(name, **attrs) if rec is not None else contextlib.nullcontext()


def _setup(tmp: Path, db_scenes, rec: SpanRecorder | None):
    """The program's calls before the first query; returns their results."""
    wpath, dbdir = tmp / "weights.json", tmp / "db"
    with _span(rec, "encoder.init_weights"):
        weights = init_weights(EncoderConfig(), 0)
    with _span(rec, "encoder.save_weights"):
        save_weights(weights, wpath)
    with _span(rec, "encoder.load_weights"):
        loaded = load_weights(wpath)
    with _span(rec, "retrieval.build_database"):
        db = build_database(db_scenes, loaded)
    with _span(rec, "retrieval.save_database"):
        save_database(db, dbdir, loaded)
    with _span(rec, "retrieval.load_database"):
        db_loaded = load_database(dbdir, loaded)
    return weights, loaded, db, db_loaded


def _setup_errors(weights, loaded, db, db_loaded) -> list[str]:
    errors = []
    if loaded.config != weights.config or loaded.seed != weights.seed:
        errors.append("weights config or seed changed in the round trip")
    for name, arr in weights.tensors.items():
        got = loaded.tensors[name]
        if got.dtype != arr.dtype or got.shape != arr.shape or got.tobytes() != arr.tobytes():
            errors.append(f"weights tensor {name} not bit-exact after the round trip")
    if [e.scene_id for e in db_loaded.entries] != [e.scene_id for e in db.entries]:
        errors.append("loaded database lists other scenes")
    for built, got in zip(db.entries, db_loaded.entries):
        if (built.node_embeddings.tobytes() != got.node_embeddings.tobytes()
                or built.global_embedding.tobytes() != got.global_embedding.tobytes()):
            errors.append(f"{built.scene_id}: loaded embeddings differ from built ones")
    return errors


def _result_errors(res: RetrievalResult, db_size: int) -> list[str]:
    errors = []
    keys = [(-score, sid) for sid, score, _ in res.ranked]
    if keys != sorted(keys):
        errors.append("ranking not sorted by (-score, scene_id)")
    if len(res.ranked) != min(K, db_size):
        errors.append(f"ranking has {len(res.ranked)} entries, expected {min(K, db_size)}")
    if res.failed:
        errors.append(f"rerank failed for {res.failed}")
    return errors


def _replay(rec: SpanRecorder, graph, weights, db, config) -> RetrievalResult:
    """encode_scene + retrieve composed from the inner public functions."""
    with rec.span(common.ROOT_SPAN):
        with rec.span("encoder.encode_scene", **common.encode_attrs(graph, weights.config)):
            query = encode_scene("query", graph, weights)
        with rec.span("retrieval.topk_filter"):
            keep = set(topk_filter(query.global_embedding, db, K))
            candidates = [e for e in db.entries if e.scene_id in keep]
        n_a = len(graph.nodes)
        rows, failed, counted = [], [], []
        with rec.span("retrieval.rerank", candidates=len(candidates)) as rerank:
            for cand in candidates:
                try:
                    with rec.span("matcher.score_matrix",
                                  cells=n_a * len(cand.graph.nodes)):
                        scores = score_matrix(
                            cosine_scores(query.node_embeddings, cand.node_embeddings),
                            config.matcher)
                    with rec.span("allocator.mcf_allocate") as span:
                        matches = mcf_allocate(scores, query.graph.positions(),
                                               cand.graph.positions(), config.mcf)
                    counted.append((span, matches, scores))
                    score = sum(scores.P[i, j] for i, j, _ in matches.pairs)
                    score *= global_similarity(query.global_embedding,
                                               cand.global_embedding)
                    rows.append((cand.scene_id, float(score), matches))
                except SgaError:
                    rows.append((cand.scene_id, float("-inf"), None))
                    failed.append(cand.scene_id)
            rows.sort(key=lambda r: (-r[1], r[0]))
        rerank.attrs["failed"] = len(failed)
        for span, matches, scores in counted:
            span.attrs.update(common.allocator_attrs(
                matches, n_a,
                len(candidate_set(scores.P, config.mcf.tau, config.mcf.top_k))))
    return RetrievalResult(ranked=rows, failed=failed)


def _same(x: RetrievalResult, y: RetrievalResult) -> bool:
    def key(r):
        return ([(sid, score, None if m is None else m.to_dict())
                 for sid, score, m in r.ranked], r.failed)
    return key(x) == key(y)


def run(seed: int, seconds: float, trace: bool, tally: common.Tally, tmp: Path):
    db_scenes = scenes(seed)
    config = PipelineConfig(retrieval=RetrievalParams(allocator="mcf", rerank=MODE))
    rec = SpanRecorder() if trace else None

    started = time.perf_counter()
    weights, loaded, built, db = _setup(tmp, db_scenes, rec)
    setup_s = time.perf_counter() - started
    tally.record(_setup_errors(weights, loaded, built, db))
    del weights, built
    extra = {}
    if trace:
        with rec.span("retrieval.weights_fingerprint"):
            weights_fingerprint(loaded)
        # Set-up phases as shares of set-up time.
        phase = {s.name: s.duration / setup_s for s in rec.spans if s.op is None}
        extra = {
            "encoder.weights_save_frac": phase["encoder.save_weights"],
            "encoder.weights_load_frac": phase["encoder.load_weights"],
            "encoder.weights_mb": (tmp / "weights.json").stat().st_size / 2 ** 20,
            "retrieval.db_build_frac": phase["retrieval.build_database"],
            "retrieval.db_save_frac": phase["retrieval.save_database"],
            "retrieval.db_load_frac": phase["retrieval.load_database"],
            "retrieval.fingerprint_frac": phase["retrieval.weights_fingerprint"],
            "retrieval.db_mb": sum(p.stat().st_size for p in (tmp / "db").iterdir()) / 2 ** 20,
        }

    inputs = queries(seed, db_scenes)
    hits: list[bool] = []
    untraced: list[float] = []

    def op(graph):
        return retrieve(encode_scene("query", graph, loaded), db, K, MODE, config)

    def step(i):
        source, graph = next(inputs)
        if trace:
            rec.op = i
            res, dt, replayed, replay_s = common.run_both(
                i, lambda: op(graph), lambda: _replay(rec, graph, loaded, db, config))
            untraced.append(dt)
            errors = _result_errors(res, len(db))
            if not _same(res, replayed):
                errors.append("replay differs from retrieve")
            dt += replay_s
        else:
            started = time.perf_counter()
            res = op(graph)
            dt = time.perf_counter() - started
            errors = _result_errors(res, len(db))
        hits.append(bool(res.ranked) and res.ranked[0][0] == source)
        return dt, errors

    for _ in range(common.WARM_OPS):
        tally.record(_result_errors(op(next(inputs)[1]), len(db)))
    # Quality needs a fixed prefix of ops; a traced run needs both orders of run_both.
    times = common.closed_loop(seconds, 2 if trace else QUALITY_OPS, step, tally)

    if trace:
        return common.layer_metrics(rec, len(times), statistics.fmean(untraced),
                                    setup_s, extra), rec

    recall = hits[:QUALITY_OPS]
    common.log(f"retrieve_db: {len(times)} queries against {len(db)} scenes, "
               f"set-up {setup_s:.1f} s, recall over {len(recall)}")
    m = common.metric
    return {
        "setup_s": m(setup_s, "s"),
        "throughput": m(len(times) / sum(times), "1/s"),
        "latency_ms_p50": m(common.percentile(times, 50) * 1e3, "ms"),
        "latency_ms_p90": m(common.percentile(times, 90) * 1e3, "ms"),
        "quality": m(sum(recall) / len(recall), "fraction"),
        "peak_rss_mb": m(common.peak_rss_mb(), "MiB"),
    }, None

"""s2s_stream: subscan-to-subscan alignment plus registration, in process.

One op aligns one distinct s2s pair with align_graphs(validate=True,
allocator="mcf"), fits estimate_rigid to the matched centres, scores it
with registration_error and computes sample_metrics. Pairs come from
scenes of 30-60 objects, so each side has about 22-46 nodes: the dense
products are larger than in f2s_eval and only one pair is in flight.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from sgalign import (EncoderConfig, PipelineConfig, RigidTransform, SynthConfig,
                     align_graphs, cosine_scores, encode_graph, estimate_rigid,
                     init_weights, make_sample, mcf_allocate, registration_error,
                     sample_metrics, score_matrix, validate_graph)
from sgalign.allocator import candidate_set
from sgalign.errors import GenerationError, InvalidInputError, SgaError

import common
from spans import SpanRecorder

N_OBJECTS = (30, 60)
QUALITY_OPS = 40        # quality (mean F1) covers the first 40 ops
SETUP_REPEATS = 9
RTE_MAX_M = 1.0
RRE_MAX_DEG = 10.0


def pairs(seed: int):
    """Distinct s2s samples; seeds whose crop cannot be generated are skipped."""
    i = j = 0
    while True:
        n = common.scheduled_size(i, *N_OBJECTS)
        cfg = SynthConfig(seed=seed * common.SEED_STRIDE + j, n_objects=(n, n))
        j += 1
        try:
            sample = make_sample("s2s", cfg)
        except (GenerationError, InvalidInputError):
            continue
        i += 1
        yield sample


def _setup():
    return init_weights(EncoderConfig(), 0), PipelineConfig()


def _success(reg) -> bool:
    """RTE <= 1 m and RRE <= 10 deg; a refused fit is a miss."""
    return reg is not None and reg[2].rte <= RTE_MAX_M and reg[2].rre <= RRE_MAX_DEG


def _register(matches, pos_a, pos_b, gt: RigidTransform):
    """(transform, inliers, error) or None when estimate_rigid refuses."""
    corr = [(pos_a[i], pos_b[j]) for i, j, _ in matches.pairs]
    try:
        transform, inliers = estimate_rigid(corr)
    except SgaError:
        return None
    return transform, inliers, registration_error(transform, gt)


def _op(sample, weights, config):
    res = align_graphs(sample.graph_a, sample.graph_b, weights, config,
                       allocator="mcf", validate=True)
    gt = RigidTransform(sample.gt_rotation, sample.gt_translation)
    reg = _register(res.matches, sample.graph_a.positions(),
                    sample.graph_b.positions(), gt)
    metrics = sample_metrics(res.matches, sample.gt, len(sample.graph_a.nodes))
    return res.matches, res.scores, reg, metrics


def _replay(rec: SpanRecorder, sample, weights, config):
    """The same op composed from the inner public functions, one span each."""
    a, b = sample.graph_a, sample.graph_b
    cfg = weights.config
    with rec.span(common.ROOT_SPAN):
        for g in (a, b):
            with rec.span("scene_graph.validate_graph", nodes=len(g.nodes),
                          edges=len(g.edges)):
                violations = validate_graph(g)
            if violations:
                raise InvalidInputError(f"{g.graph_id} invalid: {violations}")
        with rec.span("encoder.encode_graph", **common.encode_attrs(a, cfg)):
            emb_a, _ = encode_graph(a, weights)
        with rec.span("encoder.encode_graph", **common.encode_attrs(b, cfg)):
            emb_b, _ = encode_graph(b, weights)
        with rec.span("matcher.score_matrix", cells=len(a.nodes) * len(b.nodes)):
            scores = score_matrix(cosine_scores(emb_a, emb_b), config.matcher)
        with rec.span("allocator.mcf_allocate") as span:
            matches = mcf_allocate(scores, a.positions(), b.positions(), config.mcf)
        span.attrs.update(common.allocator_attrs(
            matches, len(a.nodes),
            len(candidate_set(scores.P, config.mcf.tau, config.mcf.top_k))))
        with rec.span("registration.register",
                      correspondences=len(matches.pairs)) as span:
            gt = RigidTransform(sample.gt_rotation, sample.gt_translation)
            reg = _register(matches, a.positions(), b.positions(), gt)
        if reg is None:
            span.attrs["too_few"] = 1
        else:
            span.attrs.update(inliers=len(reg[1]),
                              fitted_correspondences=len(matches.pairs),
                              success=int(_success(reg)))
        with rec.span("evaluation.sample_metrics"):
            metrics = sample_metrics(matches, sample.gt, len(a.nodes))
    return matches, scores, reg, metrics


def _same(x, y) -> bool:
    """Bit-equal op outputs: matches, score matrix, registration, metrics."""
    (m1, s1, r1, e1), (m2, s2, r2, e2) = x, y
    if m1.to_dict() != m2.to_dict() or not np.array_equal(s1.P, s2.P) or e1 != e2:
        return False
    if r1 is None or r2 is None:
        return r1 is r2
    return (np.array_equal(r1[0].R, r2[0].R) and np.array_equal(r1[0].t, r2[0].t)
            and r1[1] == r2[1] and r1[2] == r2[2])


def _check(out, sample) -> list[str]:
    matches, scores, _, _ = out
    return common.matchset_errors(matches, scores.P, len(sample.graph_b.nodes))


def run(seed: int, seconds: float, trace: bool, tally: common.Tally, tmp):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        weights, config = _setup()
        setup_times.append(time.perf_counter() - started)

    inputs = pairs(seed)
    for _ in range(common.WARM_OPS):
        warm = next(inputs)
        tally.record(_check(_op(warm, weights, config), warm))

    rec = SpanRecorder() if trace else None
    outputs = []
    untraced = []

    def step(i):
        sample = next(inputs)
        if trace:
            rec.op = i
            out, dt, replayed, replay_s = common.run_both(
                i, lambda: _op(sample, weights, config),
                lambda: _replay(rec, sample, weights, config))
            untraced.append(dt)
            errors = _check(out, sample)
            if not _same(out, replayed):
                errors.append("replay differs from align_graphs")
            dt += replay_s
        else:
            started = time.perf_counter()
            out = _op(sample, weights, config)
            dt = time.perf_counter() - started
            errors = _check(out, sample)
        outputs.append(out)
        return dt, errors

    # Quality needs a fixed prefix of ops; a traced run needs both orders of run_both.
    times = common.closed_loop(seconds, 2 if trace else QUALITY_OPS, step, tally)

    if trace:
        return common.layer_metrics(rec, len(times), statistics.fmean(untraced),
                                    statistics.median(setup_times), {}), rec

    quality = outputs[:QUALITY_OPS]
    f1 = statistics.fmean(metrics.f1 for _, _, _, metrics in quality)
    success = sum(_success(reg) for _, _, reg, _ in quality) / len(quality)
    common.log(f"s2s_stream: {len(times)} ops, quality over {len(quality)}, "
               f"reg_success {success}")
    m = common.metric
    return {
        "setup_s": m(statistics.median(setup_times), "s"),
        "throughput": m(len(times) / sum(times), "1/s"),
        "latency_ms_p50": m(common.percentile(times, 50) * 1e3, "ms"),
        "latency_ms_p90": m(common.percentile(times, 90) * 1e3, "ms"),
        "quality": m(f1, "fraction"),
        "peak_rss_mb": m(common.peak_rss_mb(), "MiB"),
    }, None

"""Pieces the three workloads share: the closed loop, statistics, the
MatchSet invariants, the encoder FLOP count and the per-layer summary of a
traced run."""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from sgalign import EncoderConfig, MatchSet, SceneGraph
from sgalign.encoder import CLS_ATTN_LAYERS

# A run never spends more wall time in its loop than this, whatever
# --seconds asks, so that a slow or failing program still exits in time.
LOOP_WALL_FACTOR = 2.0
LOOP_WALL_EXTRA_S = 15.0

# Untimed ops before the loop. The first compute after an idle spell runs
# far below speed on small virtual machines, and first calls pay lazy costs.
WARM_OPS = 3

# Keyed sub-seeds keep every generated input of a run distinct and make
# runs with different --seed values draw disjoint inputs.
SEED_STRIDE = 1_000_000


def scheduled_size(i: int, lo: int, hi: int) -> int:
    """Object count of the i-th generated scene: a fixed walk over lo..hi.

    Op cost grows with graph size, so every run gets the same size mix in
    the same order and runs with different seeds differ only in content.
    The step 7 is coprime to every span used here, so each window of
    hi - lo + 1 consecutive scenes holds every size once.
    """
    span = hi - lo + 1
    return lo + (7 * i) % span


# Every per-layer metric and its unit. Every workload prints all of them.
# Times are given only for the layers every workload reaches; a layer that
# only some workloads reach reports its time as a share of the traced op
# (or of set-up), so that a workload which never enters it reads 0 as a
# share, not as a time. Counts of a layer a workload does not reach are 0.
PER_LAYER = {
    "scene_graph.self_frac": "fraction", "scene_graph.nodes": "count/op",
    "scene_graph.edges": "count/op",
    "encoder.self_ms": "ms", "encoder.calls": "count/op", "encoder.nodes": "count/op",
    "encoder.pairs": "count/op", "encoder.triples": "count/op",
    "encoder.isolated_frac": "fraction", "encoder.gflop": "GFLOP/op",
    "encoder.gflops": "GFLOP/s",
    "encoder.weights_save_frac": "fraction", "encoder.weights_load_frac": "fraction",
    "encoder.weights_mb": "MiB",
    "matcher.self_ms": "ms", "matcher.cells": "count/op",
    "allocator.self_ms": "ms", "allocator.candidates": "count/op",
    "allocator.matches": "count/op", "allocator.mcf_iters_mean": "count",
    "allocator.nonconverged": "count/op", "allocator.unmatched_rate": "fraction",
    "registration.self_frac": "fraction", "registration.correspondences": "count/op",
    "registration.inlier_ratio": "fraction", "registration.too_few": "count/op",
    "registration.success_rate": "fraction",
    "evaluation.self_frac": "fraction",
    "retrieval.self_frac": "fraction", "retrieval.topk_frac": "fraction",
    "retrieval.rerank_frac": "fraction", "retrieval.reranked": "count/op",
    "retrieval.failed": "count/op",
    "retrieval.db_build_frac": "fraction", "retrieval.db_save_frac": "fraction",
    "retrieval.db_load_frac": "fraction", "retrieval.fingerprint_frac": "fraction",
    "retrieval.db_mb": "MiB",
    "cli.self_frac": "fraction", "cli.startup_frac": "fraction",
    "machine.gemm_gflops": "GFLOP/s",
    "trace.setup_s": "s",
    "trace.op_ms": "ms", "trace.untraced_op_ms": "ms",
    "trace.overhead_ms": "ms", "trace.glue_ms": "ms",
    "trace.accounted_frac": "fraction",
}
LAYERS = ("scene_graph", "encoder", "matcher", "allocator", "registration",
          "evaluation", "retrieval", "cli")
ROOT_SPAN = "op"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append("; ".join(errors))


def closed_loop(seconds: float, min_ops: int, step, tally: Tally) -> list[float]:
    """One client, no overlap: op i+1 starts after op i has ended.

    ``step(i)`` makes op i's input, runs and times the op, checks its output
    and returns (timed seconds, list of failed checks). Ops run until their
    timed seconds add up to ``seconds`` and at least ``min_ops`` ran, or the
    wall-clock cap passes. Returns the timed seconds of every op.
    """
    times: list[float] = []
    deadline = time.perf_counter() + LOOP_WALL_FACTOR * seconds + LOOP_WALL_EXTRA_S
    i = 0
    while (sum(times) < seconds or i < min_ops) and time.perf_counter() < deadline:
        try:
            dt, errors = step(i)
        except Exception:  # a crashing op is a failed op; keep measuring
            dt, errors = 0.0, [traceback.format_exc(limit=3)]
        times.append(dt)
        tally.record(errors)
        i += 1
    if i < min_ops:
        log(f"warning: wall-clock cap reached after {i} of {min_ops} ops")
    return times


def run_both(i: int, composed, replay):
    """Run op i untraced (``composed``) and traced (``replay``), timed apart.

    Odd ops run the replay first, so that neither side always meets the
    caches the other warmed or the cores the other woke. Returns (composed
    output, its seconds, replay output, its seconds).
    """
    def timed(fn):
        started = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - started

    if i % 2:
        replayed, replay_s = timed(replay)
        out, out_s = timed(composed)
    else:
        out, out_s = timed(composed)
        replayed, replay_s = timed(replay)
    return out, out_s, replayed, replay_s


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 10..90 step 10), linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def matchset_errors(m: MatchSet, P, n_b: int) -> list[str]:
    """MatchSet invariants against the score matrix it came from."""
    n_a = P.shape[0]
    errors = []
    seen_a = set()
    for i, j, s in m.pairs:
        if not (0 <= i < n_a and 0 <= j < n_b):
            errors.append(f"pair ({i}, {j}) out of range {n_a}x{n_b}")
            continue
        if i in seen_a:
            errors.append(f"A index {i} matched twice")
        seen_a.add(i)
        if s != P[i, j] or not 0.0 <= s <= 1.0:
            errors.append(f"pair ({i}, {j}) score {s} != P {P[i, j]} or outside [0, 1]")
    if sorted(m.unmatched_a) != sorted(set(range(n_a)) - seen_a):
        errors.append("unmatched_a is not the complement of the matched A indices")
    return errors


def graph_counts(graph: SceneGraph) -> dict:
    """Nodes, edges, directed neighbour pairs, triples and isolated nodes."""
    degrees = [len(nbrs) for nbrs in graph.neighbor_ids().values()]
    return {
        "nodes": len(graph.nodes),
        "edges": len(graph.edges),
        "pairs": sum(degrees),
        "triples": sum(d * (d - 1) for d in degrees),
        "isolated": sum(1 for d in degrees if d == 0),
    }


def encoder_gflop(counts: dict, cfg: EncoderConfig) -> float:
    """Model FLOPs of one forward pass, computed from shapes and counts.

    Counts 2*m*k*n per dense product plus the per-pair and per-triple
    attention products, as the forward pass defines them for n nodes, E
    directed neighbour pairs and T triples. It is a fixed measure of work,
    not a reading of what an implementation executes.
    """
    n, e, t = counts["nodes"], counts["pairs"], counts["triples"]
    dm, di, pe = cfg.d_model, cfg.d_init, cfg.pe_dim
    proj = 2 * e * pe * dm + 2 * n * di * dm  # one split projection
    layer = 2 * n * dm * di                    # Wo
    if e:
        layer += 2 * n * di * dm + 2 * proj + 4 * e * dm
    if t:
        layer += 3 * proj + 4 * t * dm
    geo = n * (2 * 3 * cfg.geo_hidden + 2 * cfg.geo_hidden ** 2)
    head = 2 * n * 2 * di * dm + 2 * n * dm * dm
    m = n + 1
    cls = CLS_ATTN_LAYERS * (4 * 2 * m * dm * dm + 2 * 2 * m * m * dm)
    return (geo + cfg.layers * layer + head + cls) / 1e9


def encode_attrs(graph: SceneGraph, cfg: EncoderConfig) -> dict:
    c = graph_counts(graph)
    return {"nodes": c["nodes"], "pairs": c["pairs"], "triples": c["triples"],
            "isolated": c["isolated"], "gflop": encoder_gflop(c, cfg)}


def allocator_attrs(m: MatchSet, n_a: int, candidates: int) -> dict:
    return {"candidates": candidates, "matches": len(m.pairs),
            "iterations": m.iterations, "nonconverged": int(not m.converged),
            "rows": n_a, "unmatched": len(m.unmatched_a)}


def layer_metrics(rec, n_ops: int, untraced_op_s: float, setup_s: float,
                  extra: dict) -> dict:
    """Per-op means of every per-layer metric from a traced run.

    ``untraced_op_s`` is the mean time of the same ops run untraced in the
    same process and ``setup_s`` the traced run's set-up time; ``extra``
    holds metrics measured outside the op spans (set-up phases,
    child-process calls).
    """
    n_ops = max(n_ops, 1)
    own = rec.layer_self()
    op_spans = [s for s in rec.spans if s.op is not None]

    def total(layer: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in op_spans if s.layer == layer)

    # Forward passes carry a FLOP count; init_weights in the encoder layer does not.
    forward = [(s, own_s) for s, own_s in zip(rec.spans, rec.self_times())
               if s.op is not None and "gflop" in s.attrs]
    enc_calls = len(forward)
    enc_s = sum(own_s for _, own_s in forward)
    enc_nodes = total("encoder", "nodes")
    mcf_calls = sum(1 for s in op_spans if s.name == "allocator.mcf_allocate")
    corr_ok = total("registration", "fitted_correspondences")
    rows = total("allocator", "rows")
    op_s = sum(s.duration for s in op_spans if s.name == ROOT_SPAN) / n_ops
    layers_s = sum(own.get(layer, 0.0) for layer in LAYERS) / n_ops
    overhead_s = op_s - untraced_op_s
    values = {name: 0.0 for name in PER_LAYER}
    for layer in LAYERS:
        per_op = own.get(layer, 0.0) / n_ops
        if f"{layer}.self_ms" in PER_LAYER:
            values[f"{layer}.self_ms"] = per_op * 1e3
        else:
            values[f"{layer}.self_frac"] = per_op / op_s if op_s else 0.0

    def share(name: str) -> float:
        spent = sum(s.duration for s in rec.named(name) if s.op is not None)
        return spent / n_ops / op_s if op_s else 0.0

    values.update({
        "scene_graph.nodes": total("scene_graph", "nodes") / n_ops,
        "scene_graph.edges": total("scene_graph", "edges") / n_ops,
        "encoder.calls": enc_calls / n_ops,
        "encoder.nodes": enc_nodes / n_ops,
        "encoder.pairs": total("encoder", "pairs") / n_ops,
        "encoder.triples": total("encoder", "triples") / n_ops,
        "encoder.isolated_frac": total("encoder", "isolated") / enc_nodes if enc_nodes else 0.0,
        "encoder.gflop": total("encoder", "gflop") / n_ops,
        "encoder.gflops": total("encoder", "gflop") / enc_s if enc_s else 0.0,
        "matcher.cells": total("matcher", "cells") / n_ops,
        "allocator.candidates": total("allocator", "candidates") / n_ops,
        "allocator.matches": total("allocator", "matches") / n_ops,
        "allocator.mcf_iters_mean": total("allocator", "iterations") / mcf_calls if mcf_calls else 0.0,
        "allocator.nonconverged": total("allocator", "nonconverged") / n_ops,
        "allocator.unmatched_rate": total("allocator", "unmatched") / rows if rows else 0.0,
        "registration.correspondences": total("registration", "correspondences") / n_ops,
        "registration.inlier_ratio": total("registration", "inliers") / corr_ok if corr_ok else 0.0,
        "registration.too_few": total("registration", "too_few") / n_ops,
        "registration.success_rate": total("registration", "success") / n_ops,
        "retrieval.topk_frac": share("retrieval.topk_filter"),
        "retrieval.rerank_frac": share("retrieval.rerank"),
        "retrieval.reranked": total("retrieval", "candidates") / n_ops,
        "retrieval.failed": total("retrieval", "failed") / n_ops,
        "trace.setup_s": setup_s,
        "trace.op_ms": op_s * 1e3,
        "trace.untraced_op_ms": untraced_op_s * 1e3,
        "trace.overhead_ms": overhead_s * 1e3,
        "trace.glue_ms": own.get(ROOT_SPAN, 0.0) / n_ops * 1e3,
        "trace.accounted_frac": (layers_s + overhead_s) / op_s if op_s else 0.0,
    })
    unknown = set(extra) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    values.update(extra)
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}

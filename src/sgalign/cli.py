"""Command-line surface over the alignment pipeline.

Every command prints exactly one JSON document to stdout; all human
diagnostics go to stderr (verbosity via the SGA_LOG environment variable).
Exit codes: 0 success, 1 usage/IO error, 2 validation error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import registration, retrieval, synth
from .config import PipelineConfig, load_config
from .encoder import (EncoderWeights, encode_graph, encode_graphs, init_weights,
                      load_weights, node_batches)
from .errors import SgaError
from .evaluation import bin_by_overlap, aggregate, sample_metrics
from .losses import toy_embedding_fit
from .pipeline import align_graphs, match_embeddings
from .scene_graph import load_graph, validate_graph

logger = logging.getLogger("sgalign")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2


class UsageError(Exception):
    """A flag value argparse accepts but the command cannot use."""


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("SGA_LOG", "warn"), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _load_pipeline_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    config, warnings = load_config(path)
    for w in warnings:
        logger.warning("config: %s", w)
    return config


def _resolve_weights(args, config: PipelineConfig) -> tuple[EncoderWeights, dict]:
    weights_path = getattr(args, "weights", None) or config.weights_path
    if weights_path:
        weights = load_weights(weights_path)
        meta = {"weights": str(weights_path), "seed": weights.seed}
    else:
        weights = init_weights(config.encoder, args.seed)
        meta = {"weights": None, "seed": args.seed}
    return weights, meta


def _checked_graph(path, config: PipelineConfig):
    graph = load_graph(path, n_max=config.edges.n_max, d_th=config.edges.d_th)
    violations = validate_graph(graph)
    if violations:
        raise SgaError(f"{path}: {violations}")
    return graph


# ---------------------------------------------------------------------------
# commands


def cmd_align(args) -> int:
    config = _load_pipeline_config(args.config)
    weights, meta = _resolve_weights(args, config)
    graph_a = _checked_graph(args.graph_a, config)
    graph_b = _checked_graph(args.graph_b, config)
    result = align_graphs(graph_a, graph_b, weights, config,
                          allocator=args.allocator, validate=False)
    doc = result.matches.to_dict()
    doc["meta"] = {**meta, "allocator": args.allocator}
    _emit(doc)
    return EXIT_OK


def cmd_validate(args) -> int:
    config = _load_pipeline_config(args.config)
    graph = load_graph(args.graph, n_max=config.edges.n_max, d_th=config.edges.d_th)
    violations = validate_graph(graph)
    _emit({"graph_id": graph.graph_id, "violations": violations})
    return EXIT_OK if not violations else EXIT_VALIDATION


def cmd_encode(args) -> int:
    config = _load_pipeline_config(args.config)
    weights, meta = _resolve_weights(args, config)
    graph = _checked_graph(args.graph, config)
    node_emb, global_emb = encode_graph(graph, weights)
    _emit({
        "graph_id": graph.graph_id,
        "node_embeddings": node_emb.tolist(),
        "global_embedding": global_emb.tolist(),
        "meta": meta,
    })
    return EXIT_OK


def cmd_synth(args) -> int:
    config = synth.SynthConfig(
        seed=args.seed,
        feature_noise_sigma=args.feature_noise,
        position_noise_sigma=args.position_noise,
        undersegment_prob=args.undersegment,
        s2s_crop_overlap=args.overlap,
        unique_classes=args.unique_classes,
    )
    out = Path(args.out)
    dirs = []
    for idx in range(args.count):
        sample_config = synth.SynthConfig(
            **{**config.__dict__, "seed": args.seed + idx})
        sample = synth.make_sample(args.task, sample_config)
        name = f"{args.task}_{args.seed + idx:05d}"
        synth.save_sample(sample, out / name)
        dirs.append(name)
    _emit({"task": args.task, "count": args.count, "out": str(out), "dirs": dirs})
    return EXIT_OK


def _eval_pair(item, emb_a, emb_b, config, allocator):
    name, sample = item
    _, matches = match_embeddings(emb_a, emb_b, sample.graph_a.positions(),
                                  sample.graph_b.positions(), config, allocator)
    metrics = sample_metrics(matches, sample.gt, len(sample.graph_a.nodes))
    return {
        "sample": name,
        "overlap": sample.overlap_ratio,
        "task": sample.task,
        **metrics.to_dict(),
    }, (sample.overlap_ratio, metrics)


def cmd_eval(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    config = _load_pipeline_config(args.config)
    weights, meta = _resolve_weights(args, config)
    pair_dirs = sorted(p for p in Path(args.pairs).iterdir() if p.is_dir())
    if not pair_dirs:
        raise SgaError(f"no sample directories under {args.pairs}")

    # Pairs stream through in batches of at most BATCH_NODES nodes: one
    # batched encode, then per-pair scoring on the pool. Batches depend
    # only on the sorted pairs, never on --jobs, so neither do the bytes.
    samples = ((p.name, synth.load_sample(p)) for p in pair_dirs)
    rows = []
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for batch in node_batches(samples, lambda item: len(item[1].graph_a.nodes)
                                  + len(item[1].graph_b.nodes)):
            encoded = encode_graphs([g for _, sample in batch
                                     for g in (sample.graph_a, sample.graph_b)], weights)
            rows += pool.map(
                lambda item, a, b: _eval_pair(item, a[0], b[0], config, args.allocator),
                batch, encoded[0::2], encoded[1::2])

    per_sample = [r[0] for r in rows]
    overall = aggregate([m for _, (_, m) in rows])
    bins = bin_by_overlap([om for _, om in rows])
    report = {
        "overall": overall,
        "bins": bins,
        "per_sample": per_sample,
        "meta": {**meta, "allocator": args.allocator, "n_samples": len(rows)},
    }
    text = json.dumps(report, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    if args.csv:
        lines = ["sample,overlap,accuracy,precision,recall,f1"]
        lines += [f"{r['sample']},{r['overlap']},{r['accuracy']},"
                  f"{r['precision']},{r['recall']},{r['f1']}" for r in per_sample]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    sys.stdout.write(text + "\n")
    return EXIT_OK


def cmd_register(args) -> int:
    config = _load_pipeline_config(args.config)
    weights, meta = _resolve_weights(args, config)
    sample = synth.load_sample(Path(args.pair))
    result = align_graphs(sample.graph_a, sample.graph_b, weights, config,
                          allocator=args.allocator, validate=False)
    pos_a = sample.graph_a.positions()
    pos_b = sample.graph_b.positions()
    pairs = [(pos_a[i], pos_b[j]) for i, j, _ in result.matches.pairs]
    transform, inliers = registration.estimate_rigid(
        pairs, iters=args.ransac_iters, inlier_eps=args.inlier_eps, seed=args.seed)
    doc = {
        "transform": transform.to_dict(),
        "n_correspondences": len(pairs),
        "n_inliers": len(inliers),
        "meta": {**meta, "allocator": args.allocator},
    }
    if sample.gt_rotation is not None:
        gt = registration.RigidTransform(sample.gt_rotation, sample.gt_translation)
        err = registration.registration_error(transform, gt)
        doc["error"] = {"rte": err.rte, "rre": err.rre}
        doc["thresholds"] = registration.success_flags(err)
    else:
        doc["error"] = None
        doc["thresholds"] = None
    _emit(doc)
    return EXIT_OK


def cmd_retrieve(args) -> int:
    config = _load_pipeline_config(args.config)
    weights, meta = _resolve_weights(args, config)
    db_dir = Path(args.db)
    if (db_dir / "index.json").exists():
        db = retrieval.load_database(db_dir, weights)
    else:
        # bare directory of graph JSON files: encode on the fly
        scenes = []
        for path in sorted(db_dir.glob("*.json")):
            graph = load_graph(path, n_max=config.edges.n_max, d_th=config.edges.d_th)
            scenes.append((graph.graph_id, graph))
        db = retrieval.build_database(scenes, weights)
    query_graph = _checked_graph(args.query, config)
    query = retrieval.encode_scene("query", query_graph, weights)
    started = time.perf_counter()
    result = retrieval.retrieve(query, db, args.k, args.rerank, config)
    doc = result.to_dict()
    doc["meta"] = {**meta, "k": args.k, "rerank": args.rerank,
                   "db_size": len(db), "total_seconds": time.perf_counter() - started}
    _emit(doc)
    return EXIT_OK


def cmd_demo_fit(args) -> int:
    sample = synth.make_sample(args.task, synth.SynthConfig(seed=args.seed))
    trajectory = toy_embedding_fit(sample, steps=args.steps, lr=args.lr,
                                   seed=args.seed)
    _emit({
        "task": args.task,
        "steps": args.steps,
        "lr": args.lr,
        "initial_loss": trajectory[0],
        "final_loss": trajectory[-1],
        "trajectory": trajectory,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgalign", description="3D scene-graph alignment toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weights=True):
        p.add_argument("--config", default=None, help="pipeline config JSON")
        if weights:
            p.add_argument("--weights", default=None, help="encoder weights JSON")
            p.add_argument("--seed", type=int, default=0,
                           help="weight-init seed when --weights is absent")

    p = sub.add_parser("align", help="match two scene graphs")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--allocator", choices=["mnn", "mcf"], default="mcf")
    common(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("validate", help="check a scene-graph file")
    p.add_argument("graph")
    common(p, weights=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("encode", help="dump node and global embeddings")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("synth", help="generate synthetic alignment samples")
    p.add_argument("--task", choices=["f2s", "s2s"], required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--feature-noise", type=float, default=0.05)
    p.add_argument("--position-noise", type=float, default=0.02)
    p.add_argument("--undersegment", type=float, default=0.05)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--unique-classes", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score predictions over a sample directory")
    p.add_argument("--pairs", required=True)
    p.add_argument("--allocator", choices=["mnn", "mcf"], default="mnn")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--jobs", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("register", help="rigid transform from matched centers")
    p.add_argument("--pair", required=True)
    p.add_argument("--allocator", choices=["mnn", "mcf"], default="mcf")
    p.add_argument("--ransac-iters", type=int, default=registration.DEFAULT_RANSAC_ITERS)
    p.add_argument("--inlier-eps", type=float, default=registration.DEFAULT_INLIER_EPS)
    common(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("retrieve", help="query a scene database")
    p.add_argument("--query", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--rerank", choices=["direct", "weighted"], default="weighted")
    common(p)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("demo-fit", help="contrastive fit of free embeddings")
    p.add_argument("--task", choices=["f2s", "s2s"], default="f2s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.1)
    p.set_defaults(func=cmd_demo_fit)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, OSError, json.JSONDecodeError) as exc:
        logger.error("%s", exc)
        return EXIT_USAGE
    except SgaError as exc:
        logger.error("%s", exc)
        return EXIT_VALIDATION
    except KeyError as exc:
        logger.error("malformed input: missing key %s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface over the alignment pipeline.

Every command prints exactly one JSON document to stdout; all human
diagnostics go to the sys.stderr of the call (SGA_LOG=error hides warnings).
Exit codes: 0 success, 1 usage/IO error, 2 validation error (arithmetic that
overflows or turns invalid included).
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
from pathlib import Path

import numpy as np

from . import registration, synth
from .allocator import ALLOCATORS
from .config import RERANK_MODES, PipelineConfig, load_config
from .encoder import (EncoderWeights, encode_graph, encode_nodes, init_weights,
                      load_weights, node_batches, run_parts)
from .errors import BOUNDS, InvalidInputError, SgaError, check_bound
from .evaluation import aggregate, bin_by_overlap, matches_by_id, sample_metrics
from .pipeline import align_graphs, match_embeddings
from .scene_graph import load_graph, read_graph

# A command imports what it alone runs (csv, retrieval, losses) in its own
# body, so that no other command pays for loading it.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2


class UsageError(Exception):
    """A flag or argument the command cannot use."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports what it refuses as a UsageError, so the refusal is one stderr
    line, not a usage block; its subparsers are of this class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _log(level: str, message) -> None:
    """Write `LEVEL sgalign: message` to the sys.stderr of this moment.
    SGA_LOG=error hides warnings; any other value, or none, shows them."""
    if level == "WARNING" and os.environ.get("SGA_LOG") == "error":
        return
    sys.stderr.write(f"{level} sgalign: {message}\n")


def _add_number(parser, flag: str, rule: str, **kwargs) -> None:
    """Add `flag`, parsed as an int or a float by the kind of BOUNDS[rule];
    a value that breaks the rule raises a UsageError while parsing. The
    type callable carries the parser's name, which argparse puts in its
    `invalid int value` line."""
    kind = int if BOUNDS[rule][0] is numbers.Integral else float

    def parse(text: str):
        value = kind(text)
        try:
            check_bound(flag, value, rule)
        except InvalidInputError as exc:
            raise UsageError(str(exc)) from None
        return value

    parse.__name__ = kind.__name__
    parser.add_argument(flag, type=parse, **kwargs)


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _load_pipeline_config(path: str | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    config, warnings = load_config(path)
    for w in warnings:
        _log("WARNING", f"config: {w}")
    return config


def _resolve_weights(args) -> tuple[PipelineConfig, EncoderWeights, dict]:
    """(the --config document, the weights it or the flags name, their meta)."""
    config = _load_pipeline_config(args.config)
    weights_path = config.weights_path if args.weights is None else args.weights
    if weights_path is not None:  # an empty path is refused as unreadable
        weights = load_weights(weights_path)
        meta = {"weights": str(weights_path), "seed": weights.seed}
    else:
        weights = init_weights(config.encoder, args.seed)
        meta = {"weights": None, "seed": args.seed}
    return config, weights, meta


# ---------------------------------------------------------------------------
# commands


def cmd_align(args) -> int:
    config, weights, meta = _resolve_weights(args)
    edges = config.edges
    graph_a = load_graph(args.graph_a, edges.n_max, edges.d_th)
    graph_b = load_graph(args.graph_b, edges.n_max, edges.d_th)
    result = align_graphs(graph_a, graph_b, weights, config,
                          allocator=args.allocator, validate=False)
    doc = result.matches.to_dict()
    doc["meta"] = {**meta, "allocator": args.allocator}
    _emit(doc)
    return EXIT_OK


def cmd_validate(args) -> int:
    config = _load_pipeline_config(args.config)
    graph, violations = read_graph(args.graph, config.edges.n_max, config.edges.d_th)
    _emit({"graph_id": graph.graph_id, "violations": violations})
    return EXIT_OK if not violations else EXIT_VALIDATION


def cmd_encode(args) -> int:
    config, weights, meta = _resolve_weights(args)
    graph = load_graph(args.graph, config.edges.n_max, config.edges.d_th)
    node_emb, global_emb = encode_graph(graph, weights)
    _emit({
        "graph_id": graph.graph_id,
        "node_embeddings": node_emb.tolist(),
        "global_embedding": global_emb.tolist(),
        "meta": meta,
    })
    return EXIT_OK


def cmd_synth(args) -> int:
    out, dirs = Path(args.out), []
    for seed in range(args.seed, args.seed + args.count):
        config = synth.SynthConfig(
            seed=seed,
            feature_noise_sigma=args.feature_noise,
            position_noise_sigma=args.position_noise,
            undersegment_prob=args.undersegment,
            s2s_crop_overlap=args.overlap,
            unique_classes=args.unique_classes,
        )
        name = f"{args.task}_{seed:05d}"
        synth.save_sample(synth.make_sample(args.task, config), out / name)
        dirs.append(name)
    _emit({"task": args.task, "count": args.count, "out": str(out), "dirs": dirs})
    return EXIT_OK


def _eval_pair(item, emb_a, emb_b, config, allocator):
    directory, sample = item
    if not len(sample.graph_a.ids):  # eval scores each node of a.json
        raise InvalidInputError(f"{directory}: a.json has no nodes to score")
    _, matches = match_embeddings(emb_a, emb_b, sample.graph_a.positions(),
                                  sample.graph_b.positions(), config, allocator)
    metrics = sample_metrics(matches_by_id(matches, sample.graph_a, sample.graph_b),
                             sample.gt, len(sample.graph_a.ids))
    return {
        "sample": directory.name,
        "overlap": sample.overlap_ratio,
        "task": sample.task,
        **metrics.to_dict(),
    }, (sample.overlap_ratio, metrics)


def cmd_eval(args) -> int:
    config, weights, meta = _resolve_weights(args)
    pair_dirs = sorted(p for p in Path(args.pairs).iterdir() if p.is_dir())
    if not pair_dirs:
        raise SgaError(f"no sample directories under {args.pairs}")

    # Pairs stream through in batches of at most BATCH_NODES nodes: one
    # batched node pass (no global embedding is read), then per-pair scoring
    # on --jobs threads. The node pass is batch-invariant, so each pair's
    # embeddings, and the report bytes, are those `align` computes, whatever
    # the batches or --jobs.
    edges = config.edges
    samples = ((p, synth.load_sample(p, edges.n_max, edges.d_th)) for p in pair_dirs)

    def n_nodes(item):
        return len(item[1].graph_a.ids) + len(item[1].graph_b.ids)

    def score(part):
        return [_eval_pair(*pair, config, args.allocator) for pair in part]

    rows = []
    for batch in node_batches(samples, n_nodes):
        encoded = encode_nodes([g for _, sample in batch
                                for g in (sample.graph_a, sample.graph_b)], weights)
        parts = run_parts(list(zip(batch, encoded[0::2], encoded[1::2])),
                          [n_nodes(item) for item in batch], score, args.jobs)
        rows += [row for part in parts for row in part]

    per_sample = [r[0] for r in rows]
    report = {"overall": aggregate([m for _, (_, m) in rows]),
              "bins": bin_by_overlap([om for _, om in rows]),
              "per_sample": per_sample,
              "meta": {**meta, "allocator": args.allocator, "n_samples": len(rows)}}
    text = json.dumps(report, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    if args.csv:
        import csv

        columns = ["sample", "overlap", "accuracy", "precision", "recall", "f1"]
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([r[c] for c in columns] for r in per_sample)
    sys.stdout.write(text + "\n")
    return EXIT_OK


def cmd_register(args) -> int:
    config, weights, meta = _resolve_weights(args)
    sample = synth.load_sample(args.pair, config.edges.n_max, config.edges.d_th)
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
        "error": None,
        "thresholds": None,
    }
    if sample.gt_rotation is not None:
        gt = registration.RigidTransform(sample.gt_rotation, sample.gt_translation)
        err = registration.registration_error(transform, gt)
        doc["error"] = {"rte": err.rte, "rre": err.rre}
        doc["thresholds"] = registration.success_flags(err)
    _emit(doc)
    return EXIT_OK


def cmd_retrieve(args) -> int:
    from . import retrieval

    db_dir = Path(args.db)
    if not db_dir.is_dir():
        raise NotADirectoryError(f"--db {args.db}: not a directory")
    config, weights, meta = _resolve_weights(args)
    edges = config.edges
    if (db_dir / retrieval.INDEX_FILE).exists():
        db = retrieval.load_database(db_dir, weights)
    else:
        # bare directory of graph JSON files: encode on the fly
        paths = sorted(db_dir.glob("*.json"))
        if not paths:
            raise SgaError(f"no scene graphs under {args.db}")
        graphs = [load_graph(path, edges.n_max, edges.d_th) for path in paths]
        if repeat := retrieval.repeated_id([g.graph_id for g in graphs]):
            i, j = repeat
            raise InvalidInputError(f"{paths[i]} and {paths[j]}: both have graph_id "
                                    f"{graphs[j].graph_id!r}")
        db = retrieval.build_database([(g.graph_id, g) for g in graphs], weights)
    query_graph = load_graph(args.query, edges.n_max, edges.d_th)
    query = retrieval.encode_scene("query", query_graph, weights)
    rerank = args.rerank or config.retrieval.rerank
    result = retrieval.retrieve(query, db, args.k, rerank, config)
    doc = result.to_dict()
    doc["meta"] = {**meta, "k": args.k, "rerank": rerank, "db_size": len(db)}
    _emit(doc)
    return EXIT_OK


def cmd_demo_fit(args) -> int:
    from .losses import toy_embedding_fit

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
    parser = _ArgumentParser(
        prog="sgalign", description="3D scene-graph alignment toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weights=True):
        p.add_argument("--config", default=None, help="pipeline config JSON")
        if weights:
            p.add_argument("--weights", default=None,
                           help="encoder weights file (npz, format_version 2)")
            _add_number(p, "--seed", ">= 0", default=0,
                        help="weight-init seed when --weights is absent")

    p = sub.add_parser("align", help="match two scene graphs")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--allocator", choices=ALLOCATORS, default="mcf")
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
    p.add_argument("--task", choices=synth.TASKS, required=True)
    _add_number(p, "--count", ">= 1", default=1)
    _add_number(p, "--seed", ">= 0", default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--feature-noise", type=float, default=0.05)
    p.add_argument("--position-noise", type=float, default=0.02)
    p.add_argument("--undersegment", type=float, default=0.05)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--unique-classes", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="score predictions over a sample directory")
    p.add_argument("--pairs", required=True)
    p.add_argument("--allocator", choices=ALLOCATORS, default="mnn")
    p.add_argument("--out", default=None)
    p.add_argument("--csv", default=None)
    _add_number(p, "--jobs", ">= 1", default=1)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("register", help="rigid transform from matched centers")
    p.add_argument("--pair", required=True)
    p.add_argument("--allocator", choices=ALLOCATORS, default="mcf")
    _add_number(p, "--ransac-iters", ">= 1", default=registration.DEFAULT_RANSAC_ITERS)
    _add_number(p, "--inlier-eps", "finite and >= 0",
                default=registration.DEFAULT_INLIER_EPS)
    common(p)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("retrieve", help="query a scene database")
    p.add_argument("--query", required=True)
    p.add_argument("--db", required=True)
    _add_number(p, "--k", ">= 1", default=5)
    p.add_argument("--rerank", choices=RERANK_MODES, default=None,
                   help="rerank mode (default: retrieval.rerank of the config)")
    common(p)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("demo-fit", help="contrastive fit of free embeddings")
    p.add_argument("--task", choices=synth.TASKS, default="f2s")
    _add_number(p, "--seed", ">= 0", default=0)
    _add_number(p, "--steps", ">= 0", default=200)
    _add_number(p, "--lr", "finite and > 0", default=0.1)
    p.set_defaults(func=cmd_demo_fit)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Overflow, division by zero and invalid operations raise
        # FloatingPointError, reported as one error line, instead of printing
        # a RuntimeWarning; underflow to zero stays silent. `run_parts`
        # passes the state on to its threads.
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            return args.func(args)
    except SystemExit:  # argparse exits only after printing --help
        return EXIT_OK
    except (UsageError, OSError) as exc:
        _log("ERROR", exc)
        return EXIT_USAGE
    except SgaError as exc:
        _log("ERROR", exc)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        _log("ERROR", f"floating-point error: {exc}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

"""f2s_eval: repeated `sgalign eval --allocator mcf --jobs 1` child processes.

Every op is one child process over the same directory of default
frame-to-scan pairs, so each call pays interpreter start, import and weight
init as a user's call does. Frames have about 3.6 nodes and maps about 18:
tiny products, per-call overhead and JSON parsing dominate. The directory
repeats on purpose, so that the reports can be compared byte for byte;
each child starts cold and shares nothing with the previous one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from sgalign import (PipelineConfig, SynthConfig, aggregate, cosine_scores,
                     encode_graph, init_weights, make_sample, mcf_allocate,
                     sample_metrics, score_matrix)
from sgalign import cli
from sgalign.allocator import candidate_set
from sgalign.errors import GenerationError, InvalidInputError
from sgalign.evaluation import bin_by_overlap
from sgalign.synth import load_sample, save_sample

import common
from spans import SpanRecorder

N_PAIRS = 60
MIN_CALLS = 4           # untraced runs time at least this many calls
CALL_TIMEOUT_S = 60
EVAL_ARGS = ["eval", "--allocator", "mcf", "--jobs", "1"]
SETUP_REPEATS = 5
# What every eval call does before its first pair: import the CLI and
# initialise the default weights.
SETUP_CODE = ("from sgalign import PipelineConfig, cli, init_weights; "
              "init_weights(PipelineConfig().encoder, 0)")


def write_pairs(seed: int, directory: Path) -> None:
    """N_PAIRS default f2s samples; seeds that cannot be generated are skipped."""
    j = written = 0
    while written < N_PAIRS:
        n = common.scheduled_size(written, *SynthConfig().n_objects)
        cfg = SynthConfig(seed=seed * common.SEED_STRIDE + j, n_objects=(n, n))
        j += 1
        try:
            sample = make_sample("f2s", cfg)
        except (GenerationError, InvalidInputError):
            continue
        save_sample(sample, directory / f"f2s_{written:03d}")
        written += 1


def _child(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a Python child that imports sgalign from ./src; (wall s, result)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          timeout=CALL_TIMEOUT_S, check=False)
    return time.perf_counter() - started, proc


def _call(pairs: Path) -> tuple[float, subprocess.CompletedProcess]:
    return _child(["-m", "sgalign.cli", *EVAL_ARGS, "--pairs", str(pairs)])


def _setup(tally: common.Tally) -> float:
    """Median wall time of a child doing an eval call's set-up only."""
    times = []
    for _ in range(SETUP_REPEATS):
        dt, proc = _child(["-c", SETUP_CODE])
        tally.record([] if proc.returncode == 0 else
                     [f"set-up child exit {proc.returncode}: "
                      f"{proc.stderr.decode(errors='replace')[-300:]}"])
        times.append(dt)
    return statistics.median(times)


def _report_errors(proc: subprocess.CompletedProcess, reference: bytes | None) -> list[str]:
    """Exit 0, exactly one JSON document, every pair scored, same bytes."""
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"]
    text = proc.stdout.decode("utf-8", errors="replace")
    lines = text.split("\n")
    if len(lines) != 2 or lines[1] != "":
        return [f"stdout holds {len(lines) - 1} lines, expected one JSON document"]
    try:
        report = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    errors = []
    if report.get("meta", {}).get("n_samples") != N_PAIRS:
        errors.append(f"n_samples {report.get('meta', {}).get('n_samples')} != {N_PAIRS}")
    if reference is not None and proc.stdout != reference:
        errors.append("report bytes differ from the first call's")
    return errors


def _inprocess(pairs: Path) -> str:
    """The composed call, cli.main, run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([*EVAL_ARGS, "--pairs", str(pairs)])
    if code != 0:
        raise RuntimeError(f"in-process eval exited {code}")
    return buf.getvalue()


def _replay(rec: SpanRecorder, pairs: Path) -> str:
    """cmd_eval composed from the inner public functions, one span each.

    Like cmd_eval, the pairs run on one worker thread while this thread
    waits, so the spans still nest one at a time.
    """
    with rec.span(common.ROOT_SPAN):
        with rec.span("encoder.init_weights"):
            config = PipelineConfig()
            weights = init_weights(config.encoder, 0)
        cfg = weights.config

        def one(pair_dir: Path):
            with rec.span("scene_graph.load_sample") as span:
                sample = load_sample(pair_dir)
            a, b = sample.graph_a, sample.graph_b
            span.attrs.update(nodes=len(a.nodes) + len(b.nodes),
                              edges=len(a.edges) + len(b.edges))
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
            with rec.span("evaluation.sample_metrics"):
                metrics = sample_metrics(matches, sample.gt, len(a.nodes))
                return ({"sample": pair_dir.name, "overlap": sample.overlap_ratio,
                         "task": sample.task, **metrics.to_dict()},
                        (sample.overlap_ratio, metrics))

        with ThreadPoolExecutor(max_workers=1) as pool:
            rows = list(pool.map(one, sorted(p for p in pairs.iterdir() if p.is_dir())))
        with rec.span("evaluation.aggregate"):
            rows.sort(key=lambda r: r[0]["sample"])
            overall = aggregate([m for _, (_, m) in rows])
            bins = bin_by_overlap([om for _, om in rows])
        with rec.span("cli.report"):
            report = {"overall": overall, "bins": bins,
                      "per_sample": [r[0] for r in rows],
                      "meta": {"weights": None, "seed": 0, "allocator": "mcf",
                               "n_samples": len(rows)}}
            text = json.dumps(report, sort_keys=True) + "\n"
    return text


def run(seed: int, seconds: float, trace: bool, tally: common.Tally, tmp: Path):
    pairs = tmp / "pairs"
    write_pairs(seed, pairs)

    # The first call is an untimed warm-up that fixes the reference report.
    _, first = _call(pairs)
    setup_s = _setup(tally)
    tally.record(_report_errors(first, None))
    reference = first.stdout
    f1 = json.loads(reference)["overall"]["f1"] if first.returncode == 0 else 0.0

    rec = SpanRecorder() if trace else None
    children: list[float] = []
    untraced: list[float] = []

    def step(i):
        dt, proc = _call(pairs)
        children.append(dt)
        errors = _report_errors(proc, reference)
        if trace:
            rec.op = i
            composed, composed_s, replayed, replay_s = common.run_both(
                i, lambda: _inprocess(pairs), lambda: _replay(rec, pairs))
            untraced.append(composed_s)
            dt += composed_s + replay_s
            if not composed.encode() == replayed.encode() == reference:
                errors.append("in-process eval or replay differs from the child's report")
        return dt, errors

    # A traced run needs both orders of run_both.
    times = common.closed_loop(seconds, 2 if trace else MIN_CALLS, step, tally)

    if trace:
        # The share of a child call spent outside the in-process eval:
        # process start, interpreter start and imports.
        startup = 1.0 - statistics.fmean(untraced) / statistics.median(children)
        return common.layer_metrics(rec, len(times), statistics.fmean(untraced),
                                    setup_s, {"cli.startup_frac": startup}), rec

    common.log(f"f2s_eval: {len(times)} timed calls of {N_PAIRS} pairs, "
               f"set-up {setup_s:.3f} s")
    m = common.metric
    return {
        "setup_s": m(setup_s, "s"),
        "throughput": m(N_PAIRS / statistics.median(children), "1/s"),
        "latency_ms_p50": m(common.percentile(children, 50) * 1e3, "ms"),
        "latency_ms_p90": m(common.percentile(children, 90) * 1e3, "ms"),
        "quality": m(f1, "fraction"),
        "peak_rss_mb": m(common.peak_rss_mb(children=True), "MiB"),
    }, None

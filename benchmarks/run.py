#!/usr/bin/env python3
"""sgalign benchmark: three closed-loop workloads, one client, one process.

    python3 benchmarks/run.py --workload s2s_stream --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the library from ./src and
writes only under the checkout (a temporary directory it removes on exit,
and with --trace 1 the span file under .bench_trace/). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured untraced;
with --trace 1 they are the per-layer ones of a traced run. Everything
else (machine record, failures, sample counts) goes to stderr.

See benchmarks/README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("f2s_eval", "s2s_stream", "retrieve_db")
TMP_PARENT = ROOT / ".bench_tmp"
TRACE_DIR = ROOT / ".bench_trace"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_library() -> bool:
    """Put ./src first on the path and check that sgalign comes from it."""
    if not (SRC / "sgalign" / "__init__.py").is_file():
        print(f"error: no sgalign package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import sgalign
    if Path(sgalign.__file__).resolve().parent != SRC / "sgalign":
        print(f"error: sgalign imported from {sgalign.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 1
    if not _import_library():
        return 2
    # SIGTERM unwinds like an exception, so the temporary directory goes too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import common
    import machine
    import f2s_eval
    import retrieve_db
    import s2s_stream

    record = machine.record()
    common.log(json.dumps({"machine": record}))
    gemm = machine.gemm_gflops(args.seed) if args.trace else None

    module = {"f2s_eval": f2s_eval, "s2s_stream": s2s_stream,
              "retrieve_db": retrieve_db}[args.workload]
    tally = common.Tally()
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_PARENT))
    try:
        metrics, rec = module.run(args.seed, args.seconds, bool(args.trace),
                                  tally, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass  # another run still uses it

    if rec is not None:
        metrics["machine.gemm_gflops"] = common.metric(gemm, "GFLOP/s")
        out = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        rec.write(out, {"workload": args.workload, "seed": args.seed,
                        "machine": record, "metrics": metrics})
        common.log(f"spans: {len(rec.spans)} written to {out}")
    for msg in tally.messages:
        common.log(f"failed op: {msg}")
    error_rate = tally.failed / max(tally.attempted, 1)
    common.log(json.dumps({"workload": args.workload, "seed": args.seed,
                           "attempted": tally.attempted, "failed": tally.failed,
                           "error_rate": error_rate}))
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

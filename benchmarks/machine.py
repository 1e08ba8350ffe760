"""Machine record and the float64 GEMM reference rate.

Everything here only reads: the benchmark sets no thread count, affinity
or environment variable, so the record describes the machine as found.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time

import numpy as np

# (rows, inner, cols) of the encoder's dense products at 25 nodes: the
# per-node projections, the output FFN and the class-token attention.
GEMM_SHAPES = ((25, 672, 512), (25, 1344, 512), (26, 512, 512))
GEMM_REPEATS = 7
GEMM_BATCH_S = 0.05
GEMM_WARM_S = 1.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info: dict = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = deps.get("name", "unknown")
        info["version"] = deps.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Ask the OpenBLAS that NumPy loaded for its thread count, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {parts[-1] for parts in (line.split() for line in fh)
                    if len(parts) == 6 and "openblas" in parts[-1]
                    and ".so" in parts[-1]}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def record() -> dict:
    env = {k: os.environ[k] for k in sorted(os.environ)
           if k.endswith("_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": env,
    }


def gemm_gflops(seed: int) -> float:
    """Median float64 GEMM rate over the encoder shapes, in GFLOP/s."""
    rng = np.random.default_rng(seed)
    operands = [(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
                for m, k, n in GEMM_SHAPES]
    flop = sum(2.0 * m * k * n for m, k, n in GEMM_SHAPES)
    started = time.perf_counter()
    while time.perf_counter() - started < GEMM_WARM_S:
        for a, b in operands:
            a @ b
    rates = []
    for _ in range(GEMM_REPEATS):
        calls = 0
        started = time.perf_counter()
        while True:
            for a, b in operands:
                a @ b
            calls += 1
            elapsed = time.perf_counter() - started
            if elapsed >= GEMM_BATCH_S:
                break
        rates.append(calls * flop / elapsed / 1e9)
    return statistics.median(rates)

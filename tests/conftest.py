import contextlib
import functools
import io
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from sgalign import EncoderConfig, init_weights
from sgalign.scene_graph import DEFAULT_D_TH, DEFAULT_N_MAX, SceneGraph, build_edges


@pytest.fixture(scope="session")
def default_weights():
    return init_weights(EncoderConfig(), seed=0)


@pytest.fixture(scope="session")
def small_config():
    """Cheap encoder for tests that exercise structure, not scale."""
    return EncoderConfig(pe_dim=8, heads=2, layers=2, d_model=32,
                         gate_hidden=4, geo_hidden=6, feature_dims=(10, 12))


@pytest.fixture(scope="session")
def small_weights(small_config):
    return init_weights(small_config, seed=7)


def pytest_collectstart(collector):
    """Add each test file's refusal tests, rows of test_contract.FOLDED, to its module."""
    if isinstance(collector, pytest.Module):
        try:
            from test_contract import keep_ids
            module = collector.obj
        except Exception:  # pytest reports the file that does not import
            return
        keep_ids(vars(module))


@pytest.fixture(scope="session")
def contract_args(small_weights, tmp_path_factory):
    """The arguments that test_contract's base calls share."""
    from test_contract import shared_args
    return shared_args(small_weights, tmp_path_factory.mktemp("contract"))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """The environment with ./src first on PYTHONPATH, so a child Python
    imports this checkout's sgalign whether or not it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# OpenBLAS kernel sets other than the one it picks on this CPU, which
# OPENBLAS_CORETYPE forces, and the CPU flag each one's kernels need.
KERNEL_SETS = {"Haswell": "avx2", "Sandybridge": "avx"}


def kernel_set_available(coretype: str) -> bool:
    """Whether numpy's OpenBLAS picks its kernels at run time and the CPU
    runs the `coretype` ones."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        flags = Path("/proc/cpuinfo").read_text().split()
    except (TypeError, KeyError, OSError):  # numpy < 1.25 has no mode; not Linux
        return False
    return ("DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and KERNEL_SETS[coretype] in flags)


@functools.cache
def kernel_set_run(coretype: str) -> subprocess.CompletedProcess:
    """One pytest child under OPENBLAS_CORETYPE=`coretype` that reruns the
    encoder's batch-invariance tests and product row scan and topk_filter's
    np.dot-bit tests, reporting each passed test by id. The kernel-set tests
    of test_encoder.py and test_retrieval.py both read this one run."""
    env = child_env()
    env["OPENBLAS_CORETYPE"] = coretype
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-rp", "-p", "no:cacheprovider",
                           "tests/test_encoder.py", "tests/test_properties.py",
                           "tests/test_retrieval.py", "-k",
                           "(one_graph_calls or BatchInvariance or RowScan or dot_bits"
                           " or tie_by_scene_id) and not kernel_set"],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=False)


def kernel_set_passed(coretype: str, files) -> int:
    """How many tests of `files` passed in the kernel-set child; fails the
    calling test if anything in that child failed or errored."""
    run = kernel_set_run(coretype)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-1000:]
    assert run.stdout.splitlines()[-1].startswith("10 passed"), run.stdout[-3000:]
    return sum(line.startswith(tuple(f"PASSED tests/{name}::" for name in files))
               for line in run.stdout.splitlines())


def run_cli(*args, text=True):
    """`python -m sgalign.cli *args` in a child process, output captured.
    A child is needed only where the test is about the process: output bytes
    compared across separate runs, and the exit status that the module's
    entry point hands the shell, one test per exit code. Every other CLI
    test calls `run_main`, which checks the same code, stdout and stderr."""
    return subprocess.run([sys.executable, "-m", "sgalign.cli", *args],
                          capture_output=True, text=text, env=child_env())


@dataclass
class CliRun:
    returncode: int
    stdout: str
    stderr: str


def run_main(*args) -> CliRun:
    """`sgalign.cli.main(args)` in this process, stdout and stderr captured.
    An exception that escapes main propagates, and so does a warning, raised
    as an error: neither can hide in a captured stderr."""
    from sgalign import cli
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        code = cli.main([str(a) for a in args])
    return CliRun(code, out.getvalue(), err.getvalue())


def graph_columns(g) -> dict:
    """The SceneGraph keywords that rebuild g: its columns."""
    return {"ids": g.ids, "labels": g.labels, "positions": g.positions(), "f_vl": g.f_vl,
            "f_t": g.f_t, "f_g": g.f_g, "gt_instance": g.gt_instance,
            "gt_present": g.gt_present, "endpoints": g.endpoints,
            "edge_distances": g.edge_distances}


def with_columns(g, graph_id=None, frame_kind=None, **columns):
    """A copy of graph g with its id, frame kind or some columns replaced."""
    return SceneGraph(graph_id or g.graph_id, frame_kind or g.frame_kind,
                      **{**graph_columns(g), **columns})


def with_edges(g, n_max=DEFAULT_N_MAX, d_th=DEFAULT_D_TH, **changes):
    """`with_columns(g, **changes)` with the edges `build_edges` gives its
    ids and positions."""
    g = with_columns(g, **changes)
    endpoints, distances = build_edges(g.ids, g.positions(), n_max, d_th)
    return with_columns(g, endpoints=endpoints, edge_distances=distances)


def rows_graph(rows, feature_dims, graph_id="g", ids=None, labels=None,
               n_max=DEFAULT_N_MAX, d_th=DEFAULT_D_TH):
    """The world-frame graph of these (position, f_vl, f_t, f_g) node rows,
    with ids 0..n-1 and empty labels unless given, no ground truth, and the
    edges `build_edges` gives with n_max and d_th."""
    n = len(rows)
    ids = np.arange(n, dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
    positions, f_vl, f_t, f_g = (np.array([row[k] for row in rows], dtype=float).reshape(n, width)
                                 for k, width in enumerate((3, *feature_dims, 3)))
    endpoints, distances = build_edges(ids, positions, n_max, d_th)
    return SceneGraph(graph_id, "world", ids=ids, labels=[""] * n if labels is None else labels,
                      positions=positions, f_vl=f_vl, f_t=f_t, f_g=f_g,
                      gt_instance=np.zeros(n, np.int64), gt_present=np.zeros(n, bool),
                      endpoints=endpoints, edge_distances=distances)


def assert_same_graphs(got, want):
    """Every graph field and column equal: the strings and feature dims, and
    each column's dtype, shape and bytes, all read-only."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.graph_id, g.frame_kind, g.feature_dims, g.labels) == \
               (w.graph_id, w.frame_kind, w.feature_dims, w.labels)
        assert [type(label) for label in g.labels] == [type(label) for label in w.labels]
        for name, got_v in graph_columns(g).items():
            if name == "labels":
                continue
            want_v = graph_columns(w)[name]
            assert (got_v.dtype, got_v.shape) == (want_v.dtype, want_v.shape), name
            assert got_v.tobytes() == want_v.tobytes(), name
            assert not got_v.flags.writeable and not want_v.flags.writeable, name

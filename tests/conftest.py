import contextlib
import io
import logging
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from sgalign import EncoderConfig, init_weights


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


def run_cli(*args, cwd=None, text=True):
    """`python -m sgalign.cli *args` in a child process, output captured."""
    return subprocess.run([sys.executable, "-m", "sgalign.cli", *args],
                          capture_output=True, text=text, cwd=cwd, env=child_env())


@dataclass
class CliRun:
    returncode: int
    stdout: str
    stderr: str


def run_main(*args) -> CliRun:
    """`sgalign.cli.main(args)` in this process, as a fresh process would run
    it: stdout and stderr captured, logging set up from scratch. An
    exception that escapes main propagates."""
    from sgalign import cli
    root = logging.getLogger()
    saved = root.handlers[:], root.level
    root.handlers.clear()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in args])
    finally:
        for handler in root.handlers:
            handler.close()
        root.handlers[:], root.level = saved
    return CliRun(code, out.getvalue(), err.getvalue())


def node_vectors(n):
    return n.x, n.features.f_vl, n.features.f_t, n.features.f_g


def assert_same_graphs(got, want):
    """Every graph, node and edge field equal bit for bit, with the same
    Python types for ids, gt_instance values and distances."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.graph_id, g.frame_kind, g.feature_dims) == (w.graph_id, w.frame_kind,
                                                               w.feature_dims)
        assert [(n.id, type(n.id), n.label, n.gt_instance, type(n.gt_instance))
                for n in g.nodes] == \
               [(n.id, type(n.id), n.label, n.gt_instance, type(n.gt_instance))
                for n in w.nodes]
        for m, n in zip(g.nodes, w.nodes):
            for got_v, want_v in zip(node_vectors(m), node_vectors(n)):
                assert got_v.dtype == want_v.dtype and got_v.shape == want_v.shape
                assert got_v.tobytes() == want_v.tobytes()
        assert g.edges == w.edges
        assert [type(x) for e in g.edges for x in (e.i, e.j, e.d)] == \
               [type(x) for e in w.edges for x in (e.i, e.j, e.d)]

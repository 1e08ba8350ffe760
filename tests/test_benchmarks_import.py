"""Every benchmark module imports against this checkout's library, so a
rename in sgalign that would break the bench harness fails here first."""

import subprocess
import sys

import pytest
from conftest import ROOT, child_env

BENCH = ROOT / "benchmarks"
MODULES = sorted(p.stem for p in BENCH.glob("*.py"))


def test_modules_found():
    assert {"run", "common", "f2s_eval", "s2s_stream", "retrieve_db"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports(module):
    # run from benchmarks/, as `python benchmarks/run.py` puts it first on the path
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], cwd=BENCH,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

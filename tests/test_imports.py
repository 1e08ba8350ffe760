"""Each command imports only what it runs. `import sgalign` loads no
submodule (its names are exported lazily), and `cli` imports the modules
that one command alone uses (`retrieval`, `losses`, `csv`) inside that
command. A child process runs each command on small inputs and reports
which of the watched modules it loaded beyond what `import numpy, orjson`
loads alone: numpy 1.24 imports `numpy.ma` with numpy, numpy 2.x only on
its first use (a 1-D `np.unique` is one), and no command makes one."""

import json
import subprocess
import sys

import pytest

import sgalign
from conftest import child_env
from sgalign.synth import SynthConfig, make_sample, save_sample

WATCHED = ("numpy.ma", "sgalign.retrieval", "sgalign.losses", "csv", "concurrent.futures")

CHILD = """
import json, sys
import numpy, orjson
baseline = set(sys.modules)
from sgalign import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(
    m for m in %r if m in sys.modules and m not in baseline)}))
""" % (WATCHED,)

# A cheap encoder for the feature dims of the samples below.
CONFIG = {"encoder": {"d_model": 16, "heads": 2, "layers": 1, "pe_dim": 8, "gate_hidden": 4,
                      "geo_hidden": 6, "feature_dims": [4, 5]}}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    for k in range(2):
        sample = make_sample("s2s", SynthConfig(seed=k, n_objects=(8, 10), feature_dims=(4, 5)))
        save_sample(sample, root / "pairs" / f"s2s_{k}")
        doc = json.loads((root / "pairs" / f"s2s_{k}" / "b.json").read_text())
        doc["graph_id"] = f"scene-{k}"
        (root / "scenes").mkdir(exist_ok=True)
        (root / "scenes" / f"scene-{k}.json").write_text(json.dumps(doc))
    (root / "c.json").write_text(json.dumps(CONFIG))
    return root


# Each command, and which of WATCHED it loads.
COMMANDS = {
    "validate": (["validate", "pairs/s2s_0/a.json"], set()),
    "align": (["align", "pairs/s2s_0/a.json", "pairs/s2s_0/b.json"], set()),
    "encode": (["encode", "pairs/s2s_0/b.json"], set()),
    "eval": (["eval", "--pairs", "pairs", "--allocator", "mcf"], set()),
    "eval --csv": (["eval", "--pairs", "pairs", "--csv", "report.csv"], {"csv"}),
    "register": (["register", "--pair", "pairs/s2s_1"], set()),
    "retrieve": (["retrieve", "--query", "pairs/s2s_0/a.json", "--db", "scenes"],
                 {"sgalign.retrieval"}),
}


def loaded_modules(args, cwd) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", CHILD, *args], capture_output=True, text=True,
                          cwd=cwd, env=child_env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return set(report["loaded"])


@pytest.mark.parametrize("name", COMMANDS)
def test_command_loads_only_what_it_runs(inputs, name):
    args, expected = COMMANDS[name]
    assert loaded_modules([*args, "--config", "c.json"], inputs) == expected


def test_demo_fit_loads_losses(tmp_path):
    assert loaded_modules(["demo-fit", "--steps", "2"], tmp_path) == {"sgalign.losses"}


def test_import_sgalign_loads_no_submodule():
    code = ("import sys, sgalign; "
            "print(sorted(m for m in sys.modules if m.startswith('sgalign.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestLazyExports:
    def test_each_name_from_its_module(self):
        for module, names in sgalign._EXPORTS.items():
            for name in names:
                value = getattr(sgalign, name)
                assert value is getattr(sys.modules[f"sgalign.{module}"], name), name

    def test_dir_lists_every_name_and_submodule(self):
        listed = dir(sgalign)
        assert set(sgalign.__all__) <= set(listed)
        assert {"cli", "errors", "retrieval", "losses"} <= set(listed)
        assert listed == sorted(listed)

    def test_all_names_each_once(self):
        assert len(sgalign.__all__) == len(set(sgalign.__all__))

    def test_from_import_and_submodule_attribute(self):
        from sgalign import SceneDatabase, cli, retrieval
        assert SceneDatabase is retrieval.SceneDatabase
        assert sgalign.cli is cli

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'sgalign' has no attribute 'Nope'"):
            sgalign.Nope  # noqa: B018
        assert not hasattr(sgalign, "Nope")

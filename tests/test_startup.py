"""Start-up stays light: importing the package, loading a config,
``preset-kac`` and ``simulate`` never import scipy.  Only ``verify`` and
``bound`` load it, on first use.

The checks run in a fresh interpreter, because this test process has
scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cdexchange

SRC = str(Path(cdexchange.__file__).resolve().parent.parent)

SCRIPT = r"""
import json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def light(step):
    loaded = scipy_modules()
    assert not loaded, f"{step} imported {loaded[:5]}"

out = sys.argv[1]
import cdexchange
light("import cdexchange")
from cdexchange import cli
light("import cdexchange.cli")

assert cli.main(["preset-kac", "--agents", "4", "--out", out, "--seed", "3"]) == 0
light("preset-kac")
kac = os.path.join(out, "kac_config.json")
with open(kac) as fh:
    doc = json.load(fh)
doc["simulation"]["n_trajectories"] = 40
starts = {
    "endowments": "endowments",
    "equilibrium": "equilibrium",
    "holdings": [[0.1], [0.2], [0.3], [0.4]],
}
for name, start in starts.items():
    doc["simulation"]["initial_state"] = start
    path = os.path.join(out, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    cli.load_config(path)
    light("load_config")
    run_dir = os.path.join(out, name)
    assert cli.main(["simulate", "--config", path, "--out", run_dir]) == 0
    light(f"simulate from the {name} start")

assert cli.main(["verify", "--config", kac, "--out", out,
                 "--trajectories", "40"]) == 0
assert "scipy.special" in sys.modules
assert cli.main(["bound", "--config", kac, "--out", out]) == 0
print(json.dumps(sorted(os.listdir(out))))
"""


def test_simulate_path_never_imports_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    written = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in ("convergence.json", "doeblin.json", "kac_config.json"):
        assert name in written
    for name in ("endowments", "equilibrium", "holdings"):
        assert (tmp_path / name / "simulate.json").is_file()

"""Smoke tests of the experiment scripts, each run as a subprocess."""

import csv
import os
import subprocess
import sys
from pathlib import Path

from qcorrkit.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )


def test_train_predictor_weights_match_weights_command(tmp_path):
    out = tmp_path / "predictor"
    run_script("train_predictor.py", "--out", str(out), "--rows", "50", "--restarts", "1")
    weights = sorted(out.glob("*_weights.csv"))
    assert [w.name for w in weights] == [
        "no_wmr_eta0_weights.csv",
        "no_wmr_eta1_weights.csv",
        "wmr2_eta0_weights.csv",
        "wmr2_eta1_weights.csv",
    ]
    for path in weights:
        model = path.with_name(path.name.replace("_weights.csv", "_model.json"))
        expected = tmp_path / f"cmd_{path.name}"
        assert main(["weights", "--model", str(model), "-o", str(expected)]) == 0
        assert path.read_bytes() == expected.read_bytes(), path.name


def test_sweep_figures_headers(tmp_path):
    out = tmp_path / "sweeps"
    run_script("sweep_figures.py", "--out", str(out), "--points", "3")
    tables = sorted(out.glob("*.csv"))
    assert len(tables) == 24
    # the layout documented in the README and the sweep module docstring
    measures = "chi,fidelity,concurrence,qs,tdd,jsd".split(",")
    base = ["sweep_var", "value", *measures, *(f"n_{m}" for m in measures)]
    for path in tables:
        protected = "_wm1_" in path.name or "_wm2_" in path.name
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == base + (["r_star", "success_prob"] if protected else []), path.name
        assert len(rows) == 4, path.name

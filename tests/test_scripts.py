"""Smoke tests of the experiment scripts, each run as a subprocess."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from qcorrkit.channels import WmrMode
from qcorrkit.cli import main
from qcorrkit.states import StateFamily
from qcorrkit.sweep import SweepConfig, run_sweep, sweep_csv_text

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
    # every file the script writes equals the CLI's own train/predict output at the same flags
    out = tmp_path / "predictor"
    run_script("train_predictor.py", "--out", str(out), "--rows", "50", "--restarts", "1")
    scenarios = [("no_wmr", "0"), ("no_wmr", "1"), ("wmr2", "0"), ("wmr2", "1")]
    suffixes = ("_data.csv", "_model.json", "_weights.csv", "_predictions.csv")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"{scenario}_eta{eta}{suffix}" for scenario, eta in scenarios for suffix in suffixes
    )
    cmd = tmp_path / "cmd"
    cmd.mkdir()
    for scenario, eta in scenarios:
        tag = f"{scenario}_eta{eta}"
        data, model = cmd / f"{tag}_data.csv", cmd / f"{tag}_model.json"
        assert main([
            "train", "--scenario", scenario, "--eta", eta, "--rows", "50", "--restarts", "1",
            "--dataset-out", str(data), "--model-out", str(model),
        ]) == 0
        assert main(["weights", "--model", str(model), "-o", str(cmd / f"{tag}_weights.csv")]) == 0
        assert main([
            "predict", "--model", str(model), "--data", str(data),
            "-o", str(cmd / f"{tag}_predictions.csv"),
        ]) == 0
        for suffix in suffixes:
            name = tag + suffix
            assert (out / name).read_bytes() == (cmd / name).read_bytes(), name


def _sweep_figures_configs(points):
    """File name -> the SweepConfig each table is built from, spelled out on the library."""
    configs = {}
    families = {"bell": StateFamily("bell"), "werner08": StateFamily("werner", 0.8),
                "mems08": StateFamily("mems", 0.8)}
    modes = (("wm1", WmrMode.ONE_QUBIT), ("wm2", WmrMode.TWO_QUBIT))
    for eta in (0.0, 1.0):
        tag = f"eta{int(eta)}"
        for label, family in families.items():
            configs[f"{label}_p_{tag}.csv"] = SweepConfig(family=family, eta=eta, points=points)
            for mode_tag, mode in modes:
                configs[f"{label}_q_{mode_tag}_{tag}.csv"] = SweepConfig(
                    family=family, eta=eta, mode=mode, var="q", points=points)
        nme = StateFamily("nme", 0.5)
        configs[f"nme_alpha2_none_{tag}.csv"] = SweepConfig(
            family=nme, var="alpha2", eta=eta, points=points)
        for mode_tag, mode in modes:
            configs[f"nme_alpha2_{mode_tag}_{tag}.csv"] = SweepConfig(
                family=nme, var="alpha2", eta=eta, mode=mode, q_fixed=0.5, points=points)
    return configs


def test_sweep_figures_headers(tmp_path):
    out = tmp_path / "sweeps"
    printed = run_script("sweep_figures.py", "--out", str(out), "--points", "3").stdout
    tables = sorted(out.glob("*.csv"))
    assert len(tables) == 24
    assert printed.count("$ qcorrkit sweep ") == 24
    # the layout documented in the README and the sweep module docstring
    measures = "chi,fidelity,concurrence,qs,tdd,jsd".split(",")
    base = ["sweep_var", "value", *measures, *(f"n_{m}" for m in measures)]
    for path in tables:
        protected = "_wm1_" in path.name or "_wm2_" in path.name
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == base + (["r_star", "success_prob"] if protected else []), path.name
        assert len(rows) == 4, path.name
    # every table is the library's own sweep of the configuration it names
    configs = _sweep_figures_configs(3)
    assert sorted(configs) == [path.name for path in tables]
    for name, config in configs.items():
        text = (out / name).read_bytes().decode("utf-8")
        assert text == sweep_csv_text(run_sweep(config)), name


def test_battery_matches_the_committed_manifest(tmp_path):
    # every file of the battery keeps its bytes; a change that moves some on
    # purpose regenerates docs/battery.json and names them
    manifest = tmp_path / "battery.json"
    run_script("battery.py", "--manifest", str(manifest))
    committed = json.loads((ROOT / "docs" / "battery.json").read_text())
    regenerated = json.loads(manifest.read_text())
    assert regenerated["note"] == committed["note"]
    names = sorted(set(committed["files"]) | set(regenerated["files"]))
    moved = [name for name in names
             if committed["files"].get(name) != regenerated["files"].get(name)]
    assert not moved, f"files that differ from docs/battery.json: {moved}"
    assert manifest.read_bytes() == (ROOT / "docs" / "battery.json").read_bytes()

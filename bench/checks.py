"""Output checks; they run outside the timed passes.

Every check compares a job's output with an independent reference at a
stated tolerance, each taken from the test suite:

- sweep rows, on a seeded sample: concurrence against the Bell closed
  form (1e-9, tests/test_closed_forms.py) or the spin-flip eigensolve
  oracle (1e-7, tests/test_measures.py); dense coding against the
  partial-trace oracle (1e-10), steering against the conditional-entropy
  oracle plus its marginal term (1e-9) and discord against half the
  measurement oracle (1e-8), all three from tests/test_oracles.py.  The
  reference state is rebuilt by the straight-line composition in
  ``closed_forms``, not by ``channels``;
- normalized columns, on every row: the affine map of the raw column
  (1e-12, tests/test_measures.py);
- ``r_star``: the concurrence it reaches must not lose to a 2001-point
  r-grid of the dense pipeline by more than 1e-10 (tests/test_optimize.py);
- ``train``: test MSE at most 1e-3 (acceptance criterion 10); the saved
  model reproduces the ``predict`` column exactly and its weight summary
  equals the one written at training time;
- ``verify``: exit code 0;
- determinism: every job's output bytes equal those of the first pass
  (acceptance criterion 11 and the README's determinism claim).
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

import numpy as np

from qcorrkit.channels import ChannelParams, WmrMode, WmrParams, wmr_pipeline
from qcorrkit.closed_forms import (
    _reference_pipeline_state,
    bell_wmr_concurrence,
    wootters_concurrence_oracle,
)
from qcorrkit.exceptions import DegenerateMeasurementError
from qcorrkit.measures import DEFAULT_NORMALIZATION, concurrence
from qcorrkit.mlp import forward, mlp_from_json
from qcorrkit.optimize import _R_MAX
from qcorrkit.oracles import dense_coding_oracle, steering_entropy_oracle, tdd_measurement_oracle
from qcorrkit.states import StateFamily, make_state

MEASURES = ("chi", "fidelity", "concurrence", "qs", "tdd", "jsd")

TOL_CONCURRENCE_CLOSED_FORM = 1e-9
TOL_CONCURRENCE_WOOTTERS = 1e-7
TOL_DENSE_CODING = 1e-10
TOL_STEERING = 1e-9
TOL_DISCORD = 1e-8
TOL_NORMALIZED = 1e-12
TOL_R_STAR = 1e-10
TOL_SAME_ROUTE = 1e-12  # a value recomputed by the very route that wrote it
MAX_TEST_MSE = 1e-3

R_GRID_POINTS = 2001


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _close(name: str, got: float, want: float, tol: float) -> Check:
    dev = abs(got - float(want))
    ok = bool(dev <= tol)  # a NaN deviation fails
    detail = f"|dev| {dev:.3e}" if ok else f"got {got!r}, reference {float(want)!r}, |dev| {dev:.3e} > tol {tol:.0e}"
    return Check(name, ok, detail)


# ---------------------------------------------------------------- sweeps

def parse_sweep_csv(text: str) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return [
        {k: (v if k == "sweep_var" else float(v)) for k, v in zip(header, row)}
        for row in reader
    ]


def row_setting(meta: dict, row: dict) -> tuple[StateFamily, float, float, float, float, WmrMode]:
    """(family, p, eta, q, r, mode) that produced one sweep row."""
    family = StateFamily(meta["family"], meta["param"])
    p, q = meta["p"], meta["q"]
    if meta["var"] == "p":
        p = row["value"]
    elif meta["var"] == "q":
        q = row["value"]
    else:
        family = StateFamily("nme", row["value"])
    mode = WmrMode(meta["mode"])
    if mode is WmrMode.NONE:
        return family, p, meta["eta"], 0.0, 0.0, mode
    return family, p, meta["eta"], q, row["r_star"], mode


def reference_state(meta: dict, row: dict) -> np.ndarray:
    family, p, eta, q, r, mode = row_setting(meta, row)
    if mode is WmrMode.NONE:
        mode = WmrMode.ONE_QUBIT  # with q = r = 0 the measurements are the identity
    return _reference_pipeline_state(make_state(family), p, eta, q, r, mode)


def row_reference_checks(label: str, meta: dict, row: dict) -> list[Check]:
    """One sampled row against the independent references."""
    family, p, eta, q, r, mode = row_setting(meta, row)
    rho = reference_state(meta, row)
    checks = []
    if family.kind == "bell":
        closed_mode = mode if mode is not WmrMode.NONE else WmrMode.TWO_QUBIT
        want = bell_wmr_concurrence(p, q, r, eta, closed_mode)
        checks.append(_close(f"{label} concurrence vs Bell closed form", row["concurrence"],
                             want, TOL_CONCURRENCE_CLOSED_FORM))
    else:
        checks.append(_close(f"{label} concurrence vs spin-flip eigensolve oracle",
                             row["concurrence"], wootters_concurrence_oracle(rho),
                             TOL_CONCURRENCE_WOOTTERS))
    checks.append(_close(f"{label} chi vs partial-trace oracle", row["chi"],
                         dense_coding_oracle(rho), TOL_DENSE_CODING))
    # the oracle omits the first qubit's marginal term 2 g log2 g, g = 1 - r_marg
    d = rho.diagonal().real
    gap = 1.0 - (d[0] + d[1] - d[2] - d[3])
    marginal = 2.0 * gap * np.log2(gap) if gap > 0 else 0.0
    checks.append(_close(f"{label} qs vs conditional-entropy oracle", row["qs"],
                         steering_entropy_oracle(rho) + marginal, TOL_STEERING))
    checks.append(_close(f"{label} tdd vs measurement oracle", row["tdd"],
                         tdd_measurement_oracle(rho, 61, 48) / 2.0, TOL_DISCORD))
    return checks


def normalized_check(label: str, rows: list[dict]) -> Check:
    """Every normalized column is the affine map of its raw column."""
    worst, where = 0.0, ""
    for i, row in enumerate(rows):
        for m in MEASURES:
            if f"n_{m}" not in row:
                continue
            maximum, classical = getattr(DEFAULT_NORMALIZATION, m)
            dev = abs(row[f"n_{m}"] - (row[m] - classical) / (maximum - classical))
            if not dev <= worst:
                worst, where = dev, f"row {i}, {m}"
    ok = worst <= TOL_NORMALIZED
    return Check(f"{label} normalized columns", ok,
                 f"|dev| {worst:.3e}" + ("" if ok else f" at {where} > tol {TOL_NORMALIZED:.0e}"))


def r_star_check(label: str, meta: dict, row: dict) -> Check:
    """The row's r_star must not lose to a fine r-grid of the dense pipeline."""
    family, p, eta, q, r_star, mode = row_setting(meta, row)
    rho0 = make_state(family)
    ch = ChannelParams(p, eta)
    states = []
    for r in np.linspace(0.0, _R_MAX, R_GRID_POINTS):
        try:
            states.append(wmr_pipeline(rho0, ch, WmrParams(q, float(r), mode)).state)
        except DegenerateMeasurementError:
            continue
    best = float(np.max(concurrence(np.stack(states))))
    at_star = float(concurrence(wmr_pipeline(rho0, ch, WmrParams(q, r_star, mode)).state))
    ok = at_star >= best - TOL_R_STAR and abs(at_star - row["concurrence"]) <= TOL_SAME_ROUTE
    return Check(f"{label} r_star vs {R_GRID_POINTS}-point r-grid", ok,
                 f"C(r_star={r_star!r}) = {at_star!r}, row {row['concurrence']!r}, grid best {best!r}")


def sweep_checks(jobs, outputs: dict[str, bytes], seed: int, samples: int,
                 r_star_samples: int) -> list[Check]:
    """Row counts and normalized columns everywhere; references on a sample."""
    checks = []
    tables = {}
    for job in jobs:
        rows = parse_sweep_csv(outputs[job.outputs[0]].decode("utf-8"))
        tables[job.name] = rows
        checks.append(Check(f"{job.name} row count", len(rows) == job.meta["points"],
                            f"{len(rows)} rows, expected {job.meta['points']}"))
        checks.append(normalized_check(job.name, rows))
    rng = random.Random(f"checks-{seed}")
    everything = [(job, i) for job in jobs for i in range(len(tables[job.name]))]
    for job, i in rng.sample(everything, min(samples, len(everything))):
        checks += row_reference_checks(f"{job.name}[{i}]", job.meta, tables[job.name][i])
    protected = [(job, i) for job, i in everything if job.meta["mode"] != "none"]
    for job, i in rng.sample(protected, min(r_star_samples, len(protected))):
        checks.append(r_star_check(f"{job.name}[{i}]", job.meta, tables[job.name][i]))
    return checks


# ---------------------------------------------------------------- train

def train_checks(jobs, outputs: dict[str, bytes], stdouts: dict[str, str],
                 restart_epochs: list[int]) -> list[Check]:
    train, predict, weights = jobs
    report = json.loads(stdouts["train"])
    checks = [Check("train test MSE <= 1e-3", report["mse_test"] <= MAX_TEST_MSE,
                    f"mse_test {report['mse_test']!r}")]
    best = report["best_restart"]
    checks.append(Check(
        "train restarts match the sized run",
        report["restarts_run"] == len(restart_epochs)
        and report["epochs"] == restart_epochs[best],
        f"{report['restarts_run']} restarts, winner {best} with {report['epochs']} epochs; "
        f"sized {len(restart_epochs)} restarts with epochs {restart_epochs}",
    ))
    model_path, summary_path, data_path = train.outputs
    checks.append(Check("weights of the saved model equal the training summary",
                        outputs[weights.outputs[0]] == outputs[summary_path]))
    checks.append(model_predictions_check(outputs[model_path], outputs[data_path],
                                          outputs[predict.outputs[0]]))
    return checks


def model_predictions_check(model: bytes, data: bytes, predictions: bytes) -> Check:
    """The saved model, reloaded, reproduces the predict column bit for bit."""
    try:
        net = mlp_from_json(model.decode("utf-8"))
    except (ValueError, KeyError) as exc:
        return Check("model reproduces predictions", False, f"model unreadable: {exc}")
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    features = np.array([[float(r[c]) for c in ("jsd", "concurrence", "fidelity", "qs", "chi")]
                         for r in rows])
    predicted = [r["tdd_predicted"] for r in csv.DictReader(io.StringIO(predictions.decode("utf-8")))]
    recomputed = [repr(float(x)) for x in forward(net, features)]
    ok = recomputed == predicted
    return Check("model reproduces predictions", ok,
                 "" if ok else f"{sum(a != b for a, b in zip(recomputed, predicted))} rows differ")


# ---------------------------------------------------------------- verify

def verify_checks(codes: dict[str, int], stdouts: dict[str, str]) -> list[Check]:
    ok = codes["verify"] == 0 and "all checks passed" in stdouts["verify"]
    return [Check("verify exits 0", ok, f"exit code {codes['verify']}")]


# ---------------------------------------------------------------- every workload

def exit_code_checks(codes: dict[str, int]) -> list[Check]:
    return [Check(f"{name} exit code", code == 0, f"exit code {code}") for name, code in codes.items()]


def determinism_check(pass_index: int, reference: dict, observed: dict) -> Check:
    """One pass's outputs (files and stdout per job) equal the first pass's."""
    differing = sorted(k for k in reference if observed.get(k) != reference[k])
    differing += sorted(k for k in observed if k not in reference)
    return Check(f"pass {pass_index} output bytes equal the first pass", not differing,
                 "" if not differing else f"differs: {', '.join(differing)}")

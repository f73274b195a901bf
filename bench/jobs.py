"""The four benchmark workloads as lists of ``qcorrkit`` command lines.

Every workload is a fixed list of jobs, each one ``qcorrkit.cli.main``
call, built from the workload seed.  A pass runs the jobs in order; the
jobs of one pass write every output file under the run's work
directory, and a later job may read what an earlier one wrote.

Why each workload exists (see README.md for the layer table):

- ``sweep_damping``: unprotected p-sweeps and alpha2-sweeps.  The time
  goes to the L0 kernel (channel plus the six measures) and to CSV
  writing; the optimizer and the trainer are never called.
- ``sweep_protected``: q-sweeps under one- and two-qubit protection.
  The time goes to the reversal-strength optimizer (L1), on points
  that take the interior branch and points that take the dead-plateau
  branch.
- ``train``: dataset build, the LM restart search, predict and weights.
  The time goes to the LM trainer and the network's Jacobian (L2); no
  optimizer and no protected pipeline are involved.
- ``verify``: the closed-form/oracle verification (L3).  It is the only
  workload that sends general (non-X) dense states through the channel
  and the measures.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep_damping", "sweep_protected", "train", "verify")

#: rows of the dataset the ``train`` workload fits
TRAIN_ROWS = 100
#: LM epochs, summed over restarts, that one ``train`` pass trains
TRAIN_EPOCH_BUDGET = 500
#: share of the budget by which a pass's epochs may miss it
TRAIN_EPOCH_TOLERANCE = 0.02
#: training seeds drawn from the workload seed before the closest is taken
TRAIN_SEED_CANDIDATES = 20
#: upper limit on restarts tried while sizing the ``train`` pass
TRAIN_MAX_RESTARTS = 200

DAMPING_POINTS = 151
PROTECTED_POINTS = 4
PROTECTED_ALPHA2_POINTS = 5
PROTECTED_P = 0.8
VERIFY_GRID_POINTS = 5


@dataclass
class Job:
    """One CLI call: its arguments, the files it writes and what it sweeps."""

    name: str
    argv: list[str]
    outputs: list[str]
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    """The jobs of one pass and the work one pass completes."""

    name: str
    seed: int
    jobs: list[Job]
    items: int          # CSV rows, LM epochs or verify grid points per pass
    item_unit: str
    warmup: Job         # a small call of the first job's command, made at set-up
    sizing: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _sweep_job(workdir: str, name: str, meta: dict) -> Job:
    path = os.path.join(workdir, f"{name}.csv")
    argv = [
        "sweep", "--family", meta["family"], "--param", _fmt(meta["param"]),
        "--eta", _fmt(meta["eta"]), "--mode", meta["mode"], "--var", meta["var"],
        "--points", str(meta["points"]), "--p", _fmt(meta["p"]), "--q", _fmt(meta["q"]),
        "-o", path,
    ]
    return Job(name, argv, [path], meta)


def _family_params(rng: random.Random, werner: tuple, mems: tuple) -> list[tuple[str, float]]:
    # the Bell input is fixed; Werner r_b and MEMS gamma are drawn from
    # the given ranges
    return [
        ("bell", 1.0),
        ("werner", round(rng.uniform(*werner), 6)),
        ("mems", round(rng.uniform(*mems), 6)),
    ]


def sweep_damping_jobs(seed: int, workdir: str) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for family, param in _family_params(rng, (0.5, 0.9), (0.5, 0.9)):
        for eta in (0.0, 1.0):
            meta = dict(family=family, param=param, eta=eta, mode="none", var="p",
                        points=DAMPING_POINTS, p=0.5, q=0.5)
            jobs.append(_sweep_job(workdir, f"{family}_eta{eta:g}_p", meta))
    p_fixed = round(rng.uniform(0.3, 0.7), 6)
    for eta in (0.0, 1.0):
        meta = dict(family="nme", param=0.5, eta=eta, mode="none", var="alpha2",
                    points=DAMPING_POINTS, p=p_fixed, q=0.5)
        jobs.append(_sweep_job(workdir, f"nme_eta{eta:g}_alpha2", meta))
    return jobs


def sweep_protected_jobs(seed: int, workdir: str) -> list[Job]:
    # At p = 0.8, Werner r_b in [0.40, 0.46] loses its entanglement for
    # almost every (q, eta, mode), so its points take the dead-plateau
    # branch, while MEMS gamma in [0.58, 0.64] and Bell keep interior
    # optima on most points.  Both ranges lie away from the r_b and gamma
    # where the branch counts jump, so every seed does about the same work.
    rng = random.Random(seed)
    jobs = []
    for family, param in _family_params(rng, (0.40, 0.46), (0.58, 0.64)):
        for eta in (0.0, 1.0):
            for mode in ("wm1", "wm2"):
                meta = dict(family=family, param=param, eta=eta, mode=mode, var="q",
                            points=PROTECTED_POINTS, p=PROTECTED_P, q=0.5)
                jobs.append(_sweep_job(workdir, f"{family}_eta{eta:g}_{mode}_q", meta))
    meta = dict(family="nme", param=0.5, eta=1.0, mode="wm2", var="alpha2",
                points=PROTECTED_ALPHA2_POINTS, p=PROTECTED_P,
                q=round(rng.uniform(0.3, 0.7), 6))
    jobs.append(_sweep_job(workdir, "nme_eta1_wm2_alpha2", meta))
    return jobs


def train_jobs(seed: int, workdir: str, restarts: int) -> list[Job]:
    model = os.path.join(workdir, "model.json")
    summary = os.path.join(workdir, "weights_train.csv")
    data = os.path.join(workdir, "data.csv")
    predictions = os.path.join(workdir, "predictions.csv")
    weights = os.path.join(workdir, "weights.csv")
    train = Job(
        "train",
        ["train", "--family", "bell", "--scenario", "no_wmr", "--eta", "0",
         "--rows", str(TRAIN_ROWS), "--restarts", str(restarts), "--seed", str(seed),
         "--model-out", model, "--summary-out", summary, "--dataset-out", data],
        [model, summary, data],
    )
    predict = Job("predict", ["predict", "--model", model, "--data", data, "-o", predictions],
                  [predictions])
    weights_job = Job("weights", ["weights", "--model", model, "-o", weights], [weights])
    return [train, predict, weights_job]


def verify_jobs(seed: int) -> list[Job]:
    return [Job("verify", ["verify", "--grid-points", str(VERIFY_GRID_POINTS),
                           "--seed", str(seed)], [])]


def train_epochs_per_restart(seed: int, max_restarts: int, budget: int, data=None) -> list[int]:
    """Epochs of restart 0, 1, ... of ``train --seed seed``, until ``budget``.

    Restart k of the CLI's restart search trains child seed k of
    ``SeedSequence(seed)``; spawned children do not depend on how many
    are spawned, so the first restarts of a longer search are the same
    runs.  Stops once the running total reaches ``budget``.
    """
    import numpy as np
    from qcorrkit.dataset import build_dataset
    from qcorrkit.exceptions import TrainingFailure
    from qcorrkit.mlp import init_mlp
    from qcorrkit.states import StateFamily
    from qcorrkit.training import lm_train

    if data is None:
        data = build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=TRAIN_ROWS)
    children = np.random.SeedSequence(seed).spawn(max_restarts)
    epochs: list[int] = []
    for child in children:
        try:
            report = lm_train(init_mlp(seed=int(child.generate_state(1)[0])), data)
        except TrainingFailure:
            report = None
        epochs.append(report.epochs if report else 0)
        if sum(epochs) >= budget:
            break
    return epochs


def restarts_for_budget(epochs: list[int], budget: int) -> int:
    """Restart count whose summed epochs lie closest to ``budget``."""
    totals = [sum(epochs[: k + 1]) for k in range(len(epochs))]
    return min(range(len(totals)), key=lambda k: (abs(totals[k] - budget), k)) + 1


def size_workload(name: str, seed: int) -> dict:
    """Per-seed sizing decided before set-up; only ``train`` needs one.

    A restart's epoch count depends on its seed and ranges over more than
    a factor of ten, and a restart count can only add whole restarts, so
    a fixed restart count, or any one training seed, would make the work
    of a pass depend on the seed.  Training seeds are instead drawn from
    the workload seed until one has a restart count whose epochs lie
    within ``TRAIN_EPOCH_TOLERANCE`` of ``TRAIN_EPOCH_BUDGET`` (or the
    closest of ``TRAIN_SEED_CANDIDATES`` draws is taken).
    """
    if name != "train":
        return {}
    from qcorrkit.dataset import build_dataset
    from qcorrkit.states import StateFamily

    data = build_dataset(StateFamily("bell"), "no_wmr", 0.0, points=TRAIN_ROWS)
    rng = random.Random(seed)
    best = None
    for _ in range(TRAIN_SEED_CANDIDATES):
        train_seed = rng.randrange(2**31)
        epochs = train_epochs_per_restart(train_seed, TRAIN_MAX_RESTARTS, TRAIN_EPOCH_BUDGET, data)
        restarts = restarts_for_budget(epochs, TRAIN_EPOCH_BUDGET)
        miss = abs(sum(epochs[:restarts]) - TRAIN_EPOCH_BUDGET)
        if best is None or miss < best[0]:
            best = (miss, {"train_seed": train_seed, "restarts": restarts,
                           "restart_epochs": epochs[:restarts]})
        if miss <= TRAIN_EPOCH_TOLERANCE * TRAIN_EPOCH_BUDGET:
            break
    return best[1]


def warmup_job(name: str, seed: int, workdir: str, first: Job) -> Job:
    """The set-up's warm-up call: the first job's command on a tiny input."""
    if name == "train":
        model = os.path.join(workdir, "warmup_model.json")
        return Job("warmup", ["train", "--family", "bell", "--scenario", "no_wmr", "--eta", "0",
                              "--rows", "50", "--restarts", "1", "--seed", str(seed),
                              "--model-out", model], [model])
    if name == "verify":
        return Job("warmup", ["verify", "--grid-points", "2", "--samples", "10",
                              "--seed", str(seed)], [])
    return _sweep_job(workdir, "warmup", dict(first.meta, points=3))


def make_workload(name: str, seed: int, workdir: str, sizing: dict) -> Workload:
    """Jobs of one pass of workload ``name`` for ``seed``, and its warm-up call."""
    if name == "sweep_damping":
        jobs, items, unit = sweep_damping_jobs(seed, workdir), None, "csv_rows"
    elif name == "sweep_protected":
        jobs, items, unit = sweep_protected_jobs(seed, workdir), None, "csv_rows"
    elif name == "train":
        jobs = train_jobs(sizing["train_seed"], workdir, sizing["restarts"])
        items, unit = sum(sizing["restart_epochs"]), "lm_epochs"
    elif name == "verify":
        jobs, items, unit = verify_jobs(seed), VERIFY_GRID_POINTS**4, "grid_points"
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    if items is None:
        items = sum(j.meta["points"] for j in jobs)
    return Workload(name, seed, jobs, items, unit, warmup_job(name, seed, workdir, jobs[0]), sizing)

"""Feature/target tables for the discord predictor, projected from a sweep.

A dataset is a column projection of one :func:`run_sweep` table: the
five raw measures [jsd, concurrence, fidelity, qs, chi] become the
features, the trace-distance discord the target, and the sweep axis the
``sweep_value`` column; the normalized columns go unused.  Two
scenarios map to sweeps: "no_wmr" is a damping sweep without protection
(p runs over [0, 1]) and "wmr2" a measurement-strength sweep with
two-qubit protection (p fixed, 0.5 by default; q runs over [0, 0.99]
with the per-point optimal reversal strength).  This module owns only
that mapping and the CSV interchange, whose header is
``scenario,eta,sweep_var,sweep_value,jsd,concurrence,fidelity,qs,chi,tdd``.
:func:`csv_text` writes the file and quotes nothing, so the reader
refuses a scenario and sweep_var pair that :func:`build_dataset` never sets.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .channels import WmrMode
from .mlp import FEATURE_NAMES, TARGET_NAME
from .states import StateFamily
from .sweep import SweepConfig, csv_text, run_sweep

#: scenario -> the sweep axis its rows run along
SCENARIOS = {"no_wmr": "p", "wmr2": "q"}
CSV_HEADER = ["scenario", "eta", "sweep_var", "sweep_value", *FEATURE_NAMES, TARGET_NAME]


@dataclass
class Dataset:
    features: np.ndarray      # (n, 5) raw measure values
    targets: np.ndarray       # (n,) trace-distance discord
    scenario: str
    eta: float
    sweep_var: str
    sweep_values: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.targets)


def build_dataset(
    family: StateFamily,
    scenario: str,
    eta: float,
    points: int = 500,
    p_fixed: float = 0.5,
) -> Dataset:
    """Run the scenario's sweep and project its columns into a dataset."""
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {tuple(SCENARIOS)}, got {scenario!r}")
    if points < 50:
        raise ValueError("need at least 50 rows")
    if scenario == "no_wmr":
        config = SweepConfig(family, eta, var="p", points=points)
    else:
        config = SweepConfig(family, eta, WmrMode.TWO_QUBIT, var="q", points=points, p_fixed=p_fixed)
    result = run_sweep(config)
    features = np.column_stack([result.column(name) for name in FEATURE_NAMES])
    targets = result.column(TARGET_NAME)
    if not (np.isfinite(features).all() and np.isfinite(targets).all()):
        raise ValueError("non-finite measure values in generated dataset")
    return Dataset(features, targets, scenario, eta, config.var, result.column("value"))


def write_dataset_csv(path, data: Dataset) -> None:
    labels = [(data.scenario, repr(float(data.eta)), data.sweep_var)] * len(data)
    rows = np.column_stack([data.sweep_values, data.features, data.targets])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_text(CSV_HEADER, labels, rows))


def _finite(path, line_no: int, col: str, cell: str) -> float:
    try:
        x = float(cell)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(
            f"{path}: row {line_no}, column {col!r}: not a finite number: {cell!r}"
        )
    return x


def read_dataset_csv(path) -> Dataset:
    """Parse a dataset CSV; a malformed or non-finite cell is reported by row and column.

    Every row must carry the same scenario, eta and sweep_var; the first
    row that disagrees with row 2 is reported, and row 2 must be a scenario and its axis.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        feats, targets, values = [], [], []
        tag = None
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{path}: row {line_no} has {len(row)} fields")
            numbers = [
                _finite(path, line_no, col, cell) for col, cell in zip(CSV_HEADER[3:], row[3:])
            ]
            eta = _finite(path, line_no, "eta", row[1])
            row_tag = (row[0], eta, row[2])
            if tag is None:
                if SCENARIOS.get(row[0]) != row[2]:
                    col = "sweep_var" if row[0] in SCENARIOS else "scenario"
                    raise ValueError(
                        f"{path}: row {line_no}, column {col!r}: scenario {row[0]!r} with "
                        f"sweep_var {row[2]!r} is not one of {SCENARIOS}"
                    )
                tag = row_tag
            elif row_tag != tag:
                raise ValueError(
                    f"{path}: row {line_no}: scenario, eta, sweep_var "
                    f"{row_tag!r} differ from row 2's {tag!r}"
                )
            values.append(numbers[0])
            feats.append(numbers[1:6])
            targets.append(numbers[6])
    if not targets:
        raise ValueError(f"{path}: no data rows")
    scenario, eta, sweep_var = tag
    return Dataset(
        features=np.array(feats),
        targets=np.array(targets),
        scenario=scenario,
        eta=eta,
        sweep_var=sweep_var,
        sweep_values=np.array(values),
    )

"""Feature/target tables for the discord predictor, projected from a sweep.

A dataset is a column projection of one :func:`run_sweep` table: the
five raw measures [jsd, concurrence, fidelity, qs, chi] become the
features, the trace-distance discord the target, and the sweep axis the
``sweep_value`` column; the normalized columns go unused.  ``SCENARIOS``
maps each scenario to the sweep it runs, which fixes its axis: "no_wmr"
is a damping sweep without protection (p runs over [0, 1]) and "wmr2" a
measurement-strength sweep with two-qubit protection at the sweep's
fixed p = 0.5 (q runs over [0, 0.99] with the per-point optimal reversal
strength).  This module owns only that table and the CSV interchange,
whose header is ``scenario,eta,sweep_var,sweep_value,jsd,concurrence,fidelity,qs,chi,tdd``.
:func:`csv_text` writes the file and quotes nothing, so the reader
refuses a scenario and sweep_var pair that :func:`build_dataset` never
sets, and an eta or sweep value outside its parameter's domain.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .channels import WmrMode
from .exceptions import _unit_interval
from .mlp import FEATURE_NAMES, TARGET_NAME
from .states import StateFamily
from .sweep import SweepConfig, csv_text, run_sweep

#: scenario -> the protection mode and axis of the sweep its rows come from
SCENARIOS = {
    "no_wmr": {"mode": WmrMode.NONE, "var": "p"},
    "wmr2": {"mode": WmrMode.TWO_QUBIT, "var": "q"},
}
CSV_HEADER = ["scenario", "eta", "sweep_var", "sweep_value", *FEATURE_NAMES, TARGET_NAME]


@dataclass
class Dataset:
    features: np.ndarray      # (n, 5) raw measure values
    targets: np.ndarray       # (n,) trace-distance discord
    scenario: str
    eta: float
    sweep_values: np.ndarray  # (n,) along the scenario's axis

    def __len__(self) -> int:
        return len(self.targets)


def build_dataset(family: StateFamily, scenario: str, eta: float, points: int = 500) -> Dataset:
    """Run the scenario's sweep and project its columns into a dataset."""
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {tuple(SCENARIOS)}, got {scenario!r}")
    if points < 50:
        raise ValueError("need at least 50 rows")
    result = run_sweep(SweepConfig(family, eta, points=points, **SCENARIOS[scenario]))
    features = np.column_stack([result.column(name) for name in FEATURE_NAMES])
    targets = result.column(TARGET_NAME)
    if not (np.isfinite(features).all() and np.isfinite(targets).all()):
        raise ValueError("non-finite measure values in generated dataset")
    return Dataset(features, targets, scenario, eta, result.column("value"))


def write_dataset_csv(path, data: Dataset) -> None:
    labels = [(data.scenario, repr(float(data.eta)), SCENARIOS[data.scenario]["var"])] * len(data)
    rows = np.column_stack([data.sweep_values, data.features, data.targets])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_text(CSV_HEADER, labels, rows))


def _number(path, line_no: int, col: str, cell: str, param: str = "") -> float:
    """The cell as a finite float, inside the domain of ``param`` if one is named:
    [0, 1], or [0, 1) for the measurement strength q."""
    try:
        x = float(cell)
    except ValueError:
        x = math.nan
    try:
        if not math.isfinite(x):
            raise ValueError(f"not a finite number: {cell!r}")
        if param:
            _unit_interval(param, x, closed=param != "q")
    except ValueError as exc:
        raise ValueError(f"{path}: row {line_no}, column {col!r}: {exc}") from None
    return x


def read_dataset_csv(path) -> Dataset:
    """Parse a dataset CSV; a malformed, non-finite or out-of-range cell is
    reported by row and column.

    Row 2 must be a scenario and its axis, and every row must carry row 2's
    scenario, eta and sweep_var; the first row that disagrees is reported.
    Eta and each sweep value must lie in their parameters' domains.
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
            if tag is None and SCENARIOS.get(row[0], {}).get("var") != row[2]:
                col = "sweep_var" if row[0] in SCENARIOS else "scenario"
                axes = {name: sweep["var"] for name, sweep in SCENARIOS.items()}
                raise ValueError(
                    f"{path}: row {line_no}, column {col!r}: scenario {row[0]!r} with "
                    f"sweep_var {row[2]!r} is not one of {axes}"
                )
            eta = _number(path, line_no, "eta", row[1], "eta")
            axis = tag[2] if tag else row[2]
            values.append(_number(path, line_no, "sweep_value", row[3], axis))
            feats.append([_number(path, line_no, c, x) for c, x in zip(FEATURE_NAMES, row[4:9])])
            targets.append(_number(path, line_no, TARGET_NAME, row[9]))
            row_tag = (row[0], eta, row[2])
            tag = tag or row_tag
            if row_tag != tag:
                raise ValueError(
                    f"{path}: row {line_no}: scenario, eta, sweep_var "
                    f"{row_tag!r} differ from row 2's {tag!r}"
                )
    if not targets:
        raise ValueError(f"{path}: no data rows")
    scenario, eta, _ = tag
    return Dataset(np.array(feats), np.array(targets), scenario, eta, np.array(values))

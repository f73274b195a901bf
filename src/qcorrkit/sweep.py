"""Parameter sweeps of the pipeline with all measures per row.

A sweep varies one of: the damping strength p, the measurement strength
q (reversal strength re-optimized at every point), or the initial-state
parameter alpha^2 of the partially entangled pure family.  Rows carry
the six raw measures, optionally their normalized forms, and the
optimal reversal strength and success probability when protection is
active.  The CSV column layout is stable:
``sweep_var,value,chi,fidelity,concurrence,qs,tdd,jsd[,n_*...][,r_star,success_prob]``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .channels import ChannelParams, WmrMode, apply_cad
from .measures import correlation_vector, normalize
from .optimize import optimal_qmr
from .states import StateFamily, make_state

MEASURE_COLUMNS = ("chi", "fidelity", "concurrence", "qs", "tdd", "jsd")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: the family, channel setting, protection mode, and axis."""

    family: StateFamily
    eta: float = 0.0
    mode: WmrMode = WmrMode.NONE
    var: str = "p"
    points: int = 201
    p_fixed: float = 0.5    # damping used when sweeping q or alpha2
    q_fixed: float = 0.5    # measurement strength when sweeping p or alpha2 under protection
    normalized: bool = True    # normalized columns use DEFAULT_NORMALIZATION

    def __post_init__(self):
        if self.var not in ("p", "q", "alpha2"):
            raise ValueError(f"sweep variable must be p, q or alpha2, got {self.var!r}")
        if self.var == "q" and self.mode is WmrMode.NONE:
            raise ValueError("sweeping q requires a measurement mode")
        if self.var == "alpha2" and self.family.kind != "nme":
            raise ValueError("alpha2 sweeps apply to the nme family")
        if self.points < 2:
            raise ValueError("need at least 2 sweep points")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")
        if not 0.0 <= self.p_fixed <= 1.0:
            raise ValueError(f"p={self.p_fixed} outside [0, 1]")
        if not 0.0 <= self.q_fixed < 1.0:
            raise ValueError(f"q={self.q_fixed} outside [0, 1)")


@dataclass
class SweepResult:
    config: SweepConfig
    header: list[str]
    rows: list[list]

    def column(self, name: str) -> np.ndarray:
        i = self.header.index(name)
        return np.array([row[i] for row in self.rows], dtype=float)


def _sweep_values(config: SweepConfig) -> np.ndarray:
    upper = 0.99 if config.var == "q" else 1.0
    return np.linspace(0.0, upper, config.points)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every sweep point; rows are fully computed before return."""
    header = ["sweep_var", "value", *MEASURE_COLUMNS]
    if config.normalized:
        header += [f"n_{m}" for m in MEASURE_COLUMNS]
    protected = config.mode is not WmrMode.NONE
    if protected:
        header += ["r_star", "success_prob"]

    rows = []
    for value in _sweep_values(config):
        family = config.family
        p = config.p_fixed
        q = config.q_fixed
        if config.var == "p":
            p = float(value)
        elif config.var == "q":
            q = float(value)
        else:
            family = StateFamily("nme", float(value))
        ch = ChannelParams(p, config.eta)

        if protected:
            result = optimal_qmr(family, ch, q, config.mode)
            state, extras = result.state, [result.r_star, result.success_probability]
        else:
            state, extras = apply_cad(make_state(family), ch), []

        vector = correlation_vector(state)
        row = [config.var, float(value), *vector.as_tuple()]
        if config.normalized:
            row += list(normalize(vector).as_tuple())
        rows.append(row + extras)
    return SweepResult(config, header, rows)


def write_sweep_csv(result: SweepResult, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(result.header)
    for row in result.rows:
        writer.writerow([x if isinstance(x, str) else repr(float(x)) for x in row])


def sweep_csv_text(result: SweepResult) -> str:
    buf = io.StringIO()
    write_sweep_csv(result, buf)
    return buf.getvalue()


def find_zero_crossing(x: np.ndarray, y: np.ndarray) -> float | None:
    """First downward sign change of y, located by linear interpolation."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for i in range(len(y) - 1):
        if y[i] > 0.0 >= y[i + 1]:
            return float(x[i] + (0.0 - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i]))
    return None

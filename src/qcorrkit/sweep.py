"""Parameter sweeps of the pipeline with all measures per row.

A sweep varies one of: the damping strength p, the measurement strength
q (reversal strength re-optimized at every point), or the initial-state
parameter alpha^2 of the partially entangled pure family.  Rows carry
the six raw measures, optionally their normalized forms, and the
optimal reversal strength and success probability when protection is
active.  The CSV column layout is stable:
``sweep_var,value,chi,fidelity,concurrence,qs,tdd,jsd[,n_*...][,r_star,success_prob]``.

An unprotected sweep (mode NONE) is evaluated as one stack: the p axis
is one channel call with an array p, the alpha^2 axis one channel call
on a stack of initial states, and all six measures (and their
normalized forms) come from one :func:`correlation_vector` call on the
resulting ``(points, 4, 4)`` stack.  The alpha^2 axis builds its
initial states with one broadcast :func:`nme_state` call.  Each stacked
row equals the row of that point evaluated on its own, bit for bit.  A
protected sweep runs point by point, because :func:`optimal_qmr` takes
one post-channel state per call: it scores that state's reversal on its
own 1001-point guard grid, which is itself a stack.

:func:`write_sweep_csv` joins the cells itself and writes the whole
text at once; the bytes are those of the excel-dialect ``csv.writer``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .channels import ChannelParams, WmrMode, apply_cad
from .measures import CorrelationVector, correlation_vector, normalize
from .optimize import optimal_qmr
from .states import StateFamily, make_state, nme_state

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


def _measure_fields(vector: CorrelationVector, normalized: bool) -> list:
    fields = list(vector.as_tuple())
    if normalized:
        fields += normalize(vector).as_tuple()
    return fields


def _unprotected_states(config: SweepConfig, values: np.ndarray) -> np.ndarray:
    """The ``(points, 4, 4)`` stack of channel outputs, from one channel call."""
    if config.var == "p":
        return apply_cad(make_state(config.family), ChannelParams(values, config.eta))
    return apply_cad(nme_state(values), ChannelParams(config.p_fixed, config.eta))


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every sweep point; rows are fully computed before return."""
    header = ["sweep_var", "value", *MEASURE_COLUMNS]
    if config.normalized:
        header += [f"n_{m}" for m in MEASURE_COLUMNS]
    values = _sweep_values(config)

    if config.mode is WmrMode.NONE:
        vector = correlation_vector(_unprotected_states(config, values))
        columns = np.column_stack([values, *_measure_fields(vector, config.normalized)])
        return SweepResult(config, header, [[config.var, *row] for row in columns.tolist()])

    rows = []
    for value in values.tolist():
        family, p, q = config.family, config.p_fixed, config.q_fixed
        if config.var == "p":
            p = value
        elif config.var == "q":
            q = value
        else:
            family = StateFamily("nme", value)
        result = optimal_qmr(family, ChannelParams(p, config.eta), q, config.mode)
        vector = correlation_vector(result.state)
        rows.append([config.var, value, *_measure_fields(vector, config.normalized),
                     result.r_star, result.success_probability])
    return SweepResult(config, header + ["r_star", "success_prob"], rows)


def write_sweep_csv(result: SweepResult, fh) -> None:
    """Write the header and rows to ``fh`` as CSV text, in one ``fh.write``.

    The text is what the excel-dialect :func:`csv.writer` writes for
    these rows, built without it: comma-separated cells, lines ending in
    ``"\\r\\n"``, and no quoting, because no cell (a header name, the
    sweep variable's name or a float ``repr``) holds a comma, quote, CR
    or LF.
    """
    lines = [",".join(result.header)]
    lines += [row[0] + "," + ",".join(map(repr, map(float, row[1:]))) for row in result.rows]
    fh.write("\r\n".join(lines) + "\r\n")


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

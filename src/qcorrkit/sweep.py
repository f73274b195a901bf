"""Parameter sweeps of the pipeline with all measures per row.

A sweep varies one of: the damping strength p, the measurement strength
q (reversal strength re-optimized at every point), or the initial-state
parameter alpha^2 of the partially entangled pure family.  The result
is one float table, a row per point: the sweep value, the six raw
measures (the :class:`CorrelationVector` fields), their normalized
``n_*`` forms, and, when protection is active, the optimal reversal
strength and success probability.  So the column layout depends only
on the mode; the CSV writes it as
``sweep_var,value,chi,fidelity,concurrence,qs,tdd,jsd,n_*...[,r_star,success_prob]``.

An unprotected sweep (mode NONE) is evaluated as one stack of six
numbers and never builds a 4x4 array: along p, the family's
:func:`x_numbers` go through the channel's six-number map
``channels._x_damped`` with the whole p array; along alpha^2, the nme
numbers of every alpha^2 at once go through it at the fixed p.  All six
measures then come from one :func:`x_correlation_vector` call.  Each
stacked row equals, bit for bit, the row of that point taken on its own
through the dense route (channel entry maps, then
:func:`correlation_vector`).  A protected sweep runs point by point,
because :func:`optimal_qmr` takes one point per call: it runs the
measurement, the channel and the reversal on the initial state's six
numbers, scores the reversal on the 1001-point guard grid as one
float64 stack, and returns the protected state as a float64 4x4 array.
That state's row is one :func:`correlation_vector` call, whose measures
run on its six numbers as Python floats and equal the row the state
would have in a stack, bit for bit (``docs/decisions.md`` section 2.9).
Either way the table is one :func:`normalize` call and one
``np.column_stack`` over the measure columns.

:func:`csv_text` writes every CSV of the package: sweeps, datasets,
predictions and weight summaries.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .channels import ChannelParams, WmrMode, _x_damped
from .exceptions import _unit_interval
from .measures import CorrelationVector, correlation_vector, normalize, x_correlation_vector
from .optimize import optimal_qmr
from .states import StateFamily, x_numbers

MEASURE_COLUMNS = CorrelationVector._fields
#: the parameters a sweep can run along
AXES = ("p", "q", "alpha2")


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

    def __post_init__(self):
        if self.var not in AXES:
            raise ValueError(f"sweep variable must be one of {AXES}, got {self.var!r}")
        if self.var == "q" and self.mode is WmrMode.NONE:
            raise ValueError("sweeping q requires a measurement mode")
        if self.var == "alpha2" and self.family.kind != "nme":
            raise ValueError("alpha2 sweeps apply to the nme family")
        if self.points < 2:
            raise ValueError("need at least 2 sweep points")
        _unit_interval("eta", self.eta, closed=True)
        _unit_interval("p", self.p_fixed, closed=True)
        _unit_interval("q", self.q_fixed, closed=False)


@dataclass
class SweepResult:
    """A sweep as one float table: row i holds point i, column j is ``columns[j]``."""

    config: SweepConfig
    columns: tuple[str, ...]
    table: np.ndarray       # (points, len(columns))

    def column(self, name: str) -> np.ndarray:
        return self.table[:, self.columns.index(name)]


def _sweep_values(config: SweepConfig) -> np.ndarray:
    upper = 0.99 if config.var == "q" else 1.0
    return np.linspace(0.0, upper, config.points)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every sweep point; rows are fully computed before return."""
    columns = ("value", *MEASURE_COLUMNS, *(f"n_{m}" for m in MEASURE_COLUMNS))
    values = _sweep_values(config)
    if config.mode is WmrMode.NONE:
        # the six numbers of every point at once: the family's along p, or
        # the nme numbers of every alpha^2 at the fixed p
        if config.var == "p":
            x, p = x_numbers(config.family), values
        else:
            x, p = x_numbers(StateFamily("nme", values)), config.p_fixed
        vector, protection = x_correlation_vector(_x_damped(x, p, config.eta, np.sqrt)), ()
    else:
        vectors, r_star, success = [], [], []
        for value in values.tolist():
            family, p, q = config.family, config.p_fixed, config.q_fixed
            if config.var == "p":
                p = value
            elif config.var == "q":
                q = value
            else:
                family = StateFamily("nme", value)
            result = optimal_qmr(family, ChannelParams(p, config.eta), q, config.mode)
            vectors.append(correlation_vector(result.state))
            r_star.append(result.r_star)
            success.append(result.success_probability)
        vector, protection = CorrelationVector(*np.array(vectors).T), (r_star, success)
        columns += ("r_star", "success_prob")
    table = np.column_stack([values, *vector, *normalize(vector), *protection])
    return SweepResult(config, columns, table)


def csv_text(header, labels, rows) -> str:
    """CSV text whose row i is the text cells ``labels[i]``, then the ``repr``
    of each float in the 2-D float table ``rows[i]``.

    The text is what the excel-dialect :func:`csv.writer` writes for
    these cells, built without it: comma-separated cells, lines ending
    in ``"\\r\\n"``, and no quoting, so no header name or label may hold
    a comma, quote, CR or LF; a float ``repr`` never does.
    """
    lines = [",".join(header)]
    lines += [
        ",".join((*label, *map(repr, row)))
        for label, row in zip(labels, np.asarray(rows, dtype=float).tolist(), strict=True)
    ]
    return "\r\n".join(lines) + "\r\n"


def write_sweep_csv(result: SweepResult, fh) -> None:
    """Write the header and rows to ``fh`` as :func:`csv_text`, in one ``fh.write``."""
    labels = [(result.config.var,)] * len(result.table)
    fh.write(csv_text(("sweep_var", *result.columns), labels, result.table))


def sweep_csv_text(result: SweepResult) -> str:
    buf = io.StringIO()
    write_sweep_csv(result, buf)
    return buf.getvalue()


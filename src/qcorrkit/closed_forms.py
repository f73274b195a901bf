"""Analytic pipeline concurrences for the Bell input, plus equivalence checks.

The protected-Bell concurrence admits closed forms in (p, q, r, eta) for
both measurement placements.  They are transcribed here exactly as
derived (absolute values and square roots act on [0, 1) parameters, so
they read as plain real operations) and serve as verification oracles
for the numeric pipeline: `verify_closed_forms` sweeps a grid and
reports the worst disagreement.  For the mixed-state families no
closed form is transcribed; the numeric pipeline is instead checked
against the Kraus-sum reference composition and the spin-flip
eigensolve concurrence of ``oracles.py``.

Everything here works elementwise on parameter arrays and state stacks,
so each grid is evaluated as one stack per placement.  Squares are taken
with np.square, not ``**``: Python's float power goes through a pow that
is not correctly rounded, so a float and an array entry would differ in
the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelParams, WmrMode, WmrParams, wmr_pipeline
from .measures import concurrence
from .oracles import _reference_pipeline_state, wootters_concurrence_oracle
from .states import StateFamily, make_state

#: every axis of the verification grid runs from 0 to this value
_UPPER = 0.95
#: largest deviation the Bell closed-form and reference-composition checks allow
_TOL = 1e-9
#: largest deviation the spin-flip eigensolve concurrence check allows
_DUAL_ROUTE_TOL = 1e-7


def bell_concurrence_one_qubit(p, q, r, eta):
    """Closed-form pipeline concurrence, Bell input, WM/QMR on the second qubit.

    Takes floats or broadcastable arrays and works elementwise.
    """
    pb, qb, rb = 1.0 - p, 1.0 - q, 1.0 - r
    s2 = (
        eta * p - eta * np.square(p) - np.square(p) * q + np.square(p)
        + eta * np.square(p) * q - eta * q * p + 1.0
    )
    inner = (
        (r - 1.0) * s2
        - (eta - 1.0) * np.square(p - 1.0) * (q - 1.0)
        - eta * (p - 1.0) * (q - 1.0)
        + p * (eta - 1.0) * (p - 1.0) * (q - 1.0)
        - p * (eta - 1.0) * (p - 1.0) * (q - 1.0) * (r - 1.0)
    ) / (q - 2.0)
    s1 = np.abs(inner) * (q - 2.0)
    coherence_gap = -np.sqrt(rb) * (
        eta * p
        - p
        + np.square(p)
        + q * p
        + np.abs(eta * p - p - eta + eta * np.sqrt(pb) + 1.0) * np.sqrt(qb)
        - eta * np.square(p)
        - eta * q * p
        - np.square(p) * q
        + eta * np.square(p) * q
    ) / s1
    population_gap = np.sqrt((pb + eta * p) * s2) * np.sqrt(pb * qb * rb) / s1
    return 2.0 * np.maximum(np.maximum(coherence_gap, population_gap), 0.0)


def bell_concurrence_two_qubit(p, q, r, eta):
    """Closed-form pipeline concurrence, Bell input, WM/QMR on both qubits.

    Takes floats or broadcastable arrays and works elementwise.
    """
    pb, qb, rb = 1.0 - p, 1.0 - q, 1.0 - r
    s4 = 2.0 - 2.0 * q + np.square(q)
    s3 = -0.5 + q / 2.0
    s2 = (
        (eta - 1.0) * (1.0 + np.square(p) - 2.0 * np.square(p) * q + np.square(p) * np.square(q))
        - eta * (p + np.square(q) * p - 2.0 * q * p + 1.0)
    ) / s4
    s1 = np.abs(
        -s2 * np.square(r - 1.0)
        - 2.0 * s3 * (eta - 1.0) * np.square(p - 1.0) * (q - 1.0) / s4
        - 2.0 * eta * s3 * (p - 1.0) * (q - 1.0) / s4
        - 4.0 * p * s3 * (eta - 1.0) * (p - 1.0) * (q - 1.0) * (r - 1.0) / s4
    )
    coherence_gap = (
        (q - 1.0)
        * (r - 1.0)
        * (
            np.abs(eta * p - p - eta + eta * np.sqrt(pb) + 1.0)
            - p
            + eta * p
            + np.square(p)
            + q * p
            - eta * np.square(p)
            - eta * q * p
            - np.square(p) * q
            + eta * np.square(p) * q
        )
        / (s1 * s4)
    )
    population_gap = (
        -np.sqrt(-s2 * (pb + eta * p)) * np.sqrt(pb) * (q - 1.0) * (r - 1.0) / (s1 * np.sqrt(s4))
    )
    return 2.0 * np.maximum(np.maximum(coherence_gap, population_gap), 0.0)


def bell_wmr_concurrence(p, q, r, eta, mode: WmrMode):
    """Dispatch to the closed form matching the measurement placement."""
    if mode is WmrMode.ONE_QUBIT:
        return bell_concurrence_one_qubit(p, q, r, eta)
    if mode is WmrMode.TWO_QUBIT:
        return bell_concurrence_two_qubit(p, q, r, eta)
    raise ValueError("closed forms cover the two measurement placements only")


@dataclass
class EquivalenceCheck:
    """Worst-case disagreement of one closed-form/pipeline comparison."""

    name: str
    max_deviation: float
    tolerance: float
    worst_case: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass
class VerificationReport:
    checks: list[EquivalenceCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {c.name}: max deviation {c.max_deviation:.3e} (tol {c.tolerance:.1e})"
            if not c.passed and c.worst_case:
                line += f" at {c.worst_case}"
            lines.append(line)
        return "\n".join(lines)


def _worst(dev: np.ndarray) -> tuple[float, tuple[int, ...] | None]:
    """Largest deviation on a grid and the index of the first entry (C order) reaching it.

    A NaN counts as the largest, so it fails any tolerance; the index is
    None when every deviation is 0.
    """
    k = int(np.argmax(dev))  # the first NaN if there is one, else the first maximum
    worst = float(dev.flat[k])
    return worst, (None if worst <= 0.0 else np.unravel_index(k, dev.shape))


def verify_closed_forms(grid_points: int) -> VerificationReport:
    """Compare closed forms and reference composition against the pipeline.

    Sweeps a ``grid_points**4`` grid over (p, q, r, eta), each axis
    ``grid_points`` even steps from 0 to ``_UPPER``.  The Bell closed
    forms are checked for both measurement placements, to ``_TOL``.  The
    Werner and MEMS families are checked on a coarser grid (every other
    axis value from 4 points up): the pipeline state against the
    Kraus-sum reference composition, to ``_TOL``, and its concurrence
    against the spin-flip eigensolve of that reference, to
    ``_DUAL_ROUTE_TOL``.  Each grid is one stacked evaluation per
    placement; the reported worst case is the first maximal point in
    (placement, p, q, r, eta) order.
    """
    if grid_points < 1:
        raise ValueError(f"grid_points={grid_points}: need at least 1 point per axis")
    names = ("p", "q", "r", "eta")
    axis = np.linspace(0.0, _UPPER, grid_points)

    def case(values, index) -> dict:
        return {} if index is None else {n: float(values[i]) for n, i in zip(names, index)}

    checks = []
    bell = make_state(StateFamily("bell"))
    p, q, r, eta = np.ix_(axis, axis, axis, axis)
    ch = ChannelParams(p, eta)
    for mode, fn, name in (
        (WmrMode.ONE_QUBIT, bell_concurrence_one_qubit, "bell closed form, one-qubit WMR"),
        (WmrMode.TWO_QUBIT, bell_concurrence_two_qubit, "bell closed form, two-qubit WMR"),
    ):
        numeric = concurrence(wmr_pipeline(bell, ch, WmrParams(q, r, mode)).state)
        worst, index = _worst(np.abs(fn(p, q, r, eta) - numeric))
        checks.append(EquivalenceCheck(name, worst, _TOL, case(axis, index)))

    # coarser grid: the reference route costs full matrix products per point
    sub = slice(None, None, 2) if grid_points >= 4 else slice(None)
    sub_axis = axis[sub]
    p, q, r, eta = np.ix_(sub_axis, sub_axis, sub_axis, sub_axis)
    ch = ChannelParams(p, eta)
    modes = (WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT)
    for family in (StateFamily("werner", 0.8), StateFamily("mems", 0.8), StateFamily("mems", 0.5)):
        rho0 = make_state(family)
        state_dev, conc_dev = [], []
        for mode in modes:
            evolved = wmr_pipeline(rho0, ch, WmrParams(q, r, mode)).state
            ref = _reference_pipeline_state(rho0, p, eta, q, r, mode)
            state_dev.append(np.abs(evolved - ref).max(axis=(-2, -1)))
            conc_dev.append(np.abs(wootters_concurrence_oracle(ref) - concurrence(evolved)))
        label = f"{family.kind}({family.param})"
        for what, dev, tolerance in (
            ("pipeline vs reference composition (state entries)", state_dev, _TOL),
            ("concurrence dual route (spin-flip eigensolve oracle)", conc_dev, _DUAL_ROUTE_TOL),
        ):
            worst, index = _worst(np.stack(dev))
            where = {} if index is None else {**case(sub_axis, index[1:]), "mode": modes[index[0]].value}
            checks.append(EquivalenceCheck(f"{label} {what}", worst, tolerance, where))
    return VerificationReport(checks)

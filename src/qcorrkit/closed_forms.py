"""Analytic pipeline concurrences for the Bell input, plus equivalence checks.

The protected-Bell concurrence admits closed forms in (p, q, r, eta) for
both measurement placements.  They are transcribed here exactly as
derived (absolute values and square roots act on [0, 1) parameters, so
they read as plain real operations) and serve as verification oracles
for the numeric pipeline: `verify_closed_forms` sweeps a grid and
reports the worst disagreement.  For the mixed-state families no
closed form is transcribed; the numeric pipeline is instead checked
against an independently coded straight-line reference composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelParams, WmrMode, WmrParams, wmr_pipeline
from .measures import concurrence
from .states import StateFamily, make_state


def bell_concurrence_one_qubit(p: float, q: float, r: float, eta: float) -> float:
    """Closed-form pipeline concurrence, Bell input, WM/QMR on the second qubit."""
    pb, qb, rb = 1.0 - p, 1.0 - q, 1.0 - r
    s2 = eta * p - eta * p**2 - p**2 * q + p**2 + eta * p**2 * q - eta * q * p + 1.0
    inner = (
        (r - 1.0) * s2
        - (eta - 1.0) * (p - 1.0) ** 2 * (q - 1.0)
        - eta * (p - 1.0) * (q - 1.0)
        + p * (eta - 1.0) * (p - 1.0) * (q - 1.0)
        - p * (eta - 1.0) * (p - 1.0) * (q - 1.0) * (r - 1.0)
    ) / (q - 2.0)
    s1 = abs(inner) * (q - 2.0)
    coherence_gap = -np.sqrt(rb) * (
        eta * p
        - p
        + p**2
        + q * p
        + abs(eta * p - p - eta + eta * np.sqrt(pb) + 1.0) * np.sqrt(qb)
        - eta * p**2
        - eta * q * p
        - p**2 * q
        + eta * p**2 * q
    ) / s1
    population_gap = np.sqrt((pb + eta * p) * s2) * np.sqrt(pb * qb * rb) / s1
    return 2.0 * max(0.0, coherence_gap, population_gap)


def bell_concurrence_two_qubit(p: float, q: float, r: float, eta: float) -> float:
    """Closed-form pipeline concurrence, Bell input, WM/QMR on both qubits."""
    pb, qb, rb = 1.0 - p, 1.0 - q, 1.0 - r
    s4 = 2.0 - 2.0 * q + q**2
    s3 = -0.5 + q / 2.0
    s2 = (
        (eta - 1.0) * (1.0 + p**2 - 2.0 * p**2 * q + p**2 * q**2)
        - eta * (p + q**2 * p - 2.0 * q * p + 1.0)
    ) / s4
    s1 = abs(
        -s2 * (r - 1.0) ** 2
        - 2.0 * s3 * (eta - 1.0) * (p - 1.0) ** 2 * (q - 1.0) / s4
        - 2.0 * eta * s3 * (p - 1.0) * (q - 1.0) / s4
        - 4.0 * p * s3 * (eta - 1.0) * (p - 1.0) * (q - 1.0) * (r - 1.0) / s4
    )
    coherence_gap = (
        (q - 1.0)
        * (r - 1.0)
        * (
            abs(eta * p - p - eta + eta * np.sqrt(pb) + 1.0)
            - p
            + eta * p
            + p**2
            + q * p
            - eta * p**2
            - eta * q * p
            - p**2 * q
            + eta * p**2 * q
        )
        / (s1 * s4)
    )
    population_gap = (
        -np.sqrt(-s2 * (pb + eta * p)) * np.sqrt(pb) * (q - 1.0) * (r - 1.0) / (s1 * np.sqrt(s4))
    )
    return 2.0 * max(0.0, coherence_gap, population_gap)


def bell_wmr_concurrence(p: float, q: float, r: float, eta: float, mode: WmrMode) -> float:
    """Dispatch to the closed form matching the measurement placement."""
    if mode is WmrMode.ONE_QUBIT:
        return bell_concurrence_one_qubit(p, q, r, eta)
    if mode is WmrMode.TWO_QUBIT:
        return bell_concurrence_two_qubit(p, q, r, eta)
    raise ValueError("closed forms cover the two measurement placements only")


# --------------------------------------------------------------------------
# Straight-line reference composition, kept independent of channels.py on
# purpose: every operator is rebuilt locally and applied by full matrix
# products, and the concurrence is recomputed from its definition.
# --------------------------------------------------------------------------

def _reference_pipeline_state(
    rho0: np.ndarray, p: float, eta: float, q: float, r: float, mode: WmrMode
) -> np.ndarray:
    eye2 = np.eye(2, dtype=complex)
    m_wm2 = np.diag([1.0, np.sqrt(1.0 - q)]).astype(complex)
    m_qmr2 = np.diag([np.sqrt(1.0 - r), 1.0]).astype(complex)
    if mode is WmrMode.TWO_QUBIT:
        m_wm = np.kron(m_wm2, m_wm2)
        m_qmr = np.kron(m_qmr2, m_qmr2)
    else:
        m_wm = np.kron(eye2, m_wm2)
        m_qmr = np.kron(eye2, m_qmr2)

    state = m_wm @ rho0 @ m_wm.conj().T
    state = state / state.trace()

    e0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    e1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    uncorr = np.zeros((4, 4), dtype=complex)
    for ei in (e0, e1):
        for ej in (e0, e1):
            k = np.kron(ei, ej)
            uncorr += k @ state @ k.conj().T
    a0 = np.diag([1.0, 1.0, 1.0, np.sqrt(1.0 - p)]).astype(complex)
    a1 = np.zeros((4, 4), dtype=complex)
    a1[0, 3] = np.sqrt(p)
    corr = a0 @ state @ a0.conj().T + a1 @ state @ a1.conj().T
    state = (1.0 - eta) * uncorr + eta * corr

    state = m_qmr @ state @ m_qmr.conj().T
    return state / state.trace()


def wootters_concurrence_oracle(state: np.ndarray) -> float:
    """Concurrence straight from its definition via a general eigensolve.

    Accurate only to about sqrt(machine eps) at defective zero
    eigenvalues of the non-normal product, so comparisons against it use
    a correspondingly loose tolerance.
    """
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    lam = np.sort(np.linalg.eigvals(state @ flip @ state.conj() @ flip).real)[::-1]
    lam = np.clip(lam, 0.0, None)
    return max(0.0, np.sqrt(lam[0]) - np.sqrt(lam[1]) - np.sqrt(lam[2]) - np.sqrt(lam[3]))


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


def _axis(grid_points: int, upper: float, fixed: float | None) -> np.ndarray:
    if fixed is not None:
        return np.array([fixed])
    return np.linspace(0.0, upper, grid_points)


def verify_closed_forms(
    grid_points: int = 5,
    upper: float = 0.95,
    tol: float = 1e-9,
    slices: dict[str, float] | None = None,
) -> VerificationReport:
    """Compare closed forms and reference composition against the pipeline.

    Sweeps a ``grid_points**4`` grid over (p, q, r, eta) in [0, upper]
    (axes pinned by ``slices`` collapse to a single value).  The Bell
    closed forms are checked for both measurement placements; the Werner
    and MEMS families are checked for pipeline/reference self-consistency.
    """
    if grid_points < 1:
        raise ValueError(f"grid_points={grid_points}: need at least 1 point per axis")
    slices = slices or {}
    ps = _axis(grid_points, upper, slices.get("p"))
    qs = _axis(grid_points, upper, slices.get("q"))
    rs = _axis(grid_points, upper, slices.get("r"))
    etas = _axis(grid_points, upper, slices.get("eta"))

    checks = []
    bell = make_state(StateFamily("bell"))
    for mode, fn, name in (
        (WmrMode.ONE_QUBIT, bell_concurrence_one_qubit, "bell closed form, one-qubit WMR"),
        (WmrMode.TWO_QUBIT, bell_concurrence_two_qubit, "bell closed form, two-qubit WMR"),
    ):
        worst, worst_case = 0.0, {}
        for p in ps:
            ch_cache = {eta: ChannelParams(float(p), float(eta)) for eta in etas}
            for q in qs:
                for r in rs:
                    for eta in etas:
                        numeric = concurrence(
                            wmr_pipeline(bell, ch_cache[eta], WmrParams(float(q), float(r), mode)).state
                        )
                        dev = abs(fn(float(p), float(q), float(r), float(eta)) - numeric)
                        if dev > worst:
                            worst = dev
                            worst_case = {"p": float(p), "q": float(q), "r": float(r), "eta": float(eta)}
        checks.append(EquivalenceCheck(name, worst, tol, worst_case))

    for family in (StateFamily("werner", 0.8), StateFamily("mems", 0.8), StateFamily("mems", 0.5)):
        rho0 = make_state(family)
        worst_state, worst_conc = 0.0, 0.0
        state_case, conc_case = {}, {}
        # coarser grid: the reference route costs full matrix products per point
        sub = slice(None, None, 2) if grid_points >= 4 else slice(None)
        for mode in (WmrMode.ONE_QUBIT, WmrMode.TWO_QUBIT):
            for p in ps[sub]:
                for q in qs[sub]:
                    for r in rs[sub]:
                        for eta in etas[sub]:
                            case = {
                                "p": float(p), "q": float(q), "r": float(r),
                                "eta": float(eta), "mode": mode.value,
                            }
                            evolved = wmr_pipeline(
                                rho0, ChannelParams(float(p), float(eta)), WmrParams(float(q), float(r), mode)
                            ).state
                            ref = _reference_pipeline_state(
                                rho0, float(p), float(eta), float(q), float(r), mode
                            )
                            dev = float(np.abs(evolved - ref).max())
                            if dev > worst_state:
                                worst_state, state_case = dev, case
                            dev = abs(wootters_concurrence_oracle(ref) - concurrence(evolved))
                            if dev > worst_conc:
                                worst_conc, conc_case = dev, case
        label = f"{family.kind}({family.param})"
        checks.append(
            EquivalenceCheck(
                f"{label} pipeline vs reference composition (state entries)",
                worst_state, tol, state_case,
            )
        )
        checks.append(
            EquivalenceCheck(
                f"{label} concurrence dual route (spin-flip eigensolve oracle)",
                worst_conc, max(tol, 1e-7), conc_case,
            )
        )
    return VerificationReport(checks)

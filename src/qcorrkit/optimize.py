"""Search for the reversal strength that best restores entanglement.

The objective is the concurrence of the full measurement/channel/reversal
pipeline as a function of the reversal strength r at fixed damping,
memory, and measurement strength.  The state sigma after measurement and
channel does not depend on r, so it is built once and every candidate r
only sandwiches it with the reversal: a dense coarse grid, evaluated in
one batch, then golden-section refinement of the bracketed maximum.
The result carries the protected state at the optimum, so callers never
rebuild it.  Everything is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelParams, WmrMode, apply_cad, apply_qmr, apply_wm, qmr_diagonal
from .measures import concurrence
from .states import StateFamily, make_state

_R_MAX = 1.0 - 1e-6
_GRID_STEP = 1e-3
_REFINE_TOL = 1e-8
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizationResult:
    """Best reversal strength, the pipeline quality and state reached there."""

    r_star: float
    concurrence_at_star: float
    success_probability: float
    evaluations: int
    state: np.ndarray = field(compare=False, repr=False)


def optimal_qmr(
    family: StateFamily, ch: ChannelParams, q: float, mode: WmrMode
) -> OptimizationResult:
    """Maximize pipeline concurrence over the reversal strength r.

    Coarse grid of step ``_GRID_STEP`` over [0, 1 - 1e-6], then
    golden-section refinement of the best bracket down to ``_REFINE_TOL``
    in r.  Ties and all-zero plateaus (entanglement already dead
    everywhere) resolve to the smallest admissible r.
    """
    if mode is WmrMode.NONE:
        raise ValueError("reversal optimization needs a measurement mode")
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q={q} outside [0, 1)")

    measured, t_wm = apply_wm(make_state(family), q, mode)
    sigma = apply_cad(measured, ch)

    grid = np.arange(0.0, _R_MAX, _GRID_STEP)
    if grid[-1] < _R_MAX:
        grid = np.append(grid, _R_MAX)

    # every reversal diagonal entry is at least 1 - r >= 1 - _R_MAX (about 1e-6),
    # so each sandwiched trace is at least about 1e-12 * Tr(sigma), far above
    # the 1e-14 degenerate-trace threshold: no r in [0, _R_MAX] annihilates sigma
    diags = np.stack([qmr_diagonal(r, mode) for r in grid])
    sandwiched = sigma[None, :, :] * (diags[:, :, None] * diags[:, None, :])
    traces = np.einsum("gii->g", sandwiched).real
    values = concurrence(sandwiched / traces[:, None, None])
    evaluations = len(grid)

    best = int(values.argmax())  # argmax takes the first index, i.e. smallest r

    def objective(r: float) -> float:
        return float(concurrence(apply_qmr(sigma, r, mode)[0]))

    if values[best] <= 0.0:
        # plateau: no r recovers any entanglement; report the smallest one
        r_star, c_star = 0.0, 0.0
    else:
        lo = grid[best - 1] if best > 0 else grid[best]
        hi = grid[best + 1] if best + 1 < len(grid) else grid[best]
        r_star, c_star, extra = _golden_max(objective, float(lo), float(hi))
        evaluations += extra
        # refinement must never lose to the best coarse candidate, and a
        # tie (flat or boundary maximum) resolves to the smaller r
        if c_star < values[best] or (c_star - values[best] <= 1e-12 and grid[best] < r_star):
            r_star, c_star = float(grid[best]), float(values[best])

    state, t_qmr = apply_qmr(sigma, float(r_star), mode)
    return OptimizationResult(
        r_star=float(r_star),
        concurrence_at_star=float(c_star),
        success_probability=t_wm * t_qmr,
        evaluations=evaluations,
        state=state,
    )


def _golden_max(f, a: float, b: float) -> tuple[float, float, int]:
    """Golden-section maximization on [a, b]; assumes unimodality there.

    Returns (argmax, max, evaluation count).  On ties the midpoint rule of
    the shrinking bracket drifts left, so equal maxima resolve to the
    smaller argument.
    """
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = f(c), f(d)
    evals = 2
    while h > _REFINE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
        evals += 1
    x = a if fc >= fd else b
    candidates = [(f(x), x), (fc, c), (fd, d)]
    evals += 1
    best_val = max(v for v, _ in candidates)
    best_x = min(x for v, x in candidates if v >= best_val - 1e-15)
    return best_x, best_val, evals

"""The reversal strength that best restores entanglement.

The objective is the concurrence of the full measurement/channel/reversal
pipeline as a function of the reversal strength r at fixed damping,
memory, and measurement strength.  The state sigma after measurement and
channel does not depend on r, so it is built once.  A dense coarse grid
detects the dead plateau and guards the result: the grid and each mode's
real reversal factors are built once per process.  A call checks sigma
once as a real X state, then reverses its real part on the whole grid as
a float64 stack, with one multiply, one trace and one reciprocal per grid
point, and scores it with one batched ``concurrence`` call.  The scores
equal those of the complex stack bit for bit, because the trace keeps
the complex trace's summation order.  The optimum
itself is the stationary point of the concurrence in u = 1 - r, which is
unimodal there (``docs/decisions.md`` section 1.2).
The result carries the protected state at the optimum, so callers never
rebuild it.  Everything is deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    ChannelParams,
    WmrMode,
    _outer,
    _sandwich_normalized,
    apply_cad,
    apply_qmr,
    apply_wm,
    qmr_diagonal,
)
from .measures import concurrence, x_entries
from .states import StateFamily, make_state

_R_MAX = 1.0 - 1e-6
_GRID_STEP = 1e-3

#: the guard grid: [0, ``_R_MAX``) in steps of ``_GRID_STEP``, then ``_R_MAX``
_GRID = np.append(np.arange(0.0, _R_MAX, _GRID_STEP), _R_MAX)
_GRID.flags.writeable = False


@functools.cache
def _grid_factors(mode: WmrMode) -> np.ndarray:
    """The reversal factors m mᵀ of every grid strength, shape (grid, 4, 4), read-only.

    Float64, like the real part of the state they reverse: a real X
    state's grid needs no imaginary parts.
    """
    factors = _outer(qmr_diagonal(_GRID, mode))
    factors.flags.writeable = False
    return factors


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

    With sigma the state after measurement and channel, the optimum is
    u* = sqrt(sigma44 / sigma11) for two qubits and
    u* = (sigma22 + sigma44) / (sigma11 + sigma33) for one, clipped to
    [1 - ``_R_MAX``, 1], with r* = 1 - u*.  A coarse grid of step
    ``_GRID_STEP`` over [0, ``_R_MAX``] guards it: if no grid point has
    positive concurrence (entanglement already dead everywhere) r* is 0,
    and the best grid point replaces r* if it scores higher, or within
    1e-12 at a smaller r.
    """
    if mode is WmrMode.NONE:
        raise ValueError("reversal optimization needs a measurement mode")

    measured, t_wm = apply_wm(make_state(family), q, mode)
    sigma = apply_cad(measured, ch)

    # sigma is checked once as a real X state, so its real part is all the grid needs
    x_entries(sigma)
    values = concurrence(_sandwich_normalized(sigma.real, _GRID, _grid_factors(mode))[0])
    evaluations = _GRID.size

    best = int(values.argmax())  # argmax takes the first index, i.e. smallest r
    if values[best] <= 0.0:
        # plateau: no r recovers any entanglement; report the smallest one
        r_star, c_star = 0.0, 0.0
        state, t_qmr = apply_qmr(sigma, r_star, mode)
    else:
        # the concurrence is unimodal in u = 1 - r: take its stationary point
        s11, s22, s33, s44 = sigma.diagonal().real
        u = np.sqrt(s44 / s11) if mode is WmrMode.TWO_QUBIT else (s22 + s44) / (s11 + s33)
        r_star = 1.0 - min(max(float(u), 1.0 - _R_MAX), 1.0)
        state, t_qmr = apply_qmr(sigma, r_star, mode)
        c_star = float(concurrence(state))
        evaluations += 1
        # the closed form must never lose to the best grid candidate, and a
        # tie (flat or boundary maximum) resolves to the smaller r
        if c_star < values[best] or (c_star - values[best] <= 1e-12 and _GRID[best] < r_star):
            r_star, c_star = float(_GRID[best]), float(values[best])
            state, t_qmr = apply_qmr(sigma, r_star, mode)

    return OptimizationResult(
        r_star=r_star,
        concurrence_at_star=c_star,
        success_probability=float(t_wm * t_qmr),
        evaluations=evaluations,
        state=state,
    )


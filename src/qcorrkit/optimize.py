"""The reversal strength that best restores entanglement.

The objective is the concurrence of the full measurement/channel/reversal
pipeline as a function of the reversal strength r at fixed damping,
memory, and measurement strength.  A call takes the initial state's six
numbers (a, b, c, d, z, w) from :func:`x_numbers`, the family's one
definition, with no dense initial state, and runs the whole chain on
them as Python floats: the weak measurement and the channel give sigma,
which does not depend on r, and one reversal at the optimum gives the
protected state.  These six-number maps equal the entry maps of
``channels.py`` bit for bit (``docs/decisions.md`` section 1.1).  The
optimum itself is the stationary point of the concurrence in u = 1 - r,
which is unimodal there (section 1.2).  A dense coarse grid detects the
dead plateau and guards the result: the grid and each mode's real
reversal factors are built once per process, and a call reverses sigma,
as a real 4x4 array from :func:`x_matrix`, on the whole grid as a
float64 stack, with one multiply, one trace and one reciprocal per grid
point, and scores it with one batched ``concurrence`` call.  The result
carries the protected state at the optimum as a float64 4x4 array, so
callers never rebuild it.  Everything is deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    ChannelParams,
    WmrMode,
    _outer,
    _sandwich_normalized,
    _x_damped,
    _x_measured,
    qmr_diagonal,
    wm_diagonal,
)
from .exceptions import _one_number, _unit_interval
from .measures import _concurrence, concurrence
from .states import StateFamily, x_matrix, x_numbers

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


def _measured(x, strength: float, diagonal, mode: WmrMode):
    """:func:`apply_wm` (``diagonal`` = :func:`wm_diagonal`) or :func:`apply_qmr`
    (:func:`qmr_diagonal`) on the six numbers of one state: strength 0
    passes ``x`` on with weight 1, as they do."""
    if strength == 0.0:
        return x, 1.0
    return _x_measured(x, diagonal(strength, mode).tolist())


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
    1e-12 at a smaller r.  p, eta and q are single numbers; an array
    raises ``ValueError``.
    """
    if mode is WmrMode.NONE:
        raise ValueError("reversal optimization needs a measurement mode")
    p, eta = _one_number("p", ch.p), _one_number("eta", ch.eta)
    q = _one_number("q", _unit_interval("q", q, closed=False))

    # the chain runs on the six numbers of the initial state, as Python floats
    x, t_wm = _measured([float(v) for v in x_numbers(family)], q, wm_diagonal, mode)
    sigma = _x_damped(x, float(p), float(eta), math.sqrt)

    grid_states = _sandwich_normalized(x_matrix(sigma, float), _GRID, _grid_factors(mode))[0]
    values = concurrence(grid_states)
    evaluations = _GRID.size

    best = int(values.argmax())  # argmax takes the first index, i.e. smallest r
    if values[best] <= 0.0:
        # plateau: no r recovers any entanglement; report the smallest one
        r_star, c_star = 0.0, 0.0
        state, t_qmr = sigma, 1.0
    else:
        # the concurrence is unimodal in u = 1 - r: take its stationary point
        s11, s22, s33, s44 = sigma[:4]
        u = math.sqrt(s44 / s11) if mode is WmrMode.TWO_QUBIT else (s22 + s44) / (s11 + s33)
        r_star = 1.0 - min(max(u, 1.0 - _R_MAX), 1.0)
        state, t_qmr = _measured(sigma, r_star, qmr_diagonal, mode)
        c_star = float(_concurrence(*state))
        evaluations += 1
        # the closed form must never lose to the best grid candidate, and a
        # tie (flat or boundary maximum) resolves to the smaller r
        if c_star < values[best] or (c_star - values[best] <= 1e-12 and _GRID[best] < r_star):
            r_star, c_star = float(_GRID[best]), float(values[best])
            state, t_qmr = _measured(sigma, r_star, qmr_diagonal, mode)

    return OptimizationResult(
        r_star=r_star,
        concurrence_at_star=c_star,
        success_probability=float(t_wm * t_qmr),
        evaluations=evaluations,
        state=x_matrix(state, float),
    )

"""Two-qubit initial states as six numbers and as matrices, random draws and the X-form test.

Every initial family is an X state with real coherences, so it is
defined once, by its six numbers (a, b, c, d, z, w) = (rho11, rho22,
rho33, rho44, rho14, rho23): :func:`x_numbers` returns them, and the
sweeps and the optimizer run on them.  The dense constructors write
those numbers into a 4x4 array with one densifier, :func:`x_matrix`,
which the optimizer also uses for its float64 states.  Density matrices
are complex ``numpy`` arrays in the computational basis ordered |00>,
|01>, |10>, |11>, so that entry (i, j) with 1-based indices matches the
usual rho_ij convention (rho_41 is the |11><00| coherence).  All
functions are pure; arrays are never mutated in place.  The dense
matrix utilities (eigenvalues, entropy, density-matrix validation) live
with the other reference routes in ``oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import _one_number, _unit_interval

#: entries allowed to be nonzero in an X-form state: diagonal + anti-diagonal
_X_MASK = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [1, 0, 0, 1],
    ],
    dtype=bool,
)
_X_MASK.flags.writeable = False

#: largest modulus an entry off the X pattern may have in an X state
X_STATE_TOL = 1e-10


#: every state family and its default parameter, the value at which the
#: family's state is the Bell state (for nme, alpha^2 = 1/2)
FAMILY_DEFAULTS = {"bell": 1.0, "werner": 1.0, "mems": 1.0, "nme": 0.5}


@dataclass(frozen=True)
class StateFamily:
    """A named initial-state family with its single parameter.

    kind
        one of the keys of ``FAMILY_DEFAULTS``
    param
        mixing weight r_b for Werner, anti-diagonal weight for MEMS,
        |alpha|^2 for the non-maximally entangled pure state, where an
        array of values names a stack of states.  ``None`` (the default)
        takes the family's entry in ``FAMILY_DEFAULTS``.
        The Bell state has no parameter: a ``"bell"`` value is range
        checked, then replaced by its default, so ``param`` always names
        the state that :func:`make_state` builds.
    """

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_DEFAULTS:
            raise ValueError(f"unknown state family {self.kind!r}")
        if self.param is None:
            object.__setattr__(self, "param", FAMILY_DEFAULTS[self.kind])
        _unit_interval("param", self.param, closed=True)
        if self.kind == "bell":
            object.__setattr__(self, "param", FAMILY_DEFAULTS["bell"])


#: (row, column) of a, b, c, d, z, z, w, w: the entries of an X state
_X_SLOTS = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1))

#: (1/sqrt(2))^2 = 0.4999999999999999, Bell's weight as the outer product of
#: (|00> + |11>)/sqrt(2) rounds it
_BELL_WEIGHT = (1.0 / math.sqrt(2.0)) * (1.0 / math.sqrt(2.0))


def _werner_numbers(r_b):
    """(1 - r_b)/4 * I + r_b * Bell.  The Bell state is r_b = 1, whose sums
    0 + 1 * weight give its numbers bit for bit."""
    mixed, bell = (1.0 - r_b) / 4.0, r_b * _BELL_WEIGHT
    return mixed + bell, mixed, mixed, mixed + bell, bell, 0.0


def _mems_numbers(gamma):
    """g(gamma) on rho11 and rho44: 1/3 below the knee gamma = 2/3, gamma/2 above it."""
    g = 1.0 / 3.0 if gamma < 2.0 / 3.0 else gamma / 2.0
    return g, 1.0 - 2.0 * g, 0.0, g, gamma / 2.0, 0.0


def _nme_numbers(alpha2):
    """alpha|00> + beta|11>, whose outer product holds alpha^2, alpha beta and beta^2."""
    alpha, beta = np.sqrt(alpha2), np.sqrt(1.0 - alpha2)
    zero = np.zeros(np.shape(alpha2))[()]
    return alpha * alpha, zero, zero, beta * beta, alpha * beta, zero


def x_numbers(family: StateFamily) -> tuple:
    """The six numbers (a, b, c, d, z, w) of a family's initial state.

    a, b, c, d are the populations rho11..rho44 and z = rho14, w = rho23
    the coherences.  Every number is rounded as the outer products and
    sums of the textbook construction round it (``docs/decisions.md``
    section 2.8), so Bell's populations are (1/sqrt 2)^2 =
    0.4999999999999999.  An nme ``param`` may be an array of alpha^2
    values: the six numbers are then arrays of its shape.  The other
    families take one number; an array that is not 0-d raises ``ValueError``.
    """
    if family.kind == "nme":
        return _nme_numbers(family.param)
    param = _one_number("param", family.param)  # Bell's is always 1
    return _mems_numbers(param) if family.kind == "mems" else _werner_numbers(param)


def x_matrix(x, dtype) -> np.ndarray:
    """The X state of the six numbers x = (a, b, c, d, z, w), as a ``dtype`` 4x4 array.

    Arrays of numbers, all of one shape, give a ``(..., 4, 4)`` stack, one
    state per entry.  Every entry off the X pattern, and every imaginary
    part, is +0.
    """
    a, b, c, d, z, w = x
    rho = np.zeros(np.shape(a) + (4, 4), dtype)
    for (i, j), value in zip(_X_SLOTS, (a, b, c, d, z, z, w, w)):
        rho[..., i, j] = value
    return rho


def bell_state() -> np.ndarray:
    """Density matrix of (|00> + |11>)/sqrt(2)."""
    return x_matrix(_werner_numbers(1.0), complex)


def werner_state(r_b: float) -> np.ndarray:
    """Mixture (1 - r_b)/4 * I + r_b * Bell; r_b sets the purity.

    ``r_b`` is one number in [0, 1]; an array that is not 0-d raises.
    """
    r_b = _one_number("r_b", _unit_interval("r_b", r_b, closed=True))
    return x_matrix(_werner_numbers(r_b), complex)


def mems_state(gamma: float) -> np.ndarray:
    """Maximally entangled mixed state with anti-diagonal weight gamma.

    The (1,1)/(4,4) populations follow the piecewise g(gamma): 1/3 below
    gamma = 2/3 and gamma/2 above, which maximizes entanglement at fixed
    linear entropy.  ``gamma`` is one number in [0, 1]; an array that is
    not 0-d raises.
    """
    gamma = _one_number("gamma", _unit_interval("gamma", gamma, closed=True))
    return x_matrix(_mems_numbers(gamma), complex)


def nme_state(alpha2: float | np.ndarray) -> np.ndarray:
    """Pure state alpha|00> + beta|11> with alpha = sqrt(alpha2), beta real.

    ``alpha2`` may be an array; the result is then a ``(..., 4, 4)``
    stack, one state per entry, each equal bit for bit to the state of
    that entry built on its own.  Every entry must lie in [0, 1]; a NaN
    is rejected.
    """
    return x_matrix(_nme_numbers(_unit_interval("alpha2", alpha2, closed=True)), complex)


def make_state(family: StateFamily) -> np.ndarray:
    """Build the initial density matrix for a :class:`StateFamily`.

    Each constructor densifies the family's six numbers of :func:`x_numbers`.
    """
    if family.kind == "bell":
        return bell_state()
    if family.kind == "werner":
        return werner_state(family.param)
    if family.kind == "mems":
        return mems_state(family.param)
    return nme_state(family.param)


def is_x_state(rho: np.ndarray) -> bool | np.ndarray:
    """True iff every entry off the diagonal/anti-diagonal has modulus <= ``X_STATE_TOL``.

    Accepts a stack of states with shape (..., 4, 4) and then returns a
    boolean array, one entry per state.
    """
    ok = np.abs(np.asarray(rho)[..., ~_X_MASK]).max(axis=-1) <= X_STATE_TOL
    return bool(ok) if ok.ndim == 0 else ok


def random_x_state(rng: np.random.Generator) -> np.ndarray:
    """Draw a random X-form density matrix with real coherences.

    Populations are uniform on the simplex; the two coherences are drawn
    uniformly inside the exact positivity bounds |rho14| <= sqrt(rho11 rho44),
    |rho23| <= sqrt(rho22 rho33), so the output is PSD by construction.
    """
    pop = rng.dirichlet(np.ones(4))
    rho = np.diag(pop).astype(complex)
    c14 = (2.0 * rng.random() - 1.0) * np.sqrt(pop[0] * pop[3])
    c23 = (2.0 * rng.random() - 1.0) * np.sqrt(pop[1] * pop[2])
    rho[0, 3] = rho[3, 0] = c14
    rho[1, 2] = rho[2, 1] = c23
    return rho


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Draw a random full-rank 4x4 density matrix.

    A complex Ginibre matrix A (real parts drawn before imaginary parts)
    gives rho = A A^dagger / Tr(A A^dagger), which is generally not X-form.
    """
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / rho.trace()

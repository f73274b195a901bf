"""Two-qubit state constructors, random draws and the X-form test.

Density matrices are plain complex ``numpy`` arrays in the computational
basis ordered |00>, |01>, |10>, |11>, so that entry (i, j) with 1-based
indices matches the usual rho_ij convention (rho_41 is the |11><00|
coherence).  All functions are pure; arrays are never mutated in place.
The dense matrix utilities (eigenvalues, entropy, density-matrix
validation) live with the other reference routes in ``oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import _unit_interval

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
        |alpha|^2 for the non-maximally entangled pure state.  ``None``
        (the default) takes the family's entry in ``FAMILY_DEFAULTS``.
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


def _one_parameter(name: str, value) -> np.floating:
    """``value`` checked by the unit-interval rule, and refused unless it is 0-d:
    the constructors that call this build one state, not a stack."""
    value = _unit_interval(name, value, closed=True)
    if np.ndim(value):
        raise ValueError(f"{name} must be a single number, got shape {np.shape(value)}")
    return value


def bell_state() -> np.ndarray:
    """Density matrix of (|00> + |11>)/sqrt(2)."""
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def werner_state(r_b: float) -> np.ndarray:
    """Mixture (1 - r_b)/4 * I + r_b * Bell; r_b sets the purity.

    ``r_b`` is one number in [0, 1]; an array that is not 0-d raises.
    """
    r_b = _one_parameter("r_b", r_b)
    return (1.0 - r_b) / 4.0 * np.eye(4, dtype=complex) + r_b * bell_state()


def mems_state(gamma: float) -> np.ndarray:
    """Maximally entangled mixed state with anti-diagonal weight gamma.

    The (1,1)/(4,4) populations follow the piecewise g(gamma): 1/3 below
    gamma = 2/3 and gamma/2 above, which maximizes entanglement at fixed
    linear entropy.  ``gamma`` is one number in [0, 1]; an array that is
    not 0-d raises.
    """
    gamma = _one_parameter("gamma", gamma)
    g = 1.0 / 3.0 if gamma < 2.0 / 3.0 else gamma / 2.0
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[3, 3] = g
    rho[1, 1] = 1.0 - 2.0 * g
    rho[0, 3] = rho[3, 0] = gamma / 2.0
    return rho


def nme_state(alpha2: float | np.ndarray) -> np.ndarray:
    """Pure state alpha|00> + beta|11> with alpha = sqrt(alpha2), beta real.

    ``alpha2`` may be an array; the result is then a ``(..., 4, 4)``
    stack, one state per entry, each equal bit for bit to the state of
    that entry built on its own (the same ``psi ⊗ psi*`` products).
    Every entry must lie in [0, 1]; a NaN is rejected.
    """
    alpha2 = _unit_interval("alpha2", alpha2, closed=True)
    psi = np.zeros((*alpha2.shape, 4), dtype=complex)
    psi[..., 0] = np.sqrt(alpha2)
    psi[..., 3] = np.sqrt(1.0 - alpha2)
    return psi[..., :, None] * psi.conj()[..., None, :]


def make_state(family: StateFamily) -> np.ndarray:
    """Build the initial density matrix for a :class:`StateFamily`."""
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

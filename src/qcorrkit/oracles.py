"""Dense 4x4 reference routes that cross-validate the fast X-state path.

Each oracle recomputes a quantity from its operational definition
(Kraus sandwich sums, explicit measurements, minimizations, partial
traces, general eigensolves) without touching the route it is checked
against.  They are slower by design and are used by the verification
command, the test suite and the benchmark checks.  The X-state path
(states, channels, measures, optimizer, sweeps, datasets, closed forms)
never diagonalizes or builds a Kronecker product; ``tests/test_layout.py``
keeps it that way.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .channels import WmrMode
from .exceptions import NumericalContractError

HERMITICITY_TOL = 1e-12
EIGEN_HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

_I2 = np.eye(2, dtype=complex)
_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
)

# Orthonormal basis in which every maximally entangled state has real
# coefficients; columns are (|00>+|11>)/sqrt2, i(|00>-|11>)/sqrt2,
# i(|01>+|10>)/sqrt2, (|01>-|10>)/sqrt2.
_MAGIC_BASIS = np.array(
    [
        [1.0, 1.0j, 0.0, 0.0],
        [0.0, 0.0, 1.0j, 1.0],
        [0.0, 0.0, 1.0j, -1.0],
        [1.0, -1.0j, 0.0, 0.0],
    ],
    dtype=complex,
) / np.sqrt(2.0)


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise :class:`NumericalContractError` unless rho is a valid state.

    Checks entrywise Hermiticity, unit trace, positive semidefiniteness
    (up to ``HERMITICITY_TOL``, ``TRACE_TOL`` and ``PSD_TOL``) and that
    every entry is finite.
    """
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise NumericalContractError(f"expected a 4x4 matrix, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise NumericalContractError("non-finite entries in density matrix")
    herm_dev = np.abs(rho - rho.conj().T).max()
    if herm_dev > HERMITICITY_TOL:
        raise NumericalContractError(f"Hermiticity violated by {herm_dev:.3e}")
    trace_dev = abs(rho.trace().real - 1.0) + abs(rho.trace().imag)
    if trace_dev > TRACE_TOL:
        raise NumericalContractError(f"trace deviates from 1 by {trace_dev:.3e}")
    min_eig = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min()
    if min_eig < -PSD_TOL:
        raise NumericalContractError(f"negative eigenvalue {min_eig:.3e}")


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian 4x4 matrix, sorted descending."""
    m = np.asarray(m, dtype=complex)
    dev = np.abs(m - m.conj().T).max()
    if dev > EIGEN_HERMITICITY_TOL:
        raise NumericalContractError(f"matrix not Hermitian (deviation {dev:.3e})")
    return np.linalg.eigvalsh(m)[::-1]


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) in bits, with 0 log 0 := 0.

    Eigenvalues are clamped to [0, 1] first; channel endpoints produce
    round-off of order 1e-16 that would otherwise yield NaN.
    """
    lam = np.clip(hermitian_eigenvalues(rho), 0.0, 1.0)
    nz = lam[lam > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def _matrix2(a, b, c, d) -> np.ndarray:
    """Stack of complex 2x2 matrices [[a, b], [c, d]] from broadcastable entries."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2).astype(complex)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two stacks of 2x2 matrices: entry (2i+k, 2j+l) is a_ij b_kl."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def _sandwich(k: np.ndarray, state: np.ndarray) -> np.ndarray:
    return k @ state @ k.conj().swapaxes(-1, -2)


def _normalized(state: np.ndarray) -> np.ndarray:
    return state / state.trace(axis1=-2, axis2=-1)[..., None, None]


def _projector(n) -> np.ndarray:
    """Projector (I + n.sigma)/2 onto the Bloch direction n; components may be arrays."""
    return (_I2 + sum(np.multiply.outer(c, s) for c, s in zip(n, _PAULIS))) / 2.0


# --------------------------------------------------------------------------
# Straight-line reference composition, kept independent of the entry maps
# in channels.py on purpose: every operator is rebuilt locally and applied
# by full matrix products.  It works on stacks: parameter arrays broadcast
# against the leading dims of the states, and every operator is a stack of
# matrices.
# --------------------------------------------------------------------------

def _reference_pipeline_state(
    rho0: np.ndarray, p, eta, q, r, mode: WmrMode
) -> np.ndarray:
    """WM, correlated damping and QMR as Kraus sandwich sums, renormalized."""
    p, eta, q, r = (np.asarray(x, dtype=float) for x in (p, eta, q, r))
    m_wm2 = _matrix2(1.0, 0.0, 0.0, np.sqrt(1.0 - q))
    m_qmr2 = _matrix2(np.sqrt(1.0 - r), 0.0, 0.0, 1.0)
    if mode is WmrMode.TWO_QUBIT:
        m_wm = _kron(m_wm2, m_wm2)
        m_qmr = _kron(m_qmr2, m_qmr2)
    else:
        m_wm = _kron(_I2, m_wm2)
        m_qmr = _kron(_I2, m_qmr2)

    state = _normalized(_sandwich(m_wm, rho0))

    e0 = _matrix2(1.0, 0.0, 0.0, np.sqrt(1.0 - p))
    e1 = _matrix2(0.0, np.sqrt(p), 0.0, 0.0)
    uncorr = sum(_sandwich(_kron(ei, ej), state) for ei in (e0, e1) for ej in (e0, e1))
    a0 = np.tile(np.eye(4, dtype=complex), p.shape + (1, 1))
    a0[..., 3, 3] = np.sqrt(1.0 - p)
    a1 = np.zeros_like(a0)
    a1[..., 0, 3] = np.sqrt(p)
    corr = _sandwich(a0, state) + _sandwich(a1, state)
    eta = eta[..., None, None]
    state = (1.0 - eta) * uncorr + eta * corr

    return _normalized(_sandwich(m_qmr, state))


def wootters_concurrence_oracle(state: np.ndarray) -> float | np.ndarray:
    """Concurrence straight from its definition via a general eigensolve.

    Accurate only to about sqrt(machine eps) at defective zero
    eigenvalues of the non-normal product, so comparisons against it use
    a correspondingly loose tolerance.  Accepts a stack of states.
    """
    flip = _kron(_PAULIS[1], _PAULIS[1])
    lam = np.sort(np.linalg.eigvals(state @ flip @ state.conj() @ flip).real, axis=-1)
    root = np.sqrt(np.clip(lam, 0.0, None))
    gap = root[..., 3] - root[..., 2] - root[..., 1] - root[..., 0]
    return np.maximum(gap, 0.0)[()]


def reduced_state(rho: np.ndarray, keep: int) -> np.ndarray:
    """Partial trace down to one qubit; keep=0 for the first, 1 for the second."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.trace(r, axis1=1, axis2=3) if keep == 0 else np.trace(r, axis1=0, axis2=2)


def _dephasing_distance(rho: np.ndarray, theta, phi) -> float | np.ndarray:
    """Trace norm of rho minus its first-qubit dephasing along (theta, phi).

    The angles may be arrays; the result has their broadcast shape.
    """
    p = _projector((np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)))
    kp = _kron(p, _I2)
    kq = _kron(_I2 - p, _I2)
    delta = rho - kp @ rho @ kp - kq @ rho @ kq
    return np.abs(np.linalg.eigvalsh(delta)).sum(axis=-1)[()]


def tdd_measurement_oracle(rho: np.ndarray, n_theta: int = 61, n_phi: int = 48) -> float:
    """Discord as the minimal disturbance by a first-qubit projective measurement.

    Minimizes ||rho - Pi(rho)||_1 over all Bloch-sphere measurement
    directions with a two-angle grid followed by local simplex refinement.
    """
    rho = np.asarray(rho, dtype=complex)
    tt, pp = np.meshgrid(
        np.linspace(0.0, np.pi, n_theta),
        np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False),
        indexing="ij",
    )
    vals = _dephasing_distance(rho, tt.ravel(), pp.ravel())
    i = int(vals.argmin())
    res = minimize(
        lambda a: _dephasing_distance(rho, a[0], a[1]),
        (tt.flat[i], pp.flat[i]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 600},
    )
    return float(min(vals[i], res.fun))


def dense_coding_oracle(rho: np.ndarray) -> float:
    """Capacity via the partial-trace identity.

    Uniformly mixing the four encodings fully depolarizes the encoded
    qubit, so the mixed state is I/2 on that side and the capacity equals
    1 + S(reduced other qubit) - S(rho).
    """
    return 1.0 + von_neumann_entropy(reduced_state(rho, keep=1)) - von_neumann_entropy(rho)


def fully_entangled_fraction_oracle(rho: np.ndarray) -> float:
    """Largest overlap with any maximally entangled pure state, for any state.

    Equals the top eigenvalue of the real part of rho expressed in the
    magic basis, where maximally entangled states are the real unit
    vectors.
    """
    m = _MAGIC_BASIS.conj().T @ np.asarray(rho, dtype=complex) @ _MAGIC_BASIS
    return float(np.linalg.eigvalsh(m.real)[-1])


def jsd_coherence_oracle(rho: np.ndarray) -> float:
    """Divergence-based coherence from three dense eigensolves, for any state.

    The square root of S((rho + rho_d)/2) - S(rho)/2 - S(rho_d)/2, with
    rho_d the diagonal part of rho.
    """
    rho = np.asarray(rho, dtype=complex)
    rho_d = np.diag(rho.diagonal())
    radicand = (
        von_neumann_entropy((rho + rho_d) / 2.0)
        - von_neumann_entropy(rho) / 2.0
        - von_neumann_entropy(rho_d) / 2.0
    )
    return float(np.sqrt(max(radicand, 0.0)))


def _shannon(p: np.ndarray) -> float:
    p = p[p > 1e-300]
    return float(-(p * np.log2(p)).sum())


def correlation_tensor(rho: np.ndarray) -> np.ndarray:
    """3x3 matrix of two-point Pauli correlations Tr[rho s_i x s_j]."""
    t = np.empty((3, 3))
    for i, si in enumerate(_PAULIS):
        for j, sj in enumerate(_PAULIS):
            t[i, j] = np.einsum("ij,ji->", rho, _kron(si, sj)).real
    return t


def _joint_probabilities(rho: np.ndarray, axis_a: np.ndarray, axis_b: np.ndarray) -> np.ndarray:
    pa, pb = _projector(axis_a), _projector(axis_b)
    probs = np.empty((2, 2))
    for a, proj_a in enumerate((pa, _I2 - pa)):
        for b, proj_b in enumerate((pb, _I2 - pb)):
            probs[a, b] = np.einsum("ij,ji->", rho, _kron(proj_a, proj_b)).real
    return np.clip(probs, 0.0, None)


def steering_entropy_oracle(rho: np.ndarray) -> float:
    """Steering quantity from measured conditional entropies.

    Evaluates 6 - 2 * sum_i H(B_i | A_i) with the three measurement-axis
    pairs taken from the singular frames of the correlation tensor, which
    co-rotate under local unitaries.  Joint outcome distributions come
    from explicit projector traces.  On X states with zero local
    z-imbalance this coincides with the analytic steering expression.
    """
    rho = np.asarray(rho, dtype=complex)
    u, _, vt = np.linalg.svd(correlation_tensor(rho))
    total = 0.0
    for i in range(3):
        joint = _joint_probabilities(rho, u[:, i], vt[i, :])
        total += _shannon(joint.ravel()) - _shannon(joint.sum(axis=1))
    return 6.0 - 2.0 * total

"""Brute-force oracles that cross-validate the analytic measure formulas.

Each oracle recomputes a quantity from its operational definition
(explicit measurements, minimizations, partial traces) without touching
the closed-form route it is checked against.  They are slower by design
and are used by the verification command and the test suite.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .states import von_neumann_entropy

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


def reduced_state(rho: np.ndarray, keep: int) -> np.ndarray:
    """Partial trace down to one qubit; keep=0 for the first, 1 for the second."""
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.trace(r, axis1=1, axis2=3) if keep == 0 else np.trace(r, axis1=0, axis2=2)


def _direction_projector(theta: float, phi: float) -> np.ndarray:
    n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    return (_I2 + sum(c * s for c, s in zip(n, _PAULIS))) / 2.0


def _dephasing_distance(rho: np.ndarray, theta: float, phi: float) -> float:
    """Trace norm of rho minus its first-qubit dephasing along (theta, phi)."""
    p = _direction_projector(theta, phi)
    q = _I2 - p
    kp = np.kron(p, _I2)
    kq = np.kron(q, _I2)
    delta = rho - kp @ rho @ kp - kq @ rho @ kq
    return float(np.abs(np.linalg.eigvalsh(delta)).sum())


def tdd_measurement_oracle(
    rho: np.ndarray,
    n_theta: int = 720,
    n_phi: int = 360,
    refine: bool = True,
) -> float:
    """Discord as the minimal disturbance by a first-qubit projective measurement.

    Minimizes ||rho - Pi(rho)||_1 over all Bloch-sphere measurement
    directions with a two-angle grid followed by local simplex refinement.
    The grid is evaluated in chunks with batched eigensolves.
    """
    rho = np.asarray(rho, dtype=complex)
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    angles = np.stack([tt.ravel(), pp.ravel()], axis=1)

    best_val = np.inf
    best_angle = angles[0]
    for start in range(0, len(angles), 32768):
        chunk = angles[start : start + 32768]
        st, ct = np.sin(chunk[:, 0]), np.cos(chunk[:, 0])
        nx = st * np.cos(chunk[:, 1])
        ny = st * np.sin(chunk[:, 1])
        nz = ct
        # P = (I + n.sigma)/2 batched, then Pi(rho) = (P x I) rho (P x I) + (Q x I) rho (Q x I)
        p = 0.5 * (
            _I2[None, :, :]
            + nx[:, None, None] * _PAULIS[0]
            + ny[:, None, None] * _PAULIS[1]
            + nz[:, None, None] * _PAULIS[2]
        )
        q = _I2[None, :, :] - p
        kp = np.einsum("gab,cd->gacbd", p, _I2).reshape(-1, 4, 4)
        kq = np.einsum("gab,cd->gacbd", q, _I2).reshape(-1, 4, 4)
        delta = rho[None] - kp @ rho @ kp - kq @ rho @ kq
        vals = np.abs(np.linalg.eigvalsh(delta)).sum(axis=-1)
        i = int(vals.argmin())
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_angle = chunk[i]

    if refine:
        res = minimize(
            lambda a: _dephasing_distance(rho, a[0], a[1]),
            best_angle,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 600},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
    return best_val


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
            t[i, j] = np.einsum("ij,ji->", rho, np.kron(si, sj)).real
    return t


def _joint_probabilities(rho: np.ndarray, axis_a: np.ndarray, axis_b: np.ndarray) -> np.ndarray:
    pa = (_I2 + sum(c * s for c, s in zip(axis_a, _PAULIS))) / 2.0
    pb = (_I2 + sum(c * s for c, s in zip(axis_b, _PAULIS))) / 2.0
    probs = np.empty((2, 2))
    for a, proj_a in enumerate((pa, _I2 - pa)):
        for b, proj_b in enumerate((pb, _I2 - pb)):
            probs[a, b] = np.einsum("ij,ji->", rho, np.kron(proj_a, proj_b)).real
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

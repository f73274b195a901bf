"""Dense 4x4 reference routes that cross-validate the fast X-state path.

Each oracle recomputes a quantity from its operational definition
(Kraus sandwich sums, explicit measurements, minimizations, partial
traces, dense eigensolves, the trace norm of a measurement disturbance
for any state) without touching the route it is checked against.  They
are slower by design and are used by the verification command, the
test suite and the benchmark checks.  The X-state path
(states, channels, measures, optimizer, sweeps, datasets, closed forms)
never diagonalizes or builds a Kronecker product; ``tests/test_layout.py``
keeps it that way.
"""

from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

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
for _constant in (_I2, *_PAULIS, _MAGIC_BASIS):
    _constant.flags.writeable = False
del _constant


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
    """Projector (I + n.sigma)/2 onto the Bloch direction n."""
    return (_I2 + sum(c * s for c, s in zip(n, _PAULIS))) / 2.0


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


def _first_qubit_blocks(rho: np.ndarray) -> list[list[complex]]:
    """Rows (D_j, B_j, C_j) over the four entries j of the 2x2 blocks of rho.

    With rho_ac = (<a| x I) rho (|c> x I) for first-qubit basis states a
    and c: D = rho_11 - rho_00, B = rho_01, C = rho_10, each raveled.
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    blocks = np.stack((r[1, :, 1] - r[0, :, 0], r[0, :, 1], r[1, :, 0]), axis=-1)
    return blocks.reshape(4, 3).tolist()


def _disturbance(blocks: list[list[complex]], ct, st, cp, sp, sqrt):
    """The formula of :func:`_dephasing_distance` on cos/sin of theta and phi.

    The arguments are either numpy arrays with ``sqrt=np.sqrt`` or Python
    floats with ``sqrt=math.sqrt``: each step is one IEEE multiply, add or
    correctly rounded square root in the order written here, so both give
    the same bits.
    """
    hp, hm = 1.0 + ct, 1.0 - ct
    k1, k2, k3, k4 = hp * cp, hp * sp, hm * cp, hm * sp
    parts = []
    for d, b, c in blocks:
        parts.append(d.real * st + b.real * k1 - b.imag * k2 - c.real * k3 - c.imag * k4)
        parts.append(d.imag * st + b.imag * k1 + b.real * k2 - c.imag * k3 + c.real * k4)
    x00r, x00i, x01r, x01i, x10r, x10i, x11r, x11i = parts
    frob = (x00r * x00r + x00i * x00i + x01r * x01r + x01i * x01i
            + x10r * x10r + x10i * x10i + x11r * x11r + x11i * x11i)
    det_r = x00r * x11r - x00i * x11i - x01r * x10r + x01i * x10i
    det_i = x00r * x11i + x00i * x11r - x01r * x10i - x01i * x10r
    # ||2X||_F^2 + 2|det 2X| is four times the radicand, so its root is 2(s1 + s2)
    return sqrt(frob + 2.0 * sqrt(det_r * det_r + det_i * det_i))


def _dephasing_distance(blocks: list[list[complex]], theta, phi) -> float | np.ndarray:
    """Trace norm of rho minus its first-qubit dephasing along (theta, phi).

    Takes rho as its :func:`_first_qubit_blocks` and works for any
    two-qubit state.  The norm is 2 sqrt(||X||_F^2 + 2|det X|) for the
    2x2 block X = (<u| x I) rho (|v> x I) in the measured basis {u, v},
    and 2 e^{i phi} X = sin(theta) D + (1 + cos theta) e^{i phi} B
    - (1 - cos theta) e^{-i phi} C (docs/decisions.md §4).  Only real
    elementwise products and sums run, so an angle array gives the same
    bits as per-angle scalar calls; the result has the angles' shape.
    """
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    return _disturbance(blocks, ct, st, cp, sp, np.sqrt)[()]


def _point_distance(blocks: list[list[complex]], theta: float, phi: float) -> float:
    """:func:`_dephasing_distance` at one angle pair, on Python floats.

    cos and sin run through the same numpy ufuncs as the grid's; the rest
    is float arithmetic, several times cheaper than numpy scalars and
    bit-identical to them.
    """
    return _disturbance(
        blocks,
        float(np.cos(theta)), float(np.sin(theta)),
        float(np.cos(phi)), float(np.sin(phi)),
        math.sqrt,
    )


# Nelder-Mead coefficients (reflection, expansion, contraction, shrink),
# the initial simplex's relative and zero-coordinate steps, and the stop
# rules of the oracle's refinement
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
_NM_XATOL, _NM_FATOL, _NM_MAXITER = 1e-10, 1e-13, 600


def _nelder_mead(f, x0: float, y0: float) -> tuple[tuple[float, float], float, int]:
    """Minimize f(x, y) by a 2-D Nelder-Mead simplex; (best vertex, min value, evaluations).

    A step-for-step port of scipy 1.17's non-adaptive
    ``minimize(method="Nelder-Mead")`` with ``xatol``, ``fatol`` and
    ``maxiter`` set to the ``_NM_*`` constants and no evaluation limit:
    the same initial simplex, the same vertex formulas in the same
    operation order, and a stable sort, which is what ``np.argsort`` does
    on three values (ties included).  On Python floats it gives scipy's
    bits (``tests/test_oracles.py`` checks this) at a fraction of its
    bookkeeping.
    """
    start = [
        (x0, y0),
        ((1 + _NM_NONZDELT) * x0 if x0 != 0 else _NM_ZDELT, y0),
        (x0, (1 + _NM_NONZDELT) * y0 if y0 != 0 else _NM_ZDELT),
    ]
    # (value, vertex) pairs, kept sorted by value
    sim = sorted(((f(*v), v) for v in start), key=itemgetter(0))
    nfev = 3
    for _ in range(1, _NM_MAXITER):
        (f0, (x0, y0)), (f1, (x1, y1)), (f2, (x2, y2)) = sim
        if (
            abs(x1 - x0) <= _NM_XATOL and abs(y1 - y0) <= _NM_XATOL
            and abs(x2 - x0) <= _NM_XATOL and abs(y2 - y0) <= _NM_XATOL
            and abs(f0 - f1) <= _NM_FATOL and abs(f0 - f2) <= _NM_FATOL
        ):
            break
        xb, yb = (x0 + x1) / 2, (y0 + y1) / 2
        xr = ((1 + _NM_RHO) * xb - _NM_RHO * x2, (1 + _NM_RHO) * yb - _NM_RHO * y2)
        fxr = f(*xr)
        nfev += 1
        shrink = False
        if fxr < f0:
            xe = ((1 + _NM_RHO * _NM_CHI) * xb - _NM_RHO * _NM_CHI * x2,
                  (1 + _NM_RHO * _NM_CHI) * yb - _NM_RHO * _NM_CHI * y2)
            fxe = f(*xe)
            nfev += 1
            sim[2] = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < f1:
            sim[2] = (fxr, xr)
        elif fxr < f2:
            xc = ((1 + _NM_PSI * _NM_RHO) * xb - _NM_PSI * _NM_RHO * x2,
                  (1 + _NM_PSI * _NM_RHO) * yb - _NM_PSI * _NM_RHO * y2)
            fxc = f(*xc)
            nfev += 1
            if fxc <= fxr:
                sim[2] = (fxc, xc)
            else:
                shrink = True
        else:
            xcc = ((1 - _NM_PSI) * xb + _NM_PSI * x2, (1 - _NM_PSI) * yb + _NM_PSI * y2)
            fxcc = f(*xcc)
            nfev += 1
            if fxcc < f2:
                sim[2] = (fxcc, xcc)
            else:
                shrink = True
        if shrink:
            shrunk = ((x0 + _NM_SIGMA * (x - x0), y0 + _NM_SIGMA * (y - y0))
                      for x, y in ((x1, y1), (x2, y2)))
            sim[1:] = [(f(*v), v) for v in shrunk]
            nfev += 2
        sim.sort(key=itemgetter(0))
    return sim[0][1], min(v for v, _ in sim), nfev


def tdd_measurement_oracle(rho: np.ndarray, n_theta: int = 61, n_phi: int = 48) -> float:
    """Discord as the minimal disturbance by a first-qubit projective measurement.

    Minimizes ||rho - Pi(rho)||_1 over all Bloch-sphere measurement
    directions with a two-angle grid followed by a local Nelder-Mead
    refinement from the grid's best angle pair, and keeps the smaller of
    the two minima.  Grid and simplex evaluate the same formula on rho's
    blocks; the simplex is :func:`_nelder_mead`, scipy's algorithm ported
    bit for bit onto Python floats, so no scipy module loads.
    """
    blocks = _first_qubit_blocks(rho)
    tt, pp = np.meshgrid(
        np.linspace(0.0, np.pi, n_theta),
        np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False),
        indexing="ij",
    )
    vals = _dephasing_distance(blocks, tt.ravel(), pp.ravel())
    i = int(vals.argmin())
    _, fun, _ = _nelder_mead(
        lambda theta, phi: _point_distance(blocks, theta, phi), float(tt.flat[i]), float(pp.flat[i])
    )
    return float(min(vals[i], fun))


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

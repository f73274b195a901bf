"""Six correlation measures on two-qubit X states, raw and normalized.

Every state this toolkit produces is an X state with real coherences,
so six numbers fix it: the populations (a, b, c, d) = (rho11, rho22,
rho33, rho44) and the coherences z = rho14, w = rho23.  Each measure is
a closed form in those six numbers (``docs/decisions.md`` section 2
derives them); :func:`x_entries` extracts and validates them, and input
off the real X pattern is refused rather than approximated.  Every
measure takes one state or a ``(..., 4, 4)`` stack.  The dense 4x4
routes live on as independent oracles in ``oracles.py``.

:func:`x_correlation_vector` takes the six numbers themselves, of one
state or of a stack, and gives all six measures as a
:class:`CorrelationVector`, with every entropic term in one x log2 x pass
and S(rho) computed once (``docs/decisions.md`` section 2.8); the
unprotected sweep calls it on numbers that never were a matrix.
:func:`correlation_vector` is :func:`x_entries`, then that.  Only
:func:`concurrence` (the optimizer's grid) and
:func:`trace_distance_discord` (``verify``'s oracle check) stand alone.
:func:`normalize` rescales each measure by its anchors in
``DEFAULT_NORMALIZATION``, one more ``CorrelationVector``, of (maximum,
classical limit) pairs.

All logarithms are base 2, so entropic quantities are in bits and the
dense-coding capacity peaks at 2.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import NumericalContractError, UnsupportedStateError
from .states import _X_MASK, X_STATE_TOL

_CLAMP = 1e-12
_TINY = 2.2250738585072014e-308  # smallest normal double; stands in for x = 0 under log2

# What x_entries gathers, as flat indices 4i + j of a (..., 16) view: row 0
# holds entries on or above the diagonal and row 1 their mirrors.  The first
# four columns are the upper entries off the X pattern, so the two rows hold
# all eight; then come a, b, c, d and the coherences z = rho14, w = rho23.
_UPPER = [(i, j) for i, j in zip(*np.nonzero(~_X_MASK)) if i < j]
_UPPER += [(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (1, 2)]
_PAIRS = np.array([[4 * i + j for i, j in _UPPER], [4 * j + i for i, j in _UPPER]])
_PAIRS.flags.writeable = False

#: the slices of x_correlation_vector's x log2 x pass that sum to an entropy;
#: the ten steering terms follow them
_ENTROPY_GROUPS = ((0, 2), (2, 6), (6, 10), (10, 14))


class CorrelationVector(NamedTuple):
    """The six measures of one state (floats) or of a stack (arrays).

    The field names, in this order, are the measure columns of every
    sweep table and its CSV.
    """

    chi: float | np.ndarray
    fidelity: float | np.ndarray
    concurrence: float | np.ndarray
    qs: float | np.ndarray
    tdd: float | np.ndarray
    jsd: float | np.ndarray


# Per-measure (maximum, classical limit) anchors.  Normalized value =
# (raw - classical) / (maximum - classical): 1 at the maximum and 0 at the
# classical limit; negative values are allowed and physically inconsequential.
DEFAULT_NORMALIZATION = CorrelationVector(
    chi=(2.0, 1.0),
    fidelity=(1.0, 2.0 / 3.0),
    concurrence=(1.0, 0.0),
    qs=(6.0, 2.0),
    tdd=(1.0, 0.0),
    jsd=(0.56, 0.0),
)


def x_entries(rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """The six numbers (a, b, c, d, z, w) of a real X state, or of a stack.

    Raises :class:`NumericalContractError` for a shape other than
    ``(..., 4, 4)``, a NaN or infinite entry (named by its index) or a
    deviation from Hermiticity, and :class:`UnsupportedStateError` for
    entries off the X pattern or imaginary parts of the coherences; each
    deviation is allowed up to ``X_STATE_TOL``.  A float64 or complex128
    array is read as it is; any other input is converted to complex first.
    """
    rho = np.asarray(rho)
    if rho.dtype not in (np.float64, np.complex128):
        rho = rho.astype(complex)
    if rho.shape[-2:] != (4, 4):
        raise NumericalContractError(f"expected (..., 4, 4) states, got shape {rho.shape}")
    pairs = rho.reshape(rho.shape[:-2] + (16,))[..., _PAIRS]
    upper = pairs[..., 0, :]
    # rho - rho^H is anti-Hermitian, so its upper triangle holds its largest
    # modulus; every entry is in a pair, so a NaN or an inf anywhere makes it
    # NaN or inf, and each check is written so that a NaN fails it.  inf - inf
    # is such a NaN: the error below reports it, so numpy need not warn of it
    with np.errstate(invalid="ignore", over="ignore"):
        herm_dev = np.abs(upper - pairs[..., 1, :].conj()).max()
    if not herm_dev <= X_STATE_TOL:
        bad = np.argwhere(~np.isfinite(rho))
        if len(bad):
            raise NumericalContractError(f"non-finite input at entry {tuple(bad[0].tolist())}")
        raise NumericalContractError(f"non-Hermitian input (deviation {herm_dev:.3e})")
    if not np.abs(pairs[..., :4]).max() <= X_STATE_TOL:
        raise UnsupportedStateError("X-state formula fed a non-X state")
    imag = np.abs(upper[..., 8:].imag).max()
    if not imag <= X_STATE_TOL:
        raise UnsupportedStateError(f"X-state coherences must be real (imaginary part {imag:.3e})")
    # [()] turns the entries of one state into scalars, and leaves arrays as they are
    return tuple(upper[..., k].real[()] for k in range(4, 10))


def _scalar(x: np.ndarray) -> float | np.ndarray:
    return float(x) if np.ndim(x) == 0 else x


def _xlog2x(terms) -> np.ndarray:
    """x * log2(x) for each of the stacked terms, with 0 log 0 := 0.

    Arguments in [-1e-12, 0) count as 0; anything lower raises.
    """
    x = np.asarray(terms)
    if x.min() < -_CLAMP:
        raise NumericalContractError(f"entropy argument {x.min():.3e} below -1e-12")
    x = np.maximum(x, 0.0)
    return x * np.log2(np.maximum(x, _TINY))


def _x_spectrum(a, b, c, d, z, w) -> tuple[np.ndarray, ...]:
    """The four eigenvalues: those of the (a, z, d) and the (b, w, c) blocks."""
    m14, r14 = (a + d) / 2.0, np.sqrt(np.square((a - d) / 2.0) + np.square(z))
    m23, r23 = (b + c) / 2.0, np.sqrt(np.square((b - c) / 2.0) + np.square(w))
    return m14 + r14, m14 - r14, m23 + r23, m23 - r23


def _concurrence(a, b, c, d, z, w):
    gap14 = np.abs(z) - np.sqrt(np.maximum(b * c, 0.0))
    gap23 = np.abs(w) - np.sqrt(np.maximum(a * d, 0.0))
    return 2.0 * np.maximum(0.0, np.maximum(gap14, gap23))


def _fef(a, b, c, d, z, w):
    """Fully entangled fraction: for a real X state, the largest Bell-state overlap."""
    return np.maximum((a + d) / 2.0 + np.abs(z), (b + c) / 2.0 + np.abs(w))


def _discord(a, b, c, d, z, w):
    # only the squares of the transverse correlations 2(w + z), 2(w - z)
    # enter, ordered so that the larger is gamma1
    sq_plus, sq_minus = np.square(2.0 * (w + z)), np.square(2.0 * (w - z))
    g1sq, g2sq = np.maximum(sq_plus, sq_minus), np.minimum(sq_plus, sq_minus)
    g3sq = np.square(1.0 - 2.0 * (b + c))
    x_a3 = 2.0 * (a + b) - 1.0
    big = np.maximum(g3sq, g2sq + np.square(x_a3))
    small = np.minimum(g3sq, g1sq)
    denom = big - small + g1sq - g2sq
    degenerate = np.abs(denom) < 1e-12
    ratio = np.where(
        degenerate, g1sq, (g1sq * big - g2sq * small) / np.where(degenerate, 1.0, denom)
    )
    if (ratio < -_CLAMP).any():
        raise NumericalContractError(f"negative discord radicand {ratio.min():.3e}")
    return 0.5 * np.sqrt(np.maximum(ratio, 0.0))


def _steering_terms(a, b, c, d, z, w) -> tuple:
    """The ten x log2 x arguments of the entropic steering inequality's left-hand side."""
    c1, c2 = 2.0 * (w + z), 2.0 * (w - z)
    c3 = a + d - b - c
    r_marg = a + b - d - c
    s_marg = a - d - b + c
    return (
        1.0 + c1, 1.0 - c1, 1.0 + c2, 1.0 - c2,
        1.0 + r_marg, 1.0 - r_marg,
        1.0 + c3 + r_marg + s_marg,
        1.0 + c3 - r_marg - s_marg,
        1.0 - c3 - r_marg + s_marg,
        1.0 - c3 + r_marg - s_marg,
    )


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of an X state, 2 max(0, |w| - sqrt(ad), |z| - sqrt(bc)).

    A separable X state gets an exact 0.  Accepts a stack of states with
    shape (..., 4, 4) and then returns an array.
    """
    return _scalar(_concurrence(*x_entries(rho)))


def trace_distance_discord(rho: np.ndarray) -> float | np.ndarray:
    """Analytic trace-norm discord of an X state.

    The transverse correlations gamma1, gamma2 = 2(w + z), 2(w - z)
    enter ordered as |gamma1| >= |gamma2|, with gamma3 = 1 - 2(b + c)
    and the local imbalance x = 2(a + b) - 1.  When the max/min branches
    coincide the general expression is 0/0; the limit along the
    degenerate family (all four branch arguments equal, e.g.
    Bell-diagonal states) is |gamma1|/2 and is returned instead.
    """
    return _scalar(_discord(*x_entries(rho)))


def x_correlation_vector(x) -> CorrelationVector:
    """All six measures of the X state with the six numbers x = (a, b, c, d, z, w).

    The numbers are floats for one state, or arrays of one shape for a
    stack, as :func:`x_entries` returns them; they are taken as given,
    with no check.  Every entropic term goes through one x log2 x pass:
    the populations a + c, b + d of the second qubit, the spectrum of rho,
    shared by the dense coding and the JSD, the spectra at (z/2, w/2) and
    at (0, 0), and the ten steering terms.  Each group is summed as on its
    own, so the fields equal those of separate passes bit for bit.
    """
    a, b, c, d, z, w = x
    t = _xlog2x((
        a + c, b + d,
        *_x_spectrum(a, b, c, d, z, w),
        *_x_spectrum(a, b, c, d, z / 2.0, w / 2.0),
        *_x_spectrum(a, b, c, d, 0.0, 0.0),
        *_steering_terms(a, b, c, d, z, w),
    ))
    # Shannon entropies in bits: of the marginal, of rho, of (rho + rho_d)/2 and of rho_d
    h_marg, s_rho, s_mean, s_diag = (-t[i:j].sum(axis=0) for i, j in _ENTROPY_GROUPS)
    steer = t[14:]
    # Holevo quantity 1 + H(a + c) - S(rho) of the four equal-weight Pauli
    # encodings of the first qubit, whose mixture is I/2 x diag(a + c, b + d)
    chi = 1.0 + h_marg - s_rho
    # entropic steering: above 2 certifies steering, 6 on Bell
    qs = (steer[0] + steer[1] + steer[2] + steer[3] - steer[4] + steer[5]
          + 0.5 * (steer[6] + steer[7] + steer[8] + steer[9]))
    tdd = _discord(*x)
    # JSD coherence: the root of the entropic divergence of rho and its
    # diagonal rho_d, whose mean is the X state with coherences z/2, w/2.
    # S(rho_d) = H(a, b, c, d) is taken through the same spectrum formula,
    # so an incoherent state (z = w = 0) gets an exact 0; ~0.56 on Bell
    radicand = s_mean - s_rho / 2.0 - s_diag / 2.0
    if (radicand < -_CLAMP).any():
        raise NumericalContractError(f"coherence radicand {radicand.min():.3e}")
    return CorrelationVector(
        chi=_scalar(chi),
        fidelity=_scalar((1.0 + 2.0 * _fef(*x)) / 3.0),
        concurrence=_scalar(_concurrence(*x)),
        qs=_scalar(qs),
        tdd=_scalar(tdd),
        jsd=_scalar(np.sqrt(np.maximum(radicand, 0.0))),
    )


def correlation_vector(rho: np.ndarray) -> CorrelationVector:
    """All six measures of one X state or of a ``(..., 4, 4)`` stack, validated once.

    :func:`x_entries`, then :func:`x_correlation_vector`.  Fields are
    floats for one state and arrays for a stack; each array entry equals
    the field of that state taken on its own.
    """
    return x_correlation_vector(x_entries(rho))


def normalize(v: CorrelationVector) -> CorrelationVector:
    """Map each measure to (raw - classical)/(max - classical), by DEFAULT_NORMALIZATION.

    Takes the float fields of one state or the array fields of a stack.
    """
    return CorrelationVector(
        *(_scalar((x - classical) / (maximum - classical))
          for x, (maximum, classical) in zip(v, DEFAULT_NORMALIZATION))
    )

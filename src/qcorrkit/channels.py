"""Amplitude damping with memory and the measurement/reversal pipeline.

The two-qubit channel interpolates between independent single-qubit
amplitude damping (memory eta = 0) and fully correlated damping (eta = 1),
where both excitations decay together or not at all.  Optional protection
wraps the channel between a weak measurement of strength q (applied before
the noise) and a measurement reversal of strength r (applied after).  The
Kraus sums that define these steps run as entry maps on (..., 4, 4) stacks:
damping scales entries and moves decayed weight onto the ground block, and
the diagonal, non-unitary measurements rescale entries.  The measured state
is renormalized and the discarded trace is reported as the success
probability of the probabilistic protocol.

The same maps also run on the six numbers (a, b, c, d, z, w) of an X state
with real coherences: :func:`_x_measured` is a diagonal measurement and
:func:`_x_damped` the channel.  Each takes every step of its entry map on
each number, in the same order, so both routes give the same bits
(``docs/decisions.md`` section 1.1); they use arithmetic operators only,
so Python floats and numpy arrays both pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import DegenerateMeasurementError, _unit_interval

_DEGENERATE_TRACE = 1e-14


class WmrMode(str, Enum):
    """Where the measurement/reversal pair acts."""

    NONE = "none"
    ONE_QUBIT = "wm1"   # second qubit only
    TWO_QUBIT = "wm2"   # equal strengths on both qubits


@dataclass(frozen=True)
class ChannelParams:
    """Damping strength p and memory parameter eta, both in [0, 1].

    Either may be an array; every entry is checked.
    """

    p: float | np.ndarray
    eta: float | np.ndarray = 0.0

    def __post_init__(self):
        _unit_interval("p", self.p, closed=True)
        _unit_interval("eta", self.eta, closed=True)


@dataclass(frozen=True)
class WmrParams:
    """Measurement strength q, reversal strength r, and placement mode.

    Strengths live in [0, 1): strength 1 annihilates the post-measurement
    state.  In two-qubit mode the same strength acts on both qubits.
    Either strength may be an array; every entry is checked.
    """

    q: float | np.ndarray
    r: float | np.ndarray
    mode: WmrMode = WmrMode.TWO_QUBIT

    def __post_init__(self):
        _unit_interval("q", self.q, closed=False)
        _unit_interval("r", self.r, closed=False)


@dataclass(frozen=True)
class PipelineOutput:
    """Renormalized evolved state plus the trace discarded on the way."""

    state: np.ndarray
    success_probability: float | np.ndarray


def _outer(factors: np.ndarray) -> np.ndarray:
    return factors[..., :, None] * factors[..., None, :]


def apply_ad_uncorrelated(rho: np.ndarray, p: float | np.ndarray) -> np.ndarray:
    """Memoryless two-qubit amplitude damping: each qubit damped on its own.

    Damping one qubit is an entry map: entry (i, j) scales by sqrt(1 - p)
    once per excitation of that qubit in i and in j, and p times its
    excited block lands on its ground block.  The first qubit is damped,
    then the second.  An array ``p`` broadcasts against the leading dims
    of ``rho``.
    """
    p = _unit_interval("p", p, closed=True)
    factors = np.ones((2,) + p.shape + (4,))
    s = np.sqrt(1.0 - p)[..., None]
    factors[0, ..., 2:] = s    # |1x>: first qubit excited
    factors[1, ..., 1::2] = s  # |x1>: second qubit excited
    first, second = _outer(factors)
    p = p[..., None, None]
    out = rho * first
    ground = out[..., :2, :2]  # a view: += writes through, with no copy back
    ground += p * rho[..., 2:, 2:]
    damped = out * second
    ground = damped[..., ::2, ::2]
    ground += p * out[..., 1::2, 1::2]
    return damped


def apply_cad(rho: np.ndarray, ch: ChannelParams) -> np.ndarray:
    """Partially correlated damping: (1-eta) * uncorrelated + eta * correlated.

    The correlated branch damps only the doubly excited amplitude and
    sends the weight p of |11><11| to |00><00|.  Accepts (..., 4, 4)
    stacks; array p and eta broadcast against their leading dims.  Where
    eta = 0 the result is exactly the uncorrelated map.
    """
    p, eta = np.asarray(ch.p, dtype=float)[()], np.asarray(ch.eta, dtype=float)[..., None, None]
    out = (1.0 - eta) * apply_ad_uncorrelated(rho, p)
    if np.count_nonzero(eta):  # the correlated branch only matters where there is memory
        factors = np.ones(p.shape + (4,))
        factors[..., 3] = np.sqrt(1.0 - p)
        corr = rho * _outer(factors)
        ground = corr[..., :1, :1]
        ground += p[..., None, None] * rho[..., 3:, 3:]
        out += eta * corr
    return out


def wm_diagonal(q: float | np.ndarray, mode: WmrMode) -> np.ndarray:
    """Diagonal of the weak-measurement operator; an array q stacks one per entry.

    Mode NONE measures nothing and has no diagonal: it raises ``ValueError``.
    """
    sq = np.sqrt(1.0 - q)
    diag = np.ones(np.shape(q) + (4,))
    if mode is WmrMode.TWO_QUBIT:
        diag[..., 1] = sq
        diag[..., 2] = sq
        diag[..., 3] = 1.0 - q
    elif mode is WmrMode.ONE_QUBIT:
        diag[..., 1::2] = sq[..., None]
    else:
        raise ValueError(f"mode {mode!r} has no measurement diagonal")
    return diag


def qmr_diagonal(r: float | np.ndarray, mode: WmrMode) -> np.ndarray:
    """Reversal diagonal: the WM diagonal with |0> and |1> swapped on each measured qubit."""
    return wm_diagonal(r, mode)[..., ::-1]


def _sandwich_normalized(
    rho: np.ndarray, strength: np.ndarray, outer: np.ndarray
) -> tuple[np.ndarray, float | np.ndarray]:
    # M rho M^dag for diagonal real M is rho * (m m^T), with ``outer`` = m m^T, which
    # may stack (..., 4, 4).  Where the strength is 0, M is the identity (outer all 1),
    # and weight 1 keeps it so.  numpy divides a complex entry by a real t as
    # x * (1/t), so one reciprocal per state gives the quotient's value.  The trace
    # is summed as (a + b) + (c + d), numpy's order for a complex trace, which a
    # float stack would otherwise sum in another order (docs/decisions.md §1.1).
    out = rho * outer
    d = out.diagonal(axis1=-2, axis2=-1).real
    t = np.where(strength == 0.0, 1.0, (d[..., 0] + d[..., 1]) + (d[..., 2] + d[..., 3]))
    _check_trace(t)
    out *= (1.0 / t)[..., None, None]
    return out, t[()]


def _check_trace(t) -> None:
    if np.count_nonzero(t < _DEGENERATE_TRACE):
        raise DegenerateMeasurementError(f"post-measurement trace {np.min(t):.3e}")


def _x_measured(x, g) -> tuple[tuple, float | np.ndarray]:
    """M rho M^dag / t for M = diag(g), on the six numbers x = (a, b, c, d, z, w).

    Returns the six numbers of the measured state and its trace t.  The
    steps are those of :func:`_sandwich_normalized`: each number times
    (g_i g_j), the trace as (a + b) + (c + d), then each number times 1/t,
    so the result equals the real parts of its entry map bit for bit.  A
    trace below ``_DEGENERATE_TRACE`` raises :class:`DegenerateMeasurementError`.
    Strength 0 stays with the caller: the entry maps pass such a state on
    with weight 1 and do not renormalize it.
    """
    a, b, c, d, z, w = x
    g1, g2, g3, g4 = g
    a, b, c, d = a * (g1 * g1), b * (g2 * g2), c * (g3 * g3), d * (g4 * g4)
    z, w = z * (g1 * g4), w * (g2 * g3)
    t = (a + b) + (c + d)
    _check_trace(t)
    k = 1.0 / t
    return (a * k, b * k, c * k, d * k, z * k, w * k), t


def _x_damped(x, p, eta, sqrt) -> tuple:
    """:func:`apply_cad` on the six numbers x = (a, b, c, d, z, w).

    With s = sqrt(1 - p), where ``sqrt`` is ``math.sqrt`` for floats and
    ``np.sqrt`` for arrays: the first qubit damps, then the second, as
    :func:`apply_ad_uncorrelated` does; the result scales by (1 - eta), and
    where any eta is not 0, eta times the correlated branch of the input
    is added.  Each number takes its entry's operations in their order.
    """
    a, b, c, d, z, w = x
    s = sqrt(1.0 - p)
    ss = s * s
    a1, b1, c1, d1 = a + p * c, b + p * d, c * ss, d * ss
    a2, b2, c2, d2 = a1 + p * b1, b1 * ss, c1 + p * d1, d1 * ss
    keep = 1.0 - eta
    out = (keep * a2, keep * b2, keep * c2, keep * d2, keep * ((z * s) * s), keep * ((w * s) * s))
    if np.count_nonzero(eta):  # the correlated branch only matters where there is memory
        corr = (a + p * d, b, c, d * ss, z * s, w)
        out = tuple(u + eta * v for u, v in zip(out, corr))
    return out


def apply_wm(
    rho: np.ndarray, q: float | np.ndarray, mode: WmrMode
) -> tuple[np.ndarray, float | np.ndarray]:
    """Weak measurement of strength q; returns (renormalized state, trace).

    The returned trace is the probability weight of the kept outcome.
    ``q`` may be an array that broadcasts against the leading dims of
    ``rho``: the result then stacks one measured state and one trace per
    entry, and every entry must lie in [0, 1) and keep a nondegenerate
    trace.  Strength 0 is the identity: such an entry passes exactly,
    with weight exactly 1, and when no entry measures (all strengths 0,
    or mode NONE) the input itself returns with weight 1.
    """
    q = _unit_interval("q", q, closed=False)
    if mode is WmrMode.NONE or not np.count_nonzero(q):
        return rho, 1.0
    return _sandwich_normalized(rho, q, _outer(wm_diagonal(q, mode)))


def apply_qmr(
    rho: np.ndarray, r: float | np.ndarray, mode: WmrMode
) -> tuple[np.ndarray, float | np.ndarray]:
    """Measurement reversal of strength r; mirrors :func:`apply_wm`."""
    r = _unit_interval("r", r, closed=False)
    if mode is WmrMode.NONE or not np.count_nonzero(r):
        return rho, 1.0
    return _sandwich_normalized(rho, r, _outer(qmr_diagonal(r, mode)))


def wmr_pipeline(rho: np.ndarray, ch: ChannelParams, wmr: WmrParams) -> PipelineOutput:
    """Weak measurement, then the damping channel, then the reversal.

    With mode NONE this is the bare channel and the success probability
    is exactly 1.  Otherwise the success probability is the product of
    the two measurement traces (the channel itself is trace preserving).
    All strengths may be arrays; they broadcast together with the
    leading dims of ``rho``.
    """
    if wmr.mode is WmrMode.NONE:
        return PipelineOutput(apply_cad(rho, ch), 1.0)
    measured, t_wm = apply_wm(rho, wmr.q, wmr.mode)
    damped = apply_cad(measured, ch)
    reversed_, t_qmr = apply_qmr(damped, wmr.r, wmr.mode)
    return PipelineOutput(reversed_, t_wm * t_qmr)

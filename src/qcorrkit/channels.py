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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import DegenerateMeasurementError

_DEGENERATE_TRACE = 1e-14


class WmrMode(str, Enum):
    """Where the measurement/reversal pair acts."""

    NONE = "none"
    ONE_QUBIT = "wm1"   # second qubit only
    TWO_QUBIT = "wm2"   # equal strengths on both qubits


@dataclass(frozen=True)
class ChannelParams:
    """Damping strength p and memory parameter eta, both in [0, 1]."""

    p: float
    eta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")


@dataclass(frozen=True)
class WmrParams:
    """Measurement strength q, reversal strength r, and placement mode.

    Strengths live in [0, 1): strength 1 annihilates the post-measurement
    state.  In two-qubit mode the same strength acts on both qubits.
    """

    q: float
    r: float
    mode: WmrMode = WmrMode.TWO_QUBIT

    def __post_init__(self):
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"q={self.q} outside [0, 1)")
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"r={self.r} outside [0, 1)")


@dataclass(frozen=True)
class PipelineOutput:
    """Renormalized evolved state plus the trace discarded on the way."""

    state: np.ndarray
    success_probability: float


def _damp_qubit(rho: np.ndarray, p: float, first: bool) -> np.ndarray:
    """Amplitude damping of one qubit, as an entry map on (..., 4, 4) stacks.

    Entry (i, j) scales by sqrt(1 - p) once per excitation of the damped
    qubit in i and in j; p times the excited block lands on the ground block.
    """
    s = np.sqrt(1.0 - p)
    factors = np.array([1.0, 1.0, s, s] if first else [1.0, s, 1.0, s])
    out = rho * np.outer(factors, factors)
    if first:
        out[..., :2, :2] += p * rho[..., 2:, 2:]
    else:
        out[..., ::2, ::2] += p * rho[..., 1::2, 1::2]
    return out


def apply_ad_uncorrelated(rho: np.ndarray, p: float) -> np.ndarray:
    """Memoryless two-qubit amplitude damping: each qubit damped on its own."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    return _damp_qubit(_damp_qubit(rho, p, first=True), p, first=False)


def apply_cad(rho: np.ndarray, ch: ChannelParams) -> np.ndarray:
    """Partially correlated damping: (1-eta) * uncorrelated + eta * correlated.

    The correlated branch damps only the doubly excited amplitude and
    sends the weight p of |11><11| to |00><00|.  Accepts (..., 4, 4) stacks.
    """
    uncorr = apply_ad_uncorrelated(rho, ch.p)
    if ch.eta == 0.0:
        return uncorr
    factors = np.array([1.0, 1.0, 1.0, np.sqrt(1.0 - ch.p)])
    corr = rho * np.outer(factors, factors)
    corr[..., 0, 0] += ch.p * rho[..., 3, 3]
    return (1.0 - ch.eta) * uncorr + ch.eta * corr


def wm_diagonal(q: float, mode: WmrMode) -> np.ndarray:
    """Diagonal of the weak-measurement operator for the given placement."""
    sq = np.sqrt(1.0 - q)
    if mode is WmrMode.TWO_QUBIT:
        return np.array([1.0, sq, sq, 1.0 - q])
    return np.array([1.0, sq, 1.0, sq])


def qmr_diagonal(r: float | np.ndarray, mode: WmrMode) -> np.ndarray:
    """Reversal diagonal (1 and sqrt(1-r) swapped vs. WM); an array r stacks one per entry."""
    sr = np.sqrt(1.0 - r)
    one = np.ones_like(sr)
    if mode is WmrMode.TWO_QUBIT:
        return np.stack([1.0 - r, sr, sr, one], axis=-1)
    return np.stack([sr, one, sr, one], axis=-1)


def _sandwich_normalized(rho: np.ndarray, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # M rho M^dag for diagonal real M is an entrywise rescale; diag may stack (..., 4)
    out = rho * (diag[..., :, None] * diag[..., None, :])
    t = out.trace(axis1=-2, axis2=-1).real
    if (t < _DEGENERATE_TRACE).any():
        raise DegenerateMeasurementError(f"post-measurement trace {t.min():.3e}")
    return out / t[..., None, None], t


def apply_wm(rho: np.ndarray, q: float, mode: WmrMode) -> tuple[np.ndarray, float]:
    """Weak measurement of strength q; returns (renormalized state, trace).

    The returned trace is the probability weight of the kept outcome.
    Strength 0 (or mode NONE) is the identity and returns the input
    unchanged with weight 1.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"q={q} outside [0, 1)")
    if mode is WmrMode.NONE or q == 0.0:
        return rho, 1.0
    return _sandwich_normalized(rho, wm_diagonal(q, mode))


def apply_qmr(
    rho: np.ndarray, r: float | np.ndarray, mode: WmrMode
) -> tuple[np.ndarray, float | np.ndarray]:
    """Measurement reversal of strength r; mirrors :func:`apply_wm`.

    ``r`` may be an array of strengths: the result then stacks one
    reversed state and one trace per entry, and every entry must lie in
    [0, 1) and keep a nondegenerate trace.
    """
    r = np.asarray(r, dtype=float)
    if not ((0.0 <= r) & (r < 1.0)).all():
        raise ValueError(f"r={r} outside [0, 1)")
    if mode is WmrMode.NONE or (r.ndim == 0 and r == 0.0):
        return rho, 1.0
    return _sandwich_normalized(rho, qmr_diagonal(r, mode))


def wmr_pipeline(rho: np.ndarray, ch: ChannelParams, wmr: WmrParams) -> PipelineOutput:
    """Weak measurement, then the damping channel, then the reversal.

    With mode NONE this is the bare channel and the success probability
    is exactly 1.  Otherwise the success probability is the product of
    the two measurement traces (the channel itself is trace preserving).
    """
    if wmr.mode is WmrMode.NONE:
        return PipelineOutput(apply_cad(rho, ch), 1.0)
    measured, t_wm = apply_wm(rho, wmr.q, wmr.mode)
    damped = apply_cad(measured, ch)
    reversed_, t_qmr = apply_qmr(damped, wmr.r, wmr.mode)
    return PipelineOutput(reversed_, t_wm * t_qmr)

"""Exception hierarchy shared across the toolkit, and its two input checks.

p, eta and the state-family parameters lie in [0, 1], the strengths q and
r in [0, 1): :func:`_unit_interval` checks every one, scalar or array, and
raises a plain ``ValueError`` naming the parameter and its first bad entry.
Where a function takes one point, not a stack, :func:`_one_number` refuses
an array that is not 0-d, with a ``ValueError`` naming the parameter.
The classes below mark failures that a caller may want to handle
separately, in particular the CLI, which maps them to distinct exit codes.
"""

import numpy as np


def _unit_interval(name: str, value, closed: bool) -> np.ndarray:
    """``value`` as floats, every entry checked to lie in [0, 1] (closed) or [0, 1).

    A scalar comes back as a numpy scalar, which takes the same array
    operations as a 0-d array at a fraction of their cost.
    """
    value = np.asarray(value, dtype=float)[()]
    inside = (0.0 <= value) & ((value <= 1.0) if closed else (value < 1.0))
    if np.count_nonzero(inside) != value.size:  # a NaN is never inside
        bad = np.extract(~inside, value)[0]
        raise ValueError(f"{name}={bad} outside [0, 1{']' if closed else ')'}")
    return value


def _one_number(name: str, value):
    """``value`` as it is, refused unless it is 0-d: the caller takes one point, not a stack."""
    if np.ndim(value):
        raise ValueError(f"{name} must be a single number, got shape {np.shape(value)}")
    return value


class NumericalContractError(ArithmeticError):
    """A numerical postcondition was violated beyond its tolerance window.

    Examples: a non-Hermitian matrix passed where a Hermitian one is
    required, an array that is not a (stack of) 4x4 matrices, or a
    coherence radicand below -1e-12.
    """


class DegenerateMeasurementError(NumericalContractError):
    """A measurement sandwich produced a state of (numerically) zero trace."""


class UnsupportedStateError(ValueError):
    """The state lies outside the family an analytic formula is valid for."""


class TrainingFailure(RuntimeError):
    """A training run produced a non-finite loss and cannot continue."""

"""Exception hierarchy shared across the toolkit.

Plain ``ValueError`` is raised for out-of-range scalar parameters (damping,
measurement strengths, state-family parameters).  The classes below mark
failures that a caller may want to handle separately, in particular the CLI,
which maps them to distinct exit codes.
"""


class NumericalContractError(ArithmeticError):
    """A numerical postcondition was violated beyond its tolerance window.

    Examples: a non-Hermitian matrix passed where a Hermitian one is
    required, a coherence radicand below -1e-12, or spurious imaginary
    parts in spin-flip eigenvalues.
    """


class DegenerateMeasurementError(NumericalContractError):
    """A measurement sandwich produced a state of (numerically) zero trace."""


class UnsupportedStateError(ValueError):
    """The state lies outside the family an analytic formula is valid for."""


class ConfigurationError(ValueError):
    """An invalid configuration value, e.g. a degenerate normalization row."""


class TrainingFailure(RuntimeError):
    """A training run produced a non-finite loss and cannot continue."""

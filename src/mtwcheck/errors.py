"""Exception types shared across the package.

The split mirrors how failures are reported: configuration problems
(bad dimensions, malformed expressions) versus numerical breakdowns
(degenerate metrics, diverging solvers) that callers may want to
surface with a distinct exit status.
"""

from __future__ import annotations


class MtwError(Exception):
    """Base class for all package-specific errors."""


class FieldSyntaxError(MtwError):
    """A scalar-field expression failed to parse.

    Attributes
    ----------
    position : int
        Character offset into the source text where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DimensionError(MtwError):
    """Inputs disagree about the chart dimension."""


class DerivativeOrderError(MtwError):
    """A partial-derivative request exceeded the supported order."""


class SamplingError(MtwError):
    """A sampling plan has a count below 1 or a negative seed."""


class DiscretizationError(MtwError, ValueError):
    """A step count, step size, panel count or time grid is out of range."""


class NumericalError(MtwError):
    """Base class for runtime numerical failures."""


class MetricDegenerateError(NumericalError):
    """The metric matrix failed the positive-definiteness check."""


class CurveOverflowError(NumericalError):
    """A least-action curve's state stopped being finite during integration."""


class DegeneratePlaneError(NumericalError):
    """Sectional curvature requested for a (numerically) degenerate 2-plane."""


class RankDeficiencyError(NumericalError):
    """Orthonormalization received linearly dependent vectors."""


class ConjugatePointError(NumericalError):
    """The two-point Jacobi problem is singular (conjugate endpoint)."""


class ShootingError(NumericalError):
    """Boundary-value shooting for the action cost failed to converge."""


class CalibrationError(NumericalError):
    """Cross-method normalization constant could not be fit consistently."""


class PreconditionError(MtwError):
    """A mathematical hypothesis required by an evaluator does not hold."""

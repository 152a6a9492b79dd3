"""Exception taxonomy shared across the package."""


class EcregError(Exception):
    """Base class for all package errors."""


class IntegrabilityViolation(EcregError):
    """Tilted prior integral does not exist for the requested E."""


class RangeError(EcregError):
    """Target value lies outside the attainable range of a map."""


class NonConvergence(EcregError):
    """An iterative solve exhausted its iteration budget."""


class InfeasibleTilt(EcregError):
    """No tilt precision E makes the requested means attainable."""


class DomainError(EcregError):
    """Argument outside the mathematical domain of an operation."""


class DecompositionFailure(EcregError):
    """Matrix factorization failed (non-finite or degenerate input)."""


class VarianceCollapse(EcregError):
    """A per-coordinate posterior variance fell below the floor."""

    def __init__(self, index, value):
        self.index = int(index)
        self.value = float(value)
        super().__init__(f"variance collapsed at coordinate {self.index}: {self.value:.3e}")


class SingularHessian(EcregError):
    """Hessian (or its inverse) is numerically singular."""


class NotConverged(EcregError):
    """Operation requires a converged fit but got an unconverged one."""


class AllPointsFailed(EcregError):
    """Every grid point of a hyper-parameter search failed."""


class NonMonotoneDetected(EcregError):
    """Calibration observed a non-monotone response and could not recover."""


class ConfigError(EcregError):
    """Invalid configuration value."""


class ParseError(EcregError):
    """Malformed input file; carries row/column location when known."""

    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)


class MissingTarget(EcregError):
    """Designated target column absent from the header."""


class NonNumericCell(ParseError):
    """A body cell failed numeric conversion."""


class DimensionMismatch(EcregError):
    """Array shapes disagree."""


class IoError(EcregError):
    """File could not be written or read."""

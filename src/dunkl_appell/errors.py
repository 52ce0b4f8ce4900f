"""Exception types shared across the package."""


class DunklApproxError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DunklApproxError, ValueError):
    """A parameter lies outside the mathematically admissible range."""


class RangeError(DunklApproxError, OverflowError):
    """A computation left the representable floating-point range."""


class NotAppellGeneratorError(DunklApproxError, ValueError):
    """The proposed generating series has a vanishing constant term."""


class NormalizationError(DunklApproxError, ValueError):
    """The generating series evaluates to a non-positive value at 1."""


class PositivityViolationError(DunklApproxError, ArithmeticError):
    """A materially negative operator weight appeared; the family is inadmissible."""

    def __init__(self, message, index=None, weight=None):
        super().__init__(message)
        self.index = index
        self.weight = weight


class TruncationFailureError(DunklApproxError, ArithmeticError):
    """A weight window reached its term limit with its tail bound unmet."""


class TranscriptionError(DunklApproxError):
    """Two algebraically identical moment formulas disagreed numerically."""


class EvaluationError(DunklApproxError, ValueError):
    """A target function returned a non-finite value at an operator node."""


class ConfigurationError(DunklApproxError, ValueError):
    """A run configuration is inconsistent or incomplete."""

"""Exception types shared across the package."""


class KrflowError(Exception):
    """Base class for all package errors."""


class ConfigError(KrflowError):
    """Invalid grid size, dimension, or run configuration."""


class NotInPotentialSpace(KrflowError):
    """The candidate potential fails the metric positivity test; ``min_ahat``
    and ``min_bhat`` are the ratios' minima there (None when not known)."""

    def __init__(self, message, min_ahat=None, min_bhat=None):
        super().__init__(message)
        self.min_ahat = min_ahat
        self.min_bhat = min_bhat


class ExpressionMismatch(KrflowError):
    """Two formulas for the same quantity disagree beyond tolerance."""


class DivergentIntegrand(KrflowError):
    """An integrand's endpoint extrapolation exceeded the magnitude bound, or
    a quadrature that must be positive and finite is not."""


class StepRejected(NotInPotentialSpace):
    """A flow step left the positive cone, or its step matrix was singular
    (then both minima are None); the caller should halve dt."""


class FlowAborted(KrflowError):
    """Adaptive stepping underflowed while trying to restore positivity.

    ``trace`` holds the flow's records, counts and rejections up to the
    abort (None when not known).
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace

"""Exception types shared across the package."""


class KrflowError(Exception):
    """Base class for all package errors."""


class ConfigError(KrflowError):
    """Invalid grid size, dimension, or run configuration."""


class NotInPotentialSpace(KrflowError):
    """The candidate potential fails the metric positivity test."""


class ExpressionMismatch(KrflowError):
    """Two formulas for the same quantity disagree beyond tolerance."""


class DivergentIntegrand(KrflowError):
    """Endpoint extrapolation of an integrand exceeded the magnitude bound."""


class StepRejected(KrflowError):
    """A flow step left the positive cone; the caller should halve dt.

    ``min_ahat`` and ``min_bhat`` are the positivity ratios' minima at the
    state that failed (None when not known).
    """

    def __init__(self, message, min_ahat=None, min_bhat=None):
        super().__init__(message)
        self.min_ahat = min_ahat
        self.min_bhat = min_bhat


class FlowAborted(KrflowError):
    """Adaptive stepping underflowed while trying to restore positivity.

    ``trace`` holds the flow's records, counts and rejections up to the
    abort (None when not known).
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace

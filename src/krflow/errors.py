"""Exception types shared across the package, and the integer test of
configuration fields."""

import numbers


class KrflowError(Exception):
    """Base class for all package errors."""


class ConfigError(KrflowError, ValueError):
    """Invalid grid size, dimension or run configuration, or a nodal array of
    the wrong shape for its grid; also a ValueError, like any bad argument."""


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
    """A non-finite or out-of-bound value where an integral or a derivative
    needs a finite one: an extrapolated endpoint, a quadrature or a node."""


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


def is_int(value):
    """True for a Python or numpy integer; False for a bool, a float or any
    other value, which a configuration's integer field rejects."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)

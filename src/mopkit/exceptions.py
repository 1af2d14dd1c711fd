"""Exception types shared across the toolkit."""


class MopkitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(MopkitError):
    """Bad argument, config, or schema violation."""


class ConstructionError(MopkitError):
    """A weight system cannot be built from the given pieces."""


class DomainError(MopkitError):
    """An evaluation point lies outside the allowed domain."""


class NumericError(MopkitError):
    """A numerical procedure failed to reach its target accuracy."""


class QuadratureError(NumericError):
    """Adaptive quadrature did not converge within its budget.

    Carries the best available estimate and the achieved error bound.
    """

    def __init__(self, message, estimate=None, error_estimate=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class NonNormalIndexError(NumericError):
    """The moment determinant vanishes: the multi-index is not normal."""


class PrecisionExhausted(NumericError):
    """The top precision rung could not keep enough digits of an answer."""


class SingularEnergyError(NumericError):
    """Coincident charges with no separation floor give infinite energy."""


class VerificationFailure(MopkitError):
    """A verification run found a failed check."""

"""The data a config describes: intervals, weight family specs and the degree cap.

Config validation needs only this module, which imports no numpy; ``weights``
and ``mop`` re-export its names.
"""

import math
from dataclasses import dataclass

from .exceptions import ConstructionError, ValidationError

FAMILIES = ("constant", "jacobi", "exp_poly")
MAX_TOTAL_DEGREE = 30


def _finite(*values):
    """True when every value is a finite real (not None, a str, a complex or a huge int)."""
    try:
        return all(map(math.isfinite, values))
    except (TypeError, OverflowError):
        return False


@dataclass(frozen=True)
class Interval:
    """Finite closed interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not _finite(self.a, self.b):
            raise ConstructionError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ConstructionError(f"empty interval {self}")

    @property
    def length(self):
        return self.b - self.a

    @property
    def mid(self):
        return 0.5 * (self.a + self.b)

    def contains(self, x, tol=0.0):
        return self.a - tol <= x <= self.b + tol

    def gap_to(self, other):
        """Distance between the two intervals (0 when they overlap)."""
        return max(other.a - self.b, self.a - other.b, 0.0)

    def __str__(self):
        return f"[{self.a}, {self.b}]"


def overlapping_pair(intervals):
    """The first two intervals, in increasing order, whose interiors overlap
    (touching ends do not), or None."""
    ivs = sorted(intervals, key=lambda iv: iv.a)
    return next(((left, right) for left, right in zip(ivs[:-1], ivs[1:]) if left.b > right.a),
                None)


@dataclass(frozen=True)
class WeightSpec:
    """Parametrized weight family attached to an interval."""

    family: str
    interval: Interval
    alpha: float = 0.0
    beta: float = 0.0
    coeffs: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown weight family {self.family!r}")
        if not _finite(self.alpha, self.beta, *self.coeffs):
            raise ValidationError("weight family parameters must be finite")
        if self.family == "jacobi" and (self.alpha <= -1.0 or self.beta <= -1.0):
            raise ValidationError("jacobi exponents must exceed -1 for integrability")

    @staticmethod
    def constant(a, b):
        return WeightSpec("constant", Interval(a, b))

    @staticmethod
    def jacobi(a, b, alpha, beta):
        return WeightSpec("jacobi", Interval(a, b), alpha=alpha, beta=beta)

    @staticmethod
    def exp_poly(a, b, coeffs):
        # a value that is not a finite real stays as given, for __post_init__ to reject
        return WeightSpec("exp_poly", Interval(a, b),
                          coeffs=tuple(float(c) if _finite(c) else c for c in coeffs))

"""Weight systems: Angelesco, Nikishin, and general families.

A weight is one of three families on a finite interval:

* ``constant`` -- the indicator of the interval,
* ``jacobi(alpha, beta)`` -- (b - x)^alpha (x - a)^beta with alpha, beta > -1,
* ``exp_poly(coeffs)`` -- exp(-sum_k c_k x^k).

Nikishin systems derive their higher weights as Markov (Stieltjes)
transforms of generator weights living on a chain of intervals with
alternating gaps; the transform sign is chosen from the interval order so
that every ratio w_j / w_1 is positive on the common support.

Weights are data (family spec, scale, optional Markov ratio); the float
values and the mpmath evaluator are both read off that one description.  mpmath is imported only when an mpf evaluator
is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConstructionError, DomainError, NumericError, ValidationError
from .quadrature import Rows, _nonsmooth, dyadic_breakpoints, graded_nodes, quad_with_substitution
from .specs import FAMILIES, Interval, WeightSpec, overlapping_pair  # noqa: F401 (re-exported)


class Weight:
    """Nonnegative weight on a finite interval, zero off its support.

    A weight is plain data: a family ``spec``, a positive ``scale`` and, for
    Nikishin weights, an optional Markov ``ratio`` multiplying the family
    weight.  Support, endpoint exponents (the powers of (x - a) and (b - x)
    that quadrature regularizes), float values and the mpmath evaluator are
    all derived from those fields, so every precision rung reads one
    description.
    """

    def __init__(self, spec: WeightSpec, scale: float = 1.0, ratio=None):
        self.spec = spec
        self.scale = scale
        self.ratio = ratio

    @property
    def support(self):
        return self.spec.interval

    @property
    def endpoint_exponents(self):
        s = self.spec
        return (s.beta, s.alpha) if s.family == "jacobi" else (0.0, 0.0)

    @property
    def analytic(self):
        """Whether the weight is analytic on a neighbourhood of its support:
        no end factor, and no Markov ratio or one whose generator lies at a
        positive distance (the transform is analytic off the generator)."""
        return self.endpoint_exponents == (0.0, 0.0) and (
            self.ratio is None or self.ratio.v.support.gap_to(self.support) > 0)

    @property
    def label(self):
        s = self.spec
        return (f"jacobi({s.alpha},{s.beta})" if s.family == "jacobi" else s.family) \
            + "*scaled" * (self.scale != 1.0) + "*markov" * (self.ratio is not None)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_spec(spec: WeightSpec, scale: float = 1.0) -> "Weight":
        return Weight(spec, scale)

    def scaled(self, c: float) -> "Weight":
        if c <= 0:
            raise ValidationError("scale factor must be positive")
        return Weight(self.spec, self.scale * c, self.ratio)

    # -- evaluation --------------------------------------------------------

    def _raw(self, x):
        s = self.spec
        if s.family == "constant":
            out = np.full_like(x, self.scale)
        elif s.family == "jacobi":
            with np.errstate(divide="ignore"):
                out = (self.scale * np.power(s.interval.b - x, s.alpha)
                       * np.power(x - s.interval.a, s.beta))
        else:
            out = np.exp(self._family_log(x))
        return out if self.ratio is None else out * self.ratio(x)

    def _family_log(self, x):
        """log of the family weight times the scale at the float array x.
        exp_poly runs the Horner steps of ``np.polynomial.polynomial.polyval``
        inline, op for op (``c[-1] + x*0``, then ``c[-i] + c0*x``), without
        its argument handling."""
        s = self.spec
        if s.family == "constant":
            return np.full_like(x, math.log(self.scale))
        if s.family == "jacobi":
            with np.errstate(divide="ignore"):
                return (math.log(self.scale) + s.alpha * np.log(s.interval.b - x)
                        + s.beta * np.log(x - s.interval.a))
        c = s.coeffs
        c0 = c[-1] + x * 0
        for i in range(2, len(c) + 1):
            c0 = c[-i] + c0 * x
        return math.log(self.scale) - c0

    def _raw_log(self, x):
        out = self._family_log(x)
        return out if self.ratio is None else out + np.log(self.ratio(x))

    def _on_support(self, x, fill, raw):
        x = np.asarray(x, dtype=float)
        iv = self.spec.interval
        m = (x >= iv.a) & (x <= iv.b)
        if m.all():
            out = raw(x)
        else:
            out = np.full_like(x, fill)
            out[m] = raw(x[m])
        return float(out) if x.ndim == 0 else out

    def values(self, x):
        """Weight values; zero outside the support."""
        return self._on_support(x, 0.0, self._raw)

    def log_values(self, x):
        """log of the weight; -inf outside the support."""
        return self._on_support(x, -np.inf, self._raw_log)

    def mp_evaluator(self):
        """mpf-valued evaluator on the support at the current mpmath precision
        (constants are converted once, here: call it inside ``mp.workdps``)."""
        import mpmath

        s, (be, al) = mpmath.mpf(self.scale), self.endpoint_exponents
        a, b = mpmath.mpf(self.support.a), mpmath.mpf(self.support.b)
        if self.spec.family == "constant":
            fn = lambda x: s
        elif self.spec.family == "jacobi":
            al, be = mpmath.mpf(al), mpmath.mpf(be)
            fn = lambda x: s * (b - x) ** al * (x - a) ** be
        else:
            cs = [mpmath.mpf(c) for c in self.spec.coeffs][::-1]
            fn = lambda x: s * mpmath.exp(-mpmath.polyval(cs, x))
        if self.ratio is None:
            return fn
        ratio = self.ratio.mp_evaluator()
        return lambda x: fn(x) * ratio(x)

    def __repr__(self):
        return f"Weight({self.label} on [{self.support.a}, {self.support.b}])"


# ---------------------------------------------------------------------------
# Stieltjes / Markov transforms
# ---------------------------------------------------------------------------

def _sign_value(sign):
    if sign in ("plus", 1, +1.0):
        return 1.0
    if sign in ("minus", -1, -1.0):
        return -1.0
    raise ValidationError(f"sign must be 'plus' or 'minus', got {sign!r}")


def stieltjes_transform(v: Weight, x: float, sign="plus", *, tol=1e-12) -> float:
    """Evaluate +/- integral of v(y) / (x - y) dy for x off the support of v.

    Principal-value evaluation on the support is not provided: x inside or
    on the boundary raises :class:`DomainError`.
    """
    a, b = v.support.a, v.support.b
    if a <= x <= b:
        raise DomainError(f"x={x} lies inside or on the boundary of supp(v)=[{a}, {b}]")
    s = _sign_value(sign)

    def f(y):
        return v.values(y) / (x - y)

    return s * quad_with_substitution(f, a, b, v.endpoint_exponents, tol=tol)


class MarkovRatio:
    """Markov transform x -> sgn * integral v(y)/(x - y) dy on fixed panels.

    The panel/node layout is chosen once so that evaluation anywhere on the
    (separated) target interval is a single dot product, accurate to
    ~1e-13 relative.  Construction cross-checks the result against direct
    adaptive quadrature at three probe points.
    """

    ORDER = 24

    def __init__(self, v: Weight, eval_interval: Interval, sign: int, *, inner_tol=1e-13):
        self.v = v
        self.eval_interval = eval_interval
        self.sign = float(sign)
        sup = v.support
        gap = sup.gap_to(eval_interval)
        if gap <= 0.0:
            raise ConstructionError(
                "generator support and evaluation interval must be separated"
            )
        eval_right = eval_interval.a >= sup.b  # target sits to the right of supp(v)

        def breakpoints(lo, hi, side):
            # grade toward the pole: the near x-end is the image of u=1 unless
            # the right-side substitution maps u=1 to lo
            piece_gap = gap + (sup.b - hi if eval_right else lo - sup.a)
            levels = int(np.clip(np.ceil(np.log2(max((hi - lo) / piece_gap, 1.0))), 0, 48)) + 10
            return dyadic_breakpoints(levels, eval_right != (side == "right"))

        self.nodes, wq = graded_nodes(sup.a, sup.b, v.endpoint_exponents, breakpoints,
                                      self.ORDER)
        self.coeffs = wq * v.values(self.nodes) * self.sign
        self._verify(inner_tol)

    def _verify(self, inner_tol):
        iv = self.eval_interval
        for x in (iv.a, iv.mid, iv.b):
            direct = stieltjes_transform(self.v, x, "plus", tol=inner_tol) * self.sign
            got = self(np.asarray([x]))[0]
            if abs(got - direct) > max(1e-11, 1e-11 * abs(direct)):
                raise NumericError(
                    f"Markov transform panels inaccurate at x={x}: {got} vs {direct}"
                )
            if got <= 0.0:
                raise NumericError(
                    "Markov ratio is not positive on the target interval; "
                    "interval ordering is inconsistent with the sign rule"
                )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x).ravel()
        out = np.empty_like(flat)
        step = 4096
        for i in range(0, flat.size, step):
            chunk = flat[i : i + step]
            out[i : i + step] = (self.coeffs / (chunk[:, None] - self.nodes)).sum(axis=1)
        return out.reshape(np.atleast_1d(x).shape) if x.ndim else float(out[0])

    def mp_evaluator(self):
        """mpf-valued transform at the current mpmath precision: closed form
        for a constant generator, tanh-sinh quadrature of the generator's own
        evaluator otherwise."""
        import mpmath

        v, sign = self.v, mpmath.mpf(self.sign)
        c, d = mpmath.mpf(v.support.a), mpmath.mpf(v.support.b)
        if v.spec.family == "constant" and v.ratio is None:
            s = mpmath.mpf(v.scale)
            # integral of s/(x - y) over [c, d]
            return lambda x: sign * s * (mpmath.log(abs(x - c)) - mpmath.log(abs(x - d)))
        inner = v.mp_evaluator()
        return lambda x: sign * mpmath.quad(lambda y: inner(y) / (x - y), [c, d])


# ---------------------------------------------------------------------------
# Weight systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSystem:
    """p weights with supports, a kind tag, and (for Nikishin) generators."""

    kind: str
    weights: tuple
    intervals: tuple
    generators: tuple = ()

    def __post_init__(self):
        if self.kind not in ("general", "angelesco", "nikishin"):
            raise ValidationError(f"unknown system kind {self.kind!r}")
        if len(self.weights) < 1:
            raise ValidationError("a weight system needs at least one weight")
        if self.kind == "angelesco" and (pair := overlapping_pair(self.intervals)):
            raise ConstructionError("Angelesco intervals overlap: {} and {}".format(*pair))
        if self.kind == "nikishin":
            ivs = self.intervals
            for left, right in zip(ivs[:-1], ivs[1:]):
                if left.gap_to(right) <= 0.0:
                    raise ConstructionError(
                        "consecutive Nikishin intervals must be disjoint"
                    )
        # the hull and its coordinate, once: the kernel reads them at every evaluation
        segs = self.support_segments()
        hull = Interval(segs[0][0], segs[-1][1])
        object.__setattr__(self, "_hull", (hull, (hull.mid, 0.5 * hull.length)))

    @property
    def p(self):
        return len(self.weights)

    @staticmethod
    def general(weights):
        ws = tuple(weights)
        return WeightSystem("general", ws, tuple(w.support for w in ws))

    def support_segments(self):
        """The union of supports, split at every weight endpoint."""
        pts = sorted({w.support.a for w in self.weights} | {w.support.b for w in self.weights})
        segs = []
        for lo, hi in zip(pts[:-1], pts[1:]):
            mid = 0.5 * (lo + hi)
            if any(w.support.contains(mid) for w in self.weights):
                segs.append((lo, hi))
        return segs

    def segment_exponents(self, lo, hi):
        """Endpoint exponents that apply on the segment [lo, hi]: per end, the
        smallest non-smooth power among the weights ending there, else 0."""
        ea = min((w.endpoint_exponents[0] for w in self.weights
                  if w.support.a == lo and _nonsmooth(w.endpoint_exponents[0])), default=0.0)
        eb = min((w.endpoint_exponents[1] for w in self.weights
                  if w.support.b == hi and _nonsmooth(w.endpoint_exponents[1])), default=0.0)
        return ea, eb

    def support_hull(self):
        """The convex hull of the supports, computed when the system is built."""
        return self._hull[0]

    def hull_coordinate(self):
        """(c, s) of the hull coordinate t = (x - c)/s, which maps the convex
        hull [c - s, c + s] of the supports to [-1, 1]; the moment solves,
        the kernel and the linear form all work in t.  Computed when the
        system is built."""
        return self._hull[1]


def build_angelesco(specs) -> WeightSystem:
    """Weight system on pairwise (interior-)disjoint intervals.

    The intervals are relabeled in increasing order; interiors must be
    disjoint (touching endpoints are allowed).
    """
    specs = sorted(specs, key=lambda s: s.interval.a)
    weights = tuple(Weight.from_spec(s) for s in specs)
    return WeightSystem("angelesco", weights, tuple(s.interval for s in specs))


def build_nikishin(w1_spec: WeightSpec, generator_specs) -> WeightSystem:
    """Nikishin system from a base weight and a chain of generators.

    ``generator_specs`` live on the intervals Gamma_2, ..., Gamma_p; for
    p >= 3 they are themselves combined into a Nikishin system on Gamma_2
    and lifted.  The transform sign comes from the interval order, so all
    ratios w_j / w_1 are positive on Gamma_1.
    """
    gens = list(generator_specs)
    if not gens:
        raise ValidationError("a Nikishin system needs at least one generator")
    g1, g2 = w1_spec.interval, gens[0].interval  # MarkovRatio checks that they are apart
    w1 = Weight.from_spec(w1_spec)
    if len(gens) == 1:
        v_weights = (Weight.from_spec(gens[0]),)
    else:
        v_weights = build_nikishin(gens[0], gens[1:]).weights
    sign = 1 if g2.b <= g1.a else -1  # plus when Gamma_2 lies to the left
    weights = [w1]
    for v in v_weights:
        weights.append(Weight(w1.spec, w1.scale, MarkovRatio(v, g1, sign)))
    intervals = (g1,) + tuple(s.interval for s in gens)
    return WeightSystem("nikishin", tuple(weights), intervals, generators=v_weights)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def weight_quad(fn, w: Weight, *, tol=1e-12):
    """Integrate fn(x) * w(x) over the support of w (fn=None means fn=1);
    fn may return rows, which pass through as in ``adaptive_quad``."""
    if fn is None:
        f = w.values
    else:
        f = lambda x: fn(x) * w.values(x)
    return quad_with_substitution(f, w.support.a, w.support.b,
                                  w.endpoint_exponents, tol=tol)


@dataclass(frozen=True)
class MomentTable:
    """Monomial moments of every weight, raw and hull-rescaled.

    ``raw[j, k]`` is integral x^k w_j dx; ``scaled[j, k]`` is the same with
    x replaced by (x - c)/s, where [c - s, c + s] is the convex hull of the
    supports.  The rescaled entries are computed by direct quadrature (never
    by binomial transform, which cancels catastrophically); every solve,
    type I, type II and the kernel, on either rung, reads them.  Each weight
    takes one adaptive pass over its 2 (k_max + 1) rows, raw then scaled;
    ``panels[j, 0 | 1, k]`` and ``errors[j, 0 | 1, k]`` keep each row's
    accepted panels and error estimate.  ``mp_rows``
    maps a precision rung to the table's mpf rows of ``scaled`` up to
    ``k_max``; ``highprec.table_rows`` fills it, one pass per rung, and
    keeps in ``mp_quad`` per rung how each weight's row was computed.
    ``float_lu`` holds one entry, the float rung of the last moment matrix M
    that ``mop._solve`` checked, keyed by parts: the 80-bit ``lu_factor`` of
    M, its inverse and cond1 of M, so type II, type I and the kernel of one
    index factor M once.  ``mp_lu`` holds one entry, the last mpmath LU of
    M, keyed by (parts, dps), with its factors in fixed point
    (``linalg.FixedLU``), which the three solves of one index share: they
    start the ladder from one cond1 of M and so take one dps.  A copy of
    the table (``dataclasses.replace``) starts with all four empty.
    """

    system: WeightSystem
    raw: np.ndarray
    scaled: np.ndarray
    hull: Interval
    tol: float
    panels: np.ndarray
    errors: np.ndarray
    mp_rows: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    mp_quad: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    float_lu: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    mp_lu: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def k_max(self):
        return self.raw.shape[1] - 1

    @property
    def p(self):
        return self.raw.shape[0]


def powers(y, k_max):
    """The rows y ** k for k = 0..k_max, each bit for bit as that expression:
    numpy computes ``y ** k`` by a fast path for k = 0, 1 and 2 (``y ** 2``
    is ``np.square``, which can differ from ``np.power`` by an ulp), and as
    ``np.power(y, k)`` otherwise, which one broadcast call gives every row."""
    out = y ** np.arange(k_max + 1.0)[:, None]
    out[:3] = [y ** k for k in range(min(k_max + 1, 3))]
    return out


def _moment_pass(ws: WeightSystem, j: int, k_max: int, tol, bases) -> Rows:
    """The rows base(x)^k w_j dx, base by base, k = 0..k_max, of w_j
    (1-based) in one adaptive pass; each row is bit for bit its own
    ``weight_quad``.  An overflow anywhere stops the pass; the rows are then
    integrated one at a time, in order, and the first to overflow on its own
    raises :class:`NumericError` naming w_j and k, before numpy warns of it."""
    w = ws.weights[j - 1]
    with np.errstate(over="raise"):
        try:
            return weight_quad(lambda x: np.concatenate([powers(base(x), k_max) for base in bases]),
                               w, tol=tol)
        except FloatingPointError:
            pass
        out = []
        for base in bases:
            for k in range(k_max + 1):
                try:
                    out.append(weight_quad(lambda x: base(x)[None] ** k, w, tol=tol))
                except FloatingPointError:
                    raise NumericError(f"moment of order {k} of weight {j}, {w!r}, "
                                       "does not fit in float64") from None
    return Rows(*map(np.concatenate, zip(*out)))


def moments(ws: WeightSystem, j: int, k_max: int, tol: float = 1e-12) -> np.ndarray:
    """Raw moments c_k = integral x^k w_j dx for k = 0..k_max (j is 1-based),
    in one adaptive pass over w_j.  Raises :class:`NumericError` naming w_j
    and k at the first float64 overflow, before numpy warns of it."""
    if not 1 <= j <= ws.p:
        raise ValidationError(f"weight index {j} out of range 1..{ws.p}")
    return _moment_pass(ws, j, k_max, tol, (lambda x: x,)).value


def moment_table(ws: WeightSystem, k_max: int, tol: float = 1e-12) -> MomentTable:
    """Raw and hull-rescaled moments of all weights up to order k_max: one
    adaptive pass per weight over its raw and scaled rows together."""
    c, s = ws.hull_coordinate()
    # |(x - c)/s| <= 1 on the hull, so no scaled moment outgrows raw[i, 0]
    passes = [_moment_pass(ws, j, k_max, tol, (lambda x: x, lambda x: (x - c) / s))
              for j in range(1, ws.p + 1)]
    value, error, panels = (np.reshape(col, (ws.p, 2, -1)) for col in zip(*passes))
    return MomentTable(ws, value[:, 0].copy(), value[:, 1].copy(), ws.support_hull(), tol,
                       panels, error)

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
values and the mpmath evaluator are both read off that one description.
mpmath is imported only when an mpf evaluator is asked for.  The moment
tables and the Markov ratios integrate against a weight with one
Clenshaw-Curtis-Jacobi rule (``_cc_nodes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import (ConstructionError, DomainError, NumericError, QuadratureError,
                         ValidationError)
from .quadrature import (_EPS, CC_NODES, _nonsmooth, cc_levels, cc_rule, graded_panels,
                         quad_with_substitution)
from .specs import FAMILIES, Interval, WeightSpec, overlapping_pair  # noqa: F401 (re-exported)


class Weight:
    """Nonnegative weight on a finite interval, zero off its support: a
    family ``spec``, a positive ``scale`` and an optional Markov ``ratio``
    (Nikishin weights).  Support, endpoint exponents (the powers of (x - a)
    and (b - x)), float values and the mpmath evaluator all derive from
    those fields, so every precision rung reads one description."""

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
    def smooth(self):
        """The weight without its Jacobi end factor, evaluated at the rule's nodes."""
        s = self.spec
        return self if s.family != "jacobi" else Weight(
            WeightSpec.constant(s.interval.a, s.interval.b), self.scale, self.ratio)

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
    """+/- integral of v(y) / (x - y) dy for x off the support of v, by the
    adaptive rule; x inside or on the boundary raises :class:`DomainError`."""
    a, b = v.support.a, v.support.b
    if a <= x <= b:
        raise DomainError(f"x={x} lies inside or on the boundary of supp(v)=[{a}, {b}]")
    s = _sign_value(sign)

    def f(y):
        return v.values(y) / (x - y)

    return s * quad_with_substitution(f, a, b, v.endpoint_exponents, tol=tol)


class MarkovRatio:
    """Markov transform x -> sgn * integral v(y)/(x - y) dy, one sum over the
    nodes of the generator v's rule (``_cc_nodes``), N doubled until two
    levels agree at the target's point nearest v.  The nodes are offsets
    from v's end nearest the target, so x - y is a sum of two terms of one
    sign; the ratio must be positive at the target's ends and midpoint."""

    def __init__(self, v: Weight, eval_interval: Interval, sign: int):
        self.v, self.eval_interval, self.sign = v, eval_interval, float(sign)
        sup, iv = v.support, eval_interval
        if sup.gap_to(iv) <= 0.0:
            raise ConstructionError("generator support and evaluation interval must be separated")
        # the target's point nearest supp(v), and the end of supp(v) nearest it
        self.near, self.end = (iv.a, sup.b) if iv.a >= sup.b else (iv.b, sup.a)
        self.offsets, coeffs = self._rule(self.end, v.smooth._raw)
        self.coeffs = coeffs * self.sign
        if not np.all(self(np.array([iv.a, iv.mid, iv.b])) > 0.0):
            raise NumericError("Markov ratio is not positive on the target interval; "
                               "interval ordering is inconsistent with the sign rule")

    def _rule(self, end, smooth, *rung):
        """Node offsets from ``end`` and coefficients of v's rule (``_cc_nodes``)."""
        def at_near(d, c):
            terms = c / ((self.near - end) - d)
            return np.array([terms.sum()]), np.array([np.abs(terms).sum()])

        return _cc_nodes(self.v, self.eval_interval, end, at_near, smooth, *rung)[:2]

    def __call__(self, x):
        flat = np.ravel(x).astype(float)
        out = np.concatenate([(self.coeffs / ((part - self.end) - self.offsets)).sum(axis=1)
                              for part in np.split(flat[:, None], range(4096, flat.size, 4096))])
        return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])

    def mp_evaluator(self):
        """mpf-valued transform at the current mpmath precision: closed form for
        a constant generator, else the sum over its rule (``highprec.mp_rule``)."""
        import mpmath

        from .highprec import CC_GUARD, mp_rule

        v, sign = self.v, mpmath.mpf(self.sign)
        c, d = mpmath.mpf(v.support.a), mpmath.mpf(v.support.b)
        if v.spec.family == "constant" and v.ratio is None:
            s = mpmath.mpf(v.scale)
            # integral of s/(x - y) over [c, d]
            return lambda x: sign * s * (mpmath.log(abs(x - c)) - mpmath.log(abs(x - d)))
        dps = mpmath.mp.dps
        with mpmath.workprec(mpmath.mp.prec + CC_GUARD):
            end, smooth = mpmath.mpf(self.end), np.frompyfunc(v.smooth.mp_evaluator(), 1, 1)
            offsets, coeffs = self._rule(end, smooth, mp_rule, dps, mpmath.mpf(10) ** -dps)
        return lambda x: sign * mpmath.fsum(c / ((x - end) - d) for c, d in zip(coeffs, offsets))


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
    """Weight system on intervals with disjoint interiors (touching ends are
    allowed), relabeled in increasing order."""
    specs = sorted(specs, key=lambda s: s.interval.a)
    weights = tuple(Weight.from_spec(s) for s in specs)
    return WeightSystem("angelesco", weights, tuple(s.interval for s in specs))


def build_nikishin(w1_spec: WeightSpec, generator_specs) -> WeightSystem:
    """Nikishin system from a base weight and generators on Gamma_2, ...,
    Gamma_p, which for p >= 3 form a Nikishin system on Gamma_2 themselves.
    The transform sign comes from the interval order, so all ratios w_j /
    w_1 are positive on Gamma_1."""
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
    """Hull-rescaled monomial moments of every weight.

    ``scaled[j, k]`` is integral t^k w_j dx, t = (x - c)/s with [c - s, c + s]
    the convex hull of the supports, from one pass of w_j's rule over its
    k_max + 1 rows (``_cc_pass``; never by binomial transform, which cancels
    catastrophically); ``records`` keeps each pass's ``rule``, ``level`` N
    and final disagreement ``error_max``.  Every solve reads these rows;
    ``raw[j, k]``, integral x^k w_j dx, is integrated by ``moments`` when
    first read.  ``mp_rows`` maps a precision rung to the mpf rows of
    ``scaled`` (``highprec.table_rows``), and ``mp_quad`` keeps how each was
    computed.  ``float_lu`` holds the 80-bit ``lu_factor`` of the last M that
    ``mop._solve`` checked, keyed by parts, with its inverse and cond1, and
    ``mp_lu`` the last mpmath LU of M, keyed by (parts, dps), in fixed point
    (``linalg.FixedLU``): type II, type I and the kernel of one index share
    them.  A copy (``dataclasses.replace``) starts with all four empty and
    no ``raw``.
    """

    system: WeightSystem
    scaled: np.ndarray
    hull: Interval
    records: tuple
    mp_rows: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    mp_quad: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    float_lu: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    mp_lu: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def k_max(self):
        return self.scaled.shape[1] - 1

    @property
    def p(self):
        return self.scaled.shape[0]

    @cached_property
    def raw(self):
        return np.array([moments(self.system, j + 1, self.k_max) for j in range(self.p)])


def powers(y, k_max):
    """The rows y ** k for k = 0..k_max, each bit for bit as that expression:
    numpy computes ``y ** k`` by a fast path for k = 0, 1 and 2 (``y ** 2``
    is ``np.square``, which can differ from ``np.power`` by an ulp), and as
    ``np.power(y, k)`` otherwise, which one broadcast call gives every row."""
    out = y ** np.arange(k_max + 1.0)[:, None]
    out[:3] = [y ** k for k in range(min(k_max + 1, 3))]
    return out


def _cc_nodes(w: Weight, pole, origin, probe, smooth, rule=cc_rule, digits=16, tol=4 * _EPS):
    """w's Clenshaw-Curtis-Jacobi rule (``quadrature.cc_levels``) on each
    panel of its support graded toward ``pole``: the end factors a panel
    holds go into ``rule``'s weights, ``smooth`` (``Weight.smooth``'s values)
    and the others are evaluated at the nodes.  N doubles until two levels
    of ``probe(d, c)`` agree within ``tol`` of its rounding scale.  Returns
    the last node offsets d from ``origin`` and coefficients c of every
    panel, the largest N and the largest final disagreement; raises
    :class:`QuadratureError` naming w when ``CC_NODES`` are not enough."""
    a, b, (be, al) = w.support.a, w.support.b, w.endpoint_exponents
    pts, rules, level, error = graded_panels(w.support, pole, digits), [], 0, 0.0
    for p, q in zip(pts, pts[1:]):
        ends = (be if p == a else 0.0, al if q == b else 0.0)
        fn = smooth if ends == (be, al) else (
            lambda x, ea=al - ends[1], eb=be - ends[0]: smooth(x) * (b - x) ** ea * (x - a) ** eb)
        last = None
        for n, d, c in cc_levels(p, q, ends, fn, origin, rule):
            value, size = probe(d, c)
            if last is not None and (agree := np.max(np.abs(value - last) / size)) <= tol:
                break
            last = value
        else:
            raise QuadratureError(f"{CC_NODES} Clenshaw-Curtis nodes do not resolve {w!r}: "
                                  f"the last two levels differ by {float(agree):.3e}")
        rules.append((d, c))
        level, error = max(level, n), max(error, agree)
    return (*map(np.concatenate, zip(*rules)), level, float(error))


def _cc_pass(ws: WeightSystem, j: int, k_max: int, c, s):
    """The rows t^k w_j dx, t = (x - c)/s, k <= k_max, of w_j (1-based) and
    their record, in one pass of its rule (``_cc_nodes``), row k's rounding
    scale the larger of row 0's absolute sum and k + 1 times its own; raises
    :class:`NumericError` at the first order past float64, before numpy warns."""
    w = ws.weights[j - 1]

    def rows(d, cw):
        V = np.vander(d / s, k_max + 1, increasing=True)
        value = cw @ V
        bad = np.flatnonzero(~np.isfinite(value))
        if bad.size:
            raise NumericError(f"moment of order {bad[0]} of weight {j}, {w!r}, "
                               "does not fit in float64")
        size = np.abs(cw) @ np.abs(V)
        return value, np.maximum(size * np.arange(1, k_max + 2), size[0])

    with np.errstate(over="ignore", invalid="ignore"):
        d, cw, level, error = _cc_nodes(w, w.ratio and w.ratio.v.support, c, rows, w.smooth._raw)
        value = rows(d, cw)[0]
    return value, {"rule": "clenshaw-curtis", "level": level, "error_max": error}


def moments(ws: WeightSystem, j: int, k_max: int) -> np.ndarray:
    """Raw moments c_k = integral x^k w_j dx for k = 0..k_max (j is 1-based),
    in one pass of w_j's rule (``_cc_pass``)."""
    if not 1 <= j <= ws.p:
        raise ValidationError(f"weight index {j} out of range 1..{ws.p}")
    return _cc_pass(ws, j, k_max, 0.0, 1.0)[0]


def moment_table(ws: WeightSystem, k_max: int) -> MomentTable:
    """Hull-rescaled moments t^k w_j, t = (x - c)/s, of all weights up to
    order k_max, one pass of each weight's rule; on the hull [-1, 1] they
    are the raw rows bit for bit (offsets from 0.0 are the nodes)."""
    c, s = ws.hull_coordinate()
    value, records = zip(*[_cc_pass(ws, j, k_max, c, s) for j in range(1, ws.p + 1)])
    return MomentTable(ws, np.array(value), ws.support_hull(), records)

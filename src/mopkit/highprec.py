"""mpmath rung for ill-conditioned moment systems.

Hankel moment systems lose digits geometrically with the degree, and the
type I coefficients (and the kernel's coefficients M^-T) of Nikishin-like
systems grow at the rate of best rational approximation of the Markov
ratio.  Past the float rung's reach this module solves the defining systems
in mpmath, in the same hull coordinate t = (x - c)/s as the float rung.
Results round back to floats: the monic type II polynomial, the linear form
Q and the kernel K are O(1)-bounded, it is only the intermediate
coefficients that need the headroom.

One checked ladder, ``escalate``, climbs ``rung_solve``, the one mpmath
solve of the hull-scaled moment matrix M, for ``mop._solve``: type I
(M x = e_n), type II (M^T a = -b, by transposed substitution) and the
kernel (M X = I).  Each attempt reports an a-posteriori condition bound,
and its answer counts only when ``SURVIVING_DIGITS`` digits survive it.
``moment_rows`` gives the rows in t as mpf (closed forms for constant and
pure Jacobi weights, one pass of the Clenshaw-Curtis-Jacobi rule for the
rest, whose Markov ratios sum their generators' rule, ``mp_rule``), with a
record of each; ``table_rows`` keeps them on the table once per precision
rung (the dps rounded up to a multiple of ``RUNG_DIGITS``), and M is
factored once per index and dps (``MomentTable.mp_lu``), which type I,
type II and the kernel of one index share.  The rest is shared with the
float rung: ``mop._hankel_from``, ``ensemble.f_matrix``/``g_matrix`` on
object arrays of mpf, and the one LU in ``linalg``, which factors mpf
matrices in fixed point (``linalg.FixedLU``), within 2 n cond1 2^-prec of
a solve at twice the bits; the rules, node columns and sums are fixed
point too.

One ``MPForm``, f(t)^T B g(t), evaluates the kernel (B = M^-T) and the
linear form Q, which is the kernel's x^(n-1) coefficient.  It answers from
a ``ChebyshevProxy``: the form is sampled once per support segment in
mpmath, at Chebyshev nodes, and then evaluated at every point in
longdouble; the per-point mpmath path stays as the fallback and the oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import mp
from numpy.polynomial.chebyshev import chebvander

from . import linalg
from .ensemble import f_matrix, g_matrix
from .exceptions import NumericError, PrecisionExhausted
from .linalg import LD
from .mop import _hankel_from
from .quadrature import CC_NODES, cc_moments, graded_panels

#: an mpmath answer counts when log10(bound) + SURVIVING_DIGITS <= dps for
#: its a-posteriori condition bound
SURVIVING_DIGITS = 20

#: points per block in evaluation; bounds the mpf and Vandermonde temporaries
CHUNK = 64

#: type I moment rows are computed at multiples of this many digits, so
#: that solves at nearby working precisions share one pass
RUNG_DIGITS = 16

#: a Chebyshev proxy holds when its coefficients past two thirds of the
#: grid are below this fraction of its largest coefficient or value
PROXY_TAIL = 1e-14

#: y-grids of a proxy; first-kind Chebyshev points nest under tripling
PROXY_GRIDS = (16, 48, 144, 432)

#: the Clenshaw-Curtis rules, node columns and sums are fixed point, CC_GUARD
#: bits beyond mp.prec; N runs 16, 32, ... ``quadrature.CC_NODES``
CC_GUARD = 20


def working_dps(cond) -> int:
    """mpmath working precision for a system with condition estimate ``cond``:
    30 digits beyond the ones the conditioning consumes."""
    return 30 + max(0, int(np.ceil(np.log10(max(cond, 1.0)))))


def escalate(attempt, cond):
    """The checked precision ladder of type II, type I and the kernel.

    ``attempt(dps)`` returns an answer and its a-posteriori condition bound.
    The first attempt runs at ``working_dps(cond)``, for the float estimate
    ``cond``; if fewer than ``SURVIVING_DIGITS`` digits survive its bound,
    one retry runs at ``working_dps(bound)``.  Returns (dps, answer) of the
    attempt that counted, and raises :class:`PrecisionExhausted` when the
    retry falls short too.
    """
    dps = working_dps(cond)
    for retry in (False, True):
        answer, bound = attempt(dps)
        if math.log10(max(bound, 1.0)) + SURVIVING_DIGITS <= dps:
            return dps, answer
        if retry or not math.isfinite(bound):
            raise PrecisionExhausted(f"condition bound {bound:.3e} leaves fewer than "
                                     f"{SURVIVING_DIGITS} of {dps} digits")
        dps = working_dps(bound)


def _mpf(xs):
    """Object array of mpf holding the floats ``xs``."""
    return np.array([mpmath.mpf(float(x)) for x in xs], dtype=object)


def _dot(P, Q):
    """P @ Q for object arrays of mpf, one ``mpmath.fdot`` per entry."""
    return np.array([[mpmath.fdot(p, q) for q in Q.T] for p in P], dtype=object)


def _unit(x, lo, hi):
    """Float points x mapped from [lo, hi] to [-1, 1], in longdouble."""
    return (2 * np.asarray(x, dtype=LD) - lo - hi) / (hi - lo)


def _cheb_fit(x, vals, lo, hi):
    """Chebyshev coefficients on [lo, hi] (axis 0) interpolating ``vals`` at the
    float first-kind points x, corrected once for the rounding of x."""
    V = chebvander(_unit(x, lo, hi), x.size - 1)
    D = np.full((x.size, 1), LD(2) / x.size)
    D[0] /= 2
    coeffs = D * (V.T @ vals)
    return coeffs + D * (V.T @ (vals - V @ coeffs))


def _cheb_nodes(n, lo, hi):
    """The n first-kind Chebyshev points of [lo, hi]."""
    return lo + (hi - lo) * (1 + np.cos(np.pi * (np.arange(n) + 0.5) / n)) / 2


class ChebyshevProxy:
    """Longdouble stand-in for f(x, y), which mpmath evaluates per point
    (Trefethen, *Approximation Theory and Approximation Practice*, chs. 7-8).

    Per support segment, ``sample(xs, ys)`` (f at ``dps`` digits on the grid
    of ``rows`` Chebyshev points xs of the hull by float nodes ys) over the
    end factor e_S of ``segment_exponents`` is interpolated on the nested
    ``PROXY_GRIDS`` until its tail is below ``PROXY_TAIL``.  A tail that a
    refinement shrinks less than tenfold, or that outlasts the grids, sends
    the segment to ``direct(xs, ys)``.  ``records`` holds per segment the
    nodes, the tail and, if so, "direct".
    """

    def __init__(self, ws, sample, direct, dps, rows=1):
        hull = ws.support_hull()
        self.direct, self.hull, self.segments, self.records = direct, (hull.a, hull.b), [], []
        xn = _cheb_nodes(rows, *self.hull)
        for lo, hi in ws.support_segments():
            (ea, eb), tail = ws.segment_exponents(lo, hi), math.inf
            ys, vals = np.empty(0), np.empty((rows, 0), dtype=LD)
            for n in PROXY_GRIDS:  # a grid's every third node, from the second, is old
                new = _cheb_nodes(n, lo, hi)[(np.arange(n) % 3 != 1) | (ys.size == 0)]
                with mp.workdps(dps):
                    fresh = sample(xn, new)
                head = fresh.astype(float)  # longdouble as a float and its remainder
                ys, vals = np.append(ys, new), np.hstack([vals, head + (fresh - head).astype(LD)])
                g = ys.astype(LD)
                scaled = vals / ((g - lo) ** ea * (hi - g) ** eb)
                coeffs = _cheb_fit(ys, scaled.T, lo, hi).T
                size = np.abs(coeffs).max(axis=0)
                top, last = max(size.max(), np.abs(scaled).max()), tail
                tail = float(size[2 * n // 3 :].max() / top) if top > 0 else 0.0
                if tail <= PROXY_TAIL or not tail * 10 < last:  # a NaN tail stops too
                    break
            self.records.append({"segment": [lo, hi], "nodes": n, "tail": tail})
            if not tail <= PROXY_TAIL:
                self.records[-1]["direct"] = "tail does not decay"
                continue
            keep = 1 + int(np.flatnonzero(size > np.finfo(LD).eps * top).max(initial=0))
            self.segments.append((lo, hi, ea, eb, _cheb_fit(xn, coeffs[:, :keep], *self.hull)))

    def __call__(self, xs, ys):
        """Values at the flat float arrays xs, ys: by the proxy for x in the
        hull and y strictly inside a segment that holds, else by ``direct``."""
        out, done = np.empty(ys.size), np.zeros(ys.size, dtype=bool)
        inside = (self.hull[0] <= xs) & (xs <= self.hull[1])
        for lo, hi, ea, eb, coeffs in self.segments:
            idx = np.flatnonzero(inside & (lo < ys) & (ys < hi))
            done[idx] = True
            for b in (idx[i : i + CHUNK] for i in range(0, idx.size, CHUNK)):
                y = ys[b].astype(LD)
                vals = chebvander(_unit(xs[b], *self.hull), len(coeffs) - 1) @ coeffs
                vals = (vals * chebvander(_unit(y, lo, hi), coeffs.shape[1] - 1)).sum(axis=1)
                out[b] = vals * (y - lo) ** ea * (hi - y) ** eb
        if not done.all():
            out[~done] = self.direct(xs[~done], ys[~done])
        return out


@lru_cache(maxsize=None)
def _cc_rule(n, al, be, bits):
    """(V, W, e): ``quadrature.cc_rule``'s nodes times 2^bits and weights
    W_j 2^e, in ints, its moments from ``quadrature.cc_moments`` in mpf;
    cached per (n, al, be, bits)."""
    with mp.workprec(bits):
        cos = np.array([int(mpmath.ldexp(mpmath.cospi(mpmath.mpf(i) / n), bits))
                        for i in range(2 * n)], dtype=object)
        A, B = mpmath.mpf(al), mpmath.mpf(be)
        mu = cc_moments(n, A, B, 2 ** (A + B + 1) * mpmath.beta(A + 1, B + 1))
        e = mpmath.mag(mu[0]) - bits
        j, halve = np.arange(n + 1), np.array([1] + [2] * (n - 1) + [1], dtype=object)
        ms = halve * [int(mpmath.ldexp(v, -e)) for v in mu]
        W = (halve * (cos[np.outer(j, j) % (2 * n)] @ ms)) >> (bits + n.bit_length())
    return cos[: n + 1], W, e


def _log_error(d1, d2, r0):
    """log10 of quad's estimate 10^max(D1^2/D2, 2 D1), at most 0, in float for
    D = log10 |d / r0| of the ints d1 = I_N - I_(N/2) and d2 = I_N - I_(N/4)."""
    D1, D2 = (math.log10(abs(d)) - math.log10(r0) if d else -math.inf for d in (d1, d2))
    return min(0.0, 2 * D1 if D1 == -math.inf or D2 == 0 else max(D1 * D1 / D2, 2 * D1))


def _cc_row(w, k_max, c, s):
    """The moments of t^k w, t = (x - c)/s, and their record, by the rule on
    each panel [p, q] of ``graded_panels`` toward w's generator, x = m + h v:
    the end factors that the panel holds go into the rule, and the smooth
    factor (``Weight.smooth``) and other end factors are evaluated once per
    node.  N doubles from 16 until every order's ``_log_error`` is below
    -dps."""
    a, b, (be, al) = w.support.a, w.support.b, w.endpoint_exponents
    dps, bits = mp.dps, mp.prec + CC_GUARD
    pts = graded_panels(w.support, w.ratio.v.support if w.ratio else None, dps)
    row, level, worst = [0] * (k_max + 1), 0, [-math.inf] * (k_max + 1)
    with mp.workprec(bits):
        smooth, A, B = w.smooth.mp_evaluator(), mpmath.mpf(a), mpmath.mpf(b)
        for p, q in zip(pts, pts[1:]):
            ra, rb = (al if q == b else 0.0), (be if p == a else 0.0)
            fn = smooth if (ra, rb) == (al, be) else (
                lambda x, ea=al - ra, eb=be - rb: smooth(x) * (B - x) ** ea * (x - A) ** eb)
            m, h = (mpmath.mpf(p) + q) / 2, (mpmath.mpf(q) - p) / 2
            T0, L = int(mpmath.ldexp((m - c) / s, bits)), int(mpmath.ldexp(h / s, bits))
            sums = []
            for n in (2 ** i for i in range(4, CC_NODES.bit_length())):
                V, W, eW = _cc_rule(n, ra, rb, bits)
                fresh = [fn(m + h * mpmath.mpf((v, -bits))) for v in (V[1::2] if sums else V)]
                eF = eF if sums else mpmath.mag(max(fresh, key=abs)) - bits  # level 1 sets it
                fresh = np.array([int(mpmath.ldexp(f, -eF)) for f in fresh], dtype=object)
                F = np.insert(F, range(1, F.size), fresh) if sums else fresh
                col, T, S = (W * F) >> bits, T0 + ((L * V) >> bits), []
                for _ in range(k_max + 1):
                    S.append(col.sum())
                    col = (col * T) >> bits
                sums.append(S)
                est = ([_log_error(x - y, x - z, S[0]) for x, y, z in zip(*sums[-1:-4:-1])]
                       if len(sums) > 2 else [0.0] * (k_max + 1))
                if max(est) < -dps:
                    break
            unit = mpmath.ldexp(h ** (ra + rb + 1), eW + eF + bits)
            row = [r + v * unit for r, v in zip(row, S)]
            level, worst = max(level, n), [max(u, v) for u, v in zip(worst, est)]
    open_ks = [k for k, v in enumerate(worst) if v >= -dps]
    return [+v for v in row], {"rule": "clenshaw-curtis", "level": level,
                               "error_max": 10.0 ** max(worst), "open": open_ks}


def mp_rule(n, al, be):
    """``quadrature.cc_rule`` at the current precision, from ``_cc_rule``."""
    V, W, e = _cc_rule(n, al, be, mp.prec)
    return (np.array([mpmath.mpf((v, -mp.prec)) for v in V], dtype=object),
            np.array([mpmath.ldexp(w, e) for w in W], dtype=object))


def _jacobi_moments(w, k_max: int, c, s):
    """Moments in t = (x - c)/s of r (b - x)^alpha (x - a)^beta on [a, b] in
    closed form: with x = (a + b)/2 + h v, t = t_m + l v, l = h/s, m_k = r
    h^(alpha + beta + 1) sum_i C(k, i) t_m^(k - i) l^i mu_i for the moments
    mu_i of v^i (1 - v)^alpha (1 + v)^beta, mu_0 = 2^(alpha + beta + 1)
    B(alpha + 1, beta + 1), (i + alpha + beta + 2) mu_(i+1) = i mu_(i-1) +
    (beta - alpha) mu_i (so a symmetric weight centred on the hull has exact
    zero odd moments).  No term outgrows mu_0 (|t_m| + l)^k, the bound of
    |t|^k, so the sum needs guard bits only for the recurrence."""
    guard = 20 + k_max.bit_length()
    with mp.extraprec(guard):
        al, be = mpmath.mpf(w.spec.alpha), mpmath.mpf(w.spec.beta)
        a, b = mpmath.mpf(w.support.a), mpmath.mpf(w.support.b)
        h, tm = (b - a) / 2, ((a + b) / 2 - c) / s
        mu = [2 ** (al + be + 1) * mpmath.beta(al + 1, be + 1)]
        for i in range(k_max):
            mu.append(((mu[i - 1] * i if i else 0) + (be - al) * mu[i]) / (i + al + be + 2))
        terms = [m * (h / s) ** i for i, m in enumerate(mu)]  # l^i mu_i
        tm_pow = [tm ** j for j in range(k_max + 1)]
        scale = mpmath.mpf(w.scale) * h ** (al + be + 1)
        row = [scale * mp.fdot((math.comb(k, i) * tm_pow[k - i], terms[i])
                               for i in range(k + 1))
               for k in range(k_max + 1)]
    return [+v for v in row]


def moment_rows(ws, k_max: int, records=None):
    """The rows of ``MomentTable.scaled``, integral t^k w_j dx in the hull
    coordinate t = (x - c)/s, as a p x (k_max + 1) object array of mpf at
    the current precision: r s (t_b^(k+1) - t_a^(k+1)) / (k + 1) for a
    constant weight r on [a, b], the Beta-function closed form for a pure
    Jacobi weight, and one ``_cc_row`` pass for any other.  A list
    ``records`` gets per weight its ``rule`` ("closed form" or
    "clenshaw-curtis"), the ``level`` N, the largest final estimate relative
    to row 0, ``error_max``, and the ``open`` orders."""
    (c, s), rows = ws.hull_coordinate(), []
    for w in ws.weights:
        a, b = mpmath.mpf(w.support.a), mpmath.mpf(w.support.b)
        record = {"rule": "closed form", "level": 0, "error_max": 0.0, "open": []}
        if w.spec.family == "constant" and w.ratio is None:
            r, ta, tb = mpmath.mpf(w.scale) * s, (a - c) / s, (b - c) / s
            row = [r * (tb ** (k + 1) - ta ** (k + 1)) / (k + 1) for k in range(k_max + 1)]
        elif w.spec.family == "jacobi" and w.ratio is None:
            row = _jacobi_moments(w, k_max, c, s)
        else:
            row, record = _cc_row(w, k_max, c, s)
        rows.append(row)
        if records is not None:
            records.append(record)
    return np.array(rows, dtype=object)


def rung_of(dps: int) -> int:
    """The precision rung of ``dps``: the smallest multiple of
    ``RUNG_DIGITS`` not below it."""
    return -(-dps // RUNG_DIGITS) * RUNG_DIGITS


def table_rows(mt, dps: int):
    """The rung for ``dps`` (``rung_of``) and the moment rows of ``mt``'s
    weights to ``mt.k_max`` at that precision, computed on first use and
    kept in ``mt.mp_rows``, with ``moment_rows``' records of how each row
    was computed in ``mt.mp_quad``."""
    rung = rung_of(dps)
    if rung not in mt.mp_rows:
        with mp.workdps(rung):
            mt.mp_quad[rung] = []
            mt.mp_rows[rung] = moment_rows(mt.system, mt.k_max, mt.mp_quad[rung])
    return rung, mt.mp_rows[rung]


def rung_solve(mt, nvec, rhs, dps: int, transpose=False):
    """One attempt at M x = rhs(rows), or M^T x = rhs(rows) when
    ``transpose``, on the mpmath rung, for the hull-scaled block Hankel
    moment matrix M of ``nvec``: the attempt that ``escalate`` climbs for
    ``mop._solve``.

    The rows come from ``table_rows(mt, dps)``; the solve rounds to ``dps``.
    M is factored once per (parts, dps), in fixed point
    (``linalg.FixedLU``), and the last LU is kept in ``mt.mp_lu``, so every
    solve at one index and precision shares it and only the solutions
    become mpf.  The bound is |A|_1 max |x|_1 / |b|_1 over the columns b of
    ``rhs(rows)`` (one vector, or a matrix) and a fixed probe z = (1, -1,
    1, ...) solved in the same LU, for the system A actually solved: a
    monic type II solution stays O(1) however ill-conditioned A is, and
    identity columns give |A|_1 |A^-1|_1.  |A|_1 comes from the float64
    assembly of ``mt.scaled``; only its order of magnitude matters.
    Returns ((rung, x), bound), x a list of mpf, or the matrix of solutions
    for a matrix rhs.
    """
    rung, rows = table_rows(mt, dps)
    m = _hankel_from(mt.scaled, nvec, nvec.n)
    a_norm = float(np.abs(m.T if transpose else m).sum(axis=0).max())
    key = (nvec.parts, dps)
    with mp.workdps(dps):
        if key not in mt.mp_lu:
            mt.mp_lu.clear()
            mt.mp_lu[key] = linalg.lu_factor(_hankel_from(rows, nvec, nvec.n))
        lu, piv, _ = mt.mp_lu[key]
        b = rhs(rows)
        cols = np.column_stack([b, [mpmath.mpf((-1) ** i) for i in range(len(b))]])
        try:
            sol = linalg.lu_solve(lu, piv, cols, transpose)
        except NumericError as exc:
            raise NumericError("singular moment system in high precision") from exc
        growth = max(mpmath.fsum(x, absolute=True) / mpmath.fsum(r, absolute=True)
                     for x, r in zip(sol.T, cols.T) if any(r))
    return (rung, sol[:, :-1] if np.ndim(b) == 2 else list(sol[:, 0])), a_norm * float(growth)


class MPForm:
    """The bilinear form f(t_x)^T B g(t_y) in mpmath, in the hull coordinate
    t = (x - c)/s of ``WeightSystem.hull_coordinate``: f is the ``len(B)``
    monomials t^0 .. t^(len(B) - 1), g the basis t^i w_j(y) of ``parts``.

    K is ``MPForm(ws, parts, M^-T, dps)`` for the hull-scaled moment matrix
    M, and Q, its x^(n-1) coefficient, is ``MPForm(ws, parts, [s^-(n-1) a],
    dps)`` for the type I solution a in t.  Values are
    computed at ``dps`` digits and returned as floats; only the coefficients
    need the headroom.  ``eval`` answers from the ``ChebyshevProxy`` that
    its first call builds (kept in ``proxy``) on ``len(B)`` Chebyshev
    x-nodes, exact for a form of degree ``len(B) - 1`` in x;
    ``eval_direct`` computes each point in mpmath.
    """

    def __init__(self, ws, parts, B, dps):
        self.ws, self.parts, self.B, self.dps, self.proxy = ws, parts, B, dps, None

    def _columns(self, xs, ys):
        """(F^T, B G) at the floats xs and ys: the form at (x_i, y_k) is row
        i of the first times column k of the second."""
        at = self.ws.hull_coordinate()
        F = f_matrix(len(self.B), _mpf(xs), object, *at)
        return F.T, _dot(self.B, g_matrix(self.ws, self.parts, _mpf(ys), object, *at))

    def eval_direct(self, xs, ys):
        """The form at the flat float arrays xs, ys, point by point in
        mpmath, as floats."""
        out = np.empty(xs.size)
        with mp.workdps(self.dps):
            for lo in range(0, xs.size, CHUNK):
                F, BG = self._columns(xs[lo : lo + CHUNK], ys[lo : lo + CHUNK])
                out[lo : lo + CHUNK] = [float(mpmath.fdot(f, g)) for f, g in zip(F, BG.T)]
        return out

    def eval(self, xs, ys):
        """The form at the flat float arrays xs, ys, as floats, from a proxy
        built on the first call."""
        if self.proxy is None:
            self.proxy = ChebyshevProxy(self.ws, lambda xs, ys: _dot(*self._columns(xs, ys)),
                                        self.eval_direct, self.dps, len(self.B))
        return self.proxy(xs, ys)

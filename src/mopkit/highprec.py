"""mpmath rung for ill-conditioned moment systems.

Hankel moment systems lose digits geometrically with the degree, and the
type I coefficients (and the kernel's coefficients M^-T) of Nikishin-like
systems grow at the rate of best rational approximation of the Markov
ratio.  Past the float rung's reach this module solves the defining systems
in mpmath.  Results round back to floats: the monic type II polynomial, the
linear form Q and the kernel K are O(1)-bounded, it is only the
intermediate coefficients that need the headroom.

One checked ladder, ``escalate``, serves type II, type I and the kernel:
each attempt reports an a-posteriori condition bound, and its answer counts
only when ``SURVIVING_DIGITS`` digits survive it.  The module also owns the
moment rows in mpf (closed forms for constant and pure Jacobi weights, one
tanh-sinh pass per weight over ``Weight.mp_evaluator`` with
``mpmath.quad``'s per-k stopping rule for the rest) and evaluation in
fixed-size chunks of points.  Solves take their rows from the moment table:
``table_rows`` computes them to the table's ``k_max`` once per precision
rung (the working dps rounded up to a multiple of ``RUNG_DIGITS``) and
keeps them on the table, so a degree sweep pays for its moments once per
rung.  Everything else is shared with the float rung: the block Hankel
matrices are ``mop._hankel_from``, the g-basis is
``ensemble.f_matrix``/``g_matrix`` on object arrays of mpf, and the
systems are factored by the one LU in ``linalg``.  That LU and the
tanh-sinh columns run on raw ``_mpf_`` tuples, bit for bit as mpf would.
``rung_solve`` is the one mpmath solve: of type I, M x = e_n, of type II,
by transposed substitution, M^T a = -b (both through ``mop._solve``), and
of the kernel, M X = I with n right-hand sides, whose psi = X^T is the
float rung's form at more digits (``ensemble.biorthogonalize``).  One LU
of M per index and dps serves all three, and the last one is kept on the
table (``MomentTable.mp_lu``).

One ``MPForm``, f(x)^T B g(y), evaluates the kernel (B = M^-T) and the
linear form Q, which is the kernel's x^(n-1) coefficient (B the type I
solution as one row).  It answers from a ``ChebyshevProxy``: the form is
sampled once per support segment in mpmath, at Chebyshev nodes, and then
evaluated at every point in longdouble; the per-point mpmath path stays as
the fallback and the oracle.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mp
from mpmath.libmp import mpf_mul, mpf_sum
from numpy.polynomial.chebyshev import chebvander

from . import linalg
from .ensemble import f_matrix, g_matrix
from .exceptions import NumericError, PrecisionExhausted
from .linalg import LD
from .mop import _hankel_from

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


def _power_moments(fn, a, b, k_max: int):
    """Integrals of x^k fn(x) over [a, b] for k <= k_max on the nodes of
    ``mpmath.quad(lambda x: x ** k * fn(x), [a, b])``: one pass over quad's
    tanh-sinh levels evaluates ``fn`` once per node, each level advances one
    column w_i fn(x_i) x_i^k by a product per node and power (rounded, like
    quad's terms, at 20 guard bits), and each k stops at the level where
    quad's error estimate stops it.  Columns are raw ``_mpf_`` tuples, and
    ``mpf_mul``/``mpf_sum`` round them as mpf products and ``mp.fsum`` do."""
    rule, prec, eps = mp._tanh_sinh, mp.prec, mp.eps / 8
    m = rule.guess_degree(prec)
    results = [[] for _ in range(k_max + 1)]
    open_ks = list(range(k_max + 1))
    with mp.extraprec(20):
        wprec, rnd = mp._prec_rounding
        for degree in range(1, m + 1):
            h = mpmath.mpf(2) ** (-degree)
            nodes = rule.get_nodes(a, b, degree, prec)
            xs = [x._mpf_ for x, _ in nodes]
            col = [(w * fn(x))._mpf_ for x, w in nodes]
            for k in range(open_ks[-1] + 1):
                if k > 0:
                    col = [mpf_mul(c, x, wprec, rnd) for c, x in zip(col, xs)]
                if k in open_ks:
                    S = results[k][-1] / (h * 2) if results[k] else mp.zero
                    results[k].append(h * (S + mp.make_mpf(mpf_sum(col, wprec, rnd))))
            if degree > 1:
                open_ks = [k for k in open_ks
                           if rule.estimate_error(results[k], prec, eps) > eps]
            if not open_ks:
                break
        sums = [mp.zero + r[-1] for r in results]
    return [+v for v in sums]


def _jacobi_moments(w, k_max: int):
    """Moments of s (b - x)^alpha (x - a)^beta on [a, b] in closed form.

    With x = a + (b - a) t, m_k = s (b - a)^(alpha + beta + 1)
    sum_i C(k, i) a^(k - i) (b - a)^i B(beta + i + 1, alpha + 1); one
    ``mpmath.beta`` starts the ratio recurrence for the others.  The
    binomial sum cancels when a < 0, so it runs with
    k log2((|a| + b - a) / max(|a|, |b|)) + 20 guard bits.
    """
    lo, hi = w.support.a, w.support.b
    guard = 20 + math.ceil(k_max * math.log2((abs(lo) + hi - lo) / max(abs(lo), abs(hi))))
    with mp.extraprec(guard):
        al, be = mpmath.mpf(w.spec.alpha), mpmath.mpf(w.spec.beta)
        a, length = mpmath.mpf(lo), mpmath.mpf(hi) - mpmath.mpf(lo)
        terms = [mpmath.beta(be + 1, al + 1)]  # (b - a)^i B(beta + i + 1, alpha + 1)
        for i in range(k_max):
            terms.append(terms[-1] * length * (be + i + 1) / (al + be + i + 2))
        a_pow = [a ** j for j in range(k_max + 1)]
        scale = mpmath.mpf(w.scale) * length ** (al + be + 1)
        row = [scale * mp.fdot((math.comb(k, i) * a_pow[k - i], terms[i])
                               for i in range(k + 1))
               for k in range(k_max + 1)]
    return [+v for v in row]


def moment_rows(ws, k_max: int):
    """Monomial moments of every weight as mpf, at the current precision.

    A constant weight s on [a, b] gets s (b^(k+1) - a^(k+1)) / (k + 1), a
    pure Jacobi weight (no Markov ratio) its Beta-function closed form.
    Every other weight takes one tanh-sinh pass over its mpf evaluator, with
    quad's per-k stopping rule, so each moment matches its own ``mpmath.quad``.
    Returns a p x (k_max + 1) object array.
    """
    rows = []
    for w in ws.weights:
        if w.spec.family == "constant" and w.ratio is None:
            s, a, b = (mpmath.mpf(v) for v in (w.scale, w.support.a, w.support.b))
            rows.append([s * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k in range(k_max + 1)])
        elif w.spec.family == "jacobi" and w.ratio is None:
            rows.append(_jacobi_moments(w, k_max))
        else:
            rows.append(_power_moments(w.mp_evaluator(), mpmath.mpf(w.support.a),
                                       mpmath.mpf(w.support.b), k_max))
    return np.array(rows, dtype=object)


def table_rows(mt, dps: int):
    """The rung for ``dps`` (the smallest multiple of ``RUNG_DIGITS`` not
    below it) and the moment rows of ``mt``'s weights to ``mt.k_max`` at
    that precision, computed on first use and kept in ``mt.mp_rows``."""
    rung = -(-dps // RUNG_DIGITS) * RUNG_DIGITS
    if rung not in mt.mp_rows:
        with mp.workdps(rung):
            mt.mp_rows[rung] = moment_rows(mt.system, mt.k_max)
    return rung, mt.mp_rows[rung]


def rung_solve(mt, nvec, rhs, dps: int, transpose=False):
    """One attempt at M x = rhs(rows), or M^T x = rhs(rows) when
    ``transpose``, on the mpmath rung, for the block Hankel moment matrix M
    of ``nvec``: the attempt that ``escalate`` climbs for type I (M), type
    II (M^T, by transposed substitution) and the kernel (M X = I).

    The rows come from ``table_rows(mt, dps)``; the solve rounds to ``dps``.
    M is factored once per (parts, dps): the last LU is kept in
    ``mt.mp_lu``, so every solve at one index and precision shares it.  The
    bound is |A|_1 max |x|_1 / |b|_1 over the columns b of ``rhs(rows)``
    (one vector, or a matrix) and a fixed probe z = (1, -1, 1, ...) solved
    in the same LU, for the system A actually solved: a monic type II
    solution stays O(1) however ill-conditioned A is, and identity columns
    give |A|_1 |A^-1|_1.  |A|_1 comes from the float64 assembly of
    ``mt.raw``; only its order of magnitude matters.  Returns ((rung, x),
    bound), x a list of mpf, or the matrix of solutions for a matrix rhs.
    """
    rung, rows = table_rows(mt, dps)
    m = _hankel_from(mt.raw, nvec, nvec.n)
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
        growth = max(np.abs(x).sum() / np.abs(r).sum() for x, r in zip(sol.T, cols.T) if any(r))
    return (rung, sol[:, :-1] if np.ndim(b) == 2 else list(sol[:, 0])), a_norm * float(growth)


class MPForm:
    """The bilinear form f(x)^T B g(y) in mpmath: f is the ``len(B)``
    monomials x^0 .. x^(len(B) - 1), g the basis of ``parts``.

    K is ``MPForm(ws, parts, M^-T, dps)`` and Q, its x^(n-1) coefficient, is
    ``MPForm(ws, parts, [x], dps)`` for the type I solution x.  Values are
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
        F = f_matrix(len(self.B), _mpf(xs), dtype=object)
        return F.T, _dot(self.B, g_matrix(self.ws, self.parts, _mpf(ys), dtype=object))

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

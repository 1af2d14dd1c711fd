"""mpmath rung for ill-conditioned moment systems.

Type I coefficient vectors (and the biorthogonal kernel pairs) of
Nikishin-like systems grow geometrically with the degree: the weight blocks
become nearly linearly dependent at the rate of best rational approximation
of the Markov ratio.  Once the coefficients dwarf the targets, no
fixed-precision pipeline survives the cancellation between the huge terms,
so this module re-derives the moments and solves the defining systems in
mpmath arithmetic, with working precision chosen from the observed
condition number.  Results round back to ordinary floats: the linear form
Q and the kernel K are O(1)-bounded, it is only the intermediate
coefficients that need the headroom.

The module owns what is specific to that rung: the working-precision rule,
the moment rows in mpf (exact rationals converted, Beta-function closed
forms for pure Jacobi weights, everything else by one tanh-sinh pass per
weight over ``Weight.mp_evaluator``, with ``mpmath.quad``'s per-k stopping
rule), and evaluation in fixed-size chunks of points.  Type I solves take
their rows from the moment table: ``table_rows`` computes them to the
table's ``k_max`` once per precision rung (the working dps rounded up to a
multiple of ``RUNG_DIGITS``) and keeps them on the table, so a degree sweep
over one table pays for its moments once per rung.  Everything else is
shared with the float rungs: the block Hankel matrix is
``mop._hankel_from``, the g-basis is ``ensemble.f_matrix``/``g_matrix`` on
object arrays of mpf, and the systems are factored by the one LU in
``linalg``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mp

from . import linalg
from .ensemble import f_matrix, g_matrix
from .exceptions import NumericError
from .mop import _hankel_from

#: condition estimate beyond which type I solves switch to mpmath; the
#: float64 moment tables floor the residuals at ~cond * 2e-15, so the
#: switch happens well before the 1e-9 target is at risk
CONDITION_CUTOFF = 3e4

#: points per shared F/G block in evaluation; bounds the mpf temporaries
CHUNK = 64

#: type I moment rows are computed at multiples of this many digits, so
#: that solves at nearby working precisions share one pass
RUNG_DIGITS = 16


def working_dps(cond) -> int:
    """mpmath working precision for a system with condition estimate ``cond``:
    30 digits beyond the ones the conditioning consumes."""
    return 30 + max(0, int(np.ceil(np.log10(max(cond, 1.0)))))


def _mpf(xs):
    """Object array of mpf holding the floats ``xs``."""
    return np.array([mpmath.mpf(float(x)) for x in xs], dtype=object)


def _power_moments(fn, a, b, k_max: int):
    """Integrals of x^k fn(x) over [a, b] for k <= k_max on the nodes of
    ``mpmath.quad(lambda x: x ** k * fn(x), [a, b])``: one pass over quad's
    tanh-sinh levels evaluates ``fn`` once per node, each level advances one
    column w_i fn(x_i) x_i^k by a product per node and power (rounded, like
    quad's terms, at 20 guard bits), and each k stops at the level where
    quad's error estimate stops it."""
    rule, prec, eps = mp._tanh_sinh, mp.prec, mp.eps / 8
    m = rule.guess_degree(prec)
    results = [[] for _ in range(k_max + 1)]
    open_ks = list(range(k_max + 1))
    with mp.extraprec(20):
        for degree in range(1, m + 1):
            h = mpmath.mpf(2) ** (-degree)
            nodes = rule.get_nodes(a, b, degree, prec)
            xs = [x for x, _ in nodes]
            col = [w * fn(x) for x, w in nodes]
            for k in range(open_ks[-1] + 1):
                if k > 0:
                    col = [c * x for c, x in zip(col, xs)]
                if k in open_ks:
                    S = results[k][-1] / (h * 2) if results[k] else mp.zero
                    results[k].append(h * (S + mp.fsum(col)))
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

    Exact rational moments are converted directly.  A pure Jacobi weight
    (no Markov ratio) gets its Beta-function closed form.  Every other
    weight takes one tanh-sinh pass over its mpf evaluator, with quad's
    per-k stopping rule, so each moment matches its own ``mpmath.quad``.
    Returns a p x (k_max + 1) object array.
    """
    rows = []
    for w in ws.weights:
        if w.exact_moment(0) is not None:
            fracs = [w.exact_moment(k) for k in range(k_max + 1)]
            rows.append([mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator) for f in fracs])
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


def type1_coefficients(mt, nvec, dps: int):
    """Type I coefficient blocks solved in mpmath at ``dps`` digits.

    The moment rows come from ``table_rows(mt, dps)``, held at the rung at
    or above ``dps``; every operation of the solve rounds to ``dps``.
    Returns the rung and a list with one coefficient list per weight
    (empty for n_j = 0); entries are mpf carrying the full working
    precision.
    """
    n = nvec.n
    rung, rows = table_rows(mt, dps)
    with mp.workdps(dps):
        system = _hankel_from(rows[:, : 2 * n - 1], nvec, n)
        rhs = np.array([mpmath.mpf(0)] * (n - 1) + [mpmath.mpf(1)], dtype=object)
        try:
            sol = linalg.solve(system, rhs)
        except NumericError as exc:
            raise NumericError("singular type I system in high precision") from exc
        out = []
        start = 0
        for nj in nvec.parts:
            out.append([+v for v in sol[start : start + nj]])
            start += nj
        return rung, out


class MPKernel:
    """Correlation kernel in mpmath arithmetic for ill-conditioned systems.

    The biorthogonal coefficient pairs explode at the rate of the moment
    matrix conditioning (the same near-degeneracy that inflates type I
    coefficients), so past ~1e7 the 80-bit path cannot keep the kernel
    identities at their tolerances.  Values are computed at ``dps`` digits
    and returned as ordinary floats: the kernel itself is O(n)-bounded, it
    is only the intermediate coefficients that need the headroom.
    """

    def __init__(self, ws, nvec, dps):
        self.ws = ws
        self.nvec = nvec
        self.dps = dps
        with mp.workdps(dps):
            self._m = _hankel_from(moment_rows(ws, nvec.n - 1 + max(nvec.parts) - 1),
                                   nvec, nvec.n)
            self.phi, self.psi, self.gram_defect = linalg.biorthogonal_pair(self._m)

    def condition(self):
        """1-norm condition number of the moment matrix, computed in mpmath:
        phi M psi^T = I makes psi^T phi its inverse."""
        with mp.workdps(self.dps):
            norms = [np.abs(a).sum(axis=0).max() for a in (self._m, self.psi.T @ self.phi)]
            return float(norms[0] * norms[1])

    def eval(self, xs, ys):
        """Biorthogonal-sum values sum_j phi_j(x) psi_j(y), as floats."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        flat, ys = xs.ravel(), np.atleast_1d(np.asarray(ys, dtype=float)).ravel()
        out = np.empty(xs.size)
        with mp.workdps(self.dps):
            for lo in range(0, xs.size, CHUNK):
                F = f_matrix(self.nvec.n, _mpf(flat[lo : lo + CHUNK]), dtype=object)
                G = g_matrix(self.ws, self.nvec, _mpf(ys[lo : lo + CHUNK]), dtype=object)
                for i in range(F.shape[1]):
                    total = mpmath.mpf(0)
                    for pj, sj in zip(self.phi, self.psi):
                        total += mpmath.fdot(pj, F[:, i]) * mpmath.fdot(sj, G[:, i])
                    out[lo + i] = float(total)
        return out.reshape(xs.shape)

    def eval_bordered(self, x, y):
        """Bordered-determinant value -det[[M, f], [g, 0]] / det M, as float."""
        n = self.nvec.n
        with mp.workdps(self.dps):
            big = np.empty((n + 1, n + 1), dtype=object)
            big[:n, :n] = self._m
            big[:n, n] = f_matrix(n, _mpf([x]), dtype=object)[:, 0]
            big[n, :n] = g_matrix(self.ws, self.nvec, _mpf([y]), dtype=object)[:, 0]
            big[n, n] = mpmath.mpf(0)
            return float(-linalg.det(big) / linalg.det(self._m))


def linear_form_values(ws, hp_coeffs, xs, dps: int):
    """Q(x) = sum_j A_j(x) w_j(x) via the high-precision coefficients.

    ``xs`` are ordinary floats; returns floats.  The huge A_j terms cancel
    in mp arithmetic before the downcast, so the returned values carry full
    double accuracy even when the coefficients span 16+ orders.
    """
    parts = tuple(len(c) for c in hp_coeffs)
    coeffs = [c for blk in hp_coeffs for c in blk]
    out = []
    with mp.workdps(dps):
        for lo in range(0, len(xs), CHUNK):
            G = g_matrix(ws, parts, _mpf(xs[lo : lo + CHUNK]), dtype=object)
            out.extend(float(mpmath.fdot(coeffs, G[:, i])) for i in range(G.shape[1]))
    return out

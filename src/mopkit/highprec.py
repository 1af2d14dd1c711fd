"""mpmath rung for ill-conditioned moment systems.

Hankel moment systems lose digits geometrically with the degree, and the
type I coefficients (and the biorthogonal kernel pairs) of Nikishin-like
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
matrices are ``mop._hankel_from`` and ``mop._type2_system``, the g-basis
is ``ensemble.f_matrix``/``g_matrix`` on object arrays of mpf, and the
systems are factored by the one LU in ``linalg``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mp

from . import linalg
from .ensemble import f_matrix, g_matrix
from .exceptions import NumericError, PrecisionExhausted
from .mop import _hankel_from, _type2_system

#: condition estimate beyond which type II and type I solves switch to
#: mpmath; the float64 moment tables floor the residuals at ~cond * 2e-15,
#: so the switch happens well before the 1e-9 target is at risk
CONDITION_CUTOFF = 3e4

#: an mpmath answer counts when log10(bound) + SURVIVING_DIGITS <= dps for
#: its a-posteriori condition bound
SURVIVING_DIGITS = 20

#: points per shared F/G block in evaluation; bounds the mpf temporaries
CHUNK = 64

#: type I moment rows are computed at multiples of this many digits, so
#: that solves at nearby working precisions share one pass
RUNG_DIGITS = 16


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


def rung_solve(mt, assemble, dps: int):
    """One attempt at solving ``assemble(rows)`` = (A, b) on the mpmath rung.

    The rows come from ``table_rows(mt, dps)``; the solve rounds to ``dps``.
    The bound is |A|_1 max(|x|_1 / |b|_1, |A^-1 z|_1 / |z|_1) for a fixed
    probe z = (1, -1, 1, ...) solved in the same LU: a monic type II
    solution stays O(1) however ill-conditioned A is.  |A|_1 comes from the
    float64 assembly of ``mt.raw``; only its order of magnitude matters.
    Returns ((rung, x), bound).
    """
    rung, rows = table_rows(mt, dps)
    a_norm = float(np.abs(assemble(mt.raw)[0]).sum(axis=0).max())
    with mp.workdps(dps):
        a, b = assemble(rows)
        rhs = np.stack([b, [mpmath.mpf((-1) ** i) for i in range(len(b))]], axis=1)
        try:
            sol = linalg.solve(a, rhs)
        except NumericError as exc:
            raise NumericError("singular moment system in high precision") from exc
        growth = max(np.abs(x).sum() / np.abs(r).sum() for x, r in zip(sol.T, rhs.T) if any(r))
    return (rung, list(sol[:, 0])), a_norm * float(growth)


def type2_attempt(mt, nvec, dps: int):
    """Monic type II coefficients (floats, ascending) solved on the mpmath rung
    at ``dps`` digits, with the condition bound of ``rung_solve``."""
    (_, sol), bound = rung_solve(mt, lambda rows: _type2_system(rows, nvec), dps)
    return np.array([float(v) for v in sol] + [1.0]), bound


def type1_attempt(mt, nvec, dps: int):
    """Type I coefficient blocks solved on the mpmath rung at ``dps`` digits,
    M a = e_n: ((rung, blocks), bound), with the bound of ``rung_solve``.
    Each block is a list of mpf (empty for n_j = 0)."""
    e_n = np.array([mpmath.mpf(k == nvec.n - 1) for k in range(nvec.n)], dtype=object)
    (rung, sol), bound = rung_solve(mt, lambda rows: (_hankel_from(rows, nvec, nvec.n), e_n),
                                    dps)
    ends = np.cumsum(nvec.parts)
    return (rung, [sol[e - nj : e] for nj, e in zip(nvec.parts, ends)]), bound


def type1_coefficients(mt, nvec, dps: int):
    """(rung, blocks) of ``type1_attempt``, without the bound."""
    return type1_attempt(mt, nvec, dps)[0]


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

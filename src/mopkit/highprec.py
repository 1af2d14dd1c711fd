"""High-precision fallbacks for ill-conditioned moment systems.

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

Weights are re-evaluated structurally (family parameters, scale factors,
Markov-ratio generators), not by reusing the float closures.  The moment
systems are numpy object arrays of mpf, solved and factored by the same LU
(``linalg``) that serves the longdouble and exact rungs.
"""

from __future__ import annotations

import mpmath
import numpy as np
from mpmath import mp

from . import linalg
from .exceptions import NumericError, ValidationError

#: condition estimate beyond which type I solves switch to mpmath; the
#: float64 moment tables floor the residuals at ~cond * 2e-15, so the
#: switch happens well before the 1e-9 target is at risk
CONDITION_CUTOFF = 3e4


def working_dps(cond) -> int:
    """mpmath working precision for a system with condition estimate ``cond``:
    30 digits beyond the ones the conditioning consumes."""
    return 30 + max(0, int(np.ceil(np.log10(max(cond, 1.0)))))


def weight_evaluator(w):
    """mpf-valued evaluator of a weight on its support, or None.

    Handles the parametric families directly and Markov-ratio products
    recursively; constant generators use the closed-form log ratio, other
    generators an inner tanh-sinh quadrature.
    """
    if w.ratio is not None:
        base = weight_evaluator(w.base)
        ratio = _ratio_evaluator(w.ratio)
        if base is None or ratio is None:
            return None
        return lambda x: base(x) * ratio(x)
    spec = w.spec
    if spec is None:
        return None
    s = mpmath.mpf(w.scale)
    a, b = mpmath.mpf(spec.interval.a), mpmath.mpf(spec.interval.b)
    if spec.family == "constant":
        return lambda x: s
    if spec.family == "jacobi":
        al, be = mpmath.mpf(spec.alpha), mpmath.mpf(spec.beta)
        return lambda x: s * (b - x) ** al * (x - a) ** be
    if spec.family == "exp_poly":
        cs = [mpmath.mpf(c) for c in spec.coeffs]
        return lambda x: s * mpmath.e ** (-mpmath.polyval(cs[::-1], x))
    return None


def _ratio_evaluator(ratio):
    v = ratio.v
    sign = mpmath.mpf(ratio.sign)
    c, d = mpmath.mpf(v.support.a), mpmath.mpf(v.support.b)
    if v.spec is not None and v.spec.family == "constant" and v.ratio is None:
        s = mpmath.mpf(v.scale)
        # integral of s/(x - y) over [c, d]
        return lambda x: sign * s * (mpmath.log(abs(x - c)) - mpmath.log(abs(x - d)))
    inner = weight_evaluator(v)
    if inner is None:
        return None
    return lambda x: sign * mpmath.quad(lambda y: inner(y) / (x - y), [c, d])


def supports_weight_system(ws) -> bool:
    return all(weight_evaluator(w) is not None for w in ws.weights)


def moment_rows(ws, k_max: int):
    """Monomial moments of every weight as mpf, at the current precision.

    Exact rational moments are converted directly; everything else goes
    through tanh-sinh quadrature of the structural evaluator.
    """
    rows = []
    for w in ws.weights:
        if w.exact_moment(0) is not None:
            row = []
            for k in range(k_max + 1):
                f = w.exact_moment(k)
                row.append(mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator))
            rows.append(row)
            continue
        fn = weight_evaluator(w)
        if fn is None:
            raise ValidationError(
                f"no high-precision evaluator for weight {w.label!r}"
            )
        a, b = mpmath.mpf(w.support.a), mpmath.mpf(w.support.b)
        row = [mpmath.quad(lambda x, k=k: x ** k * fn(x), [a, b])
               for k in range(k_max + 1)]
        rows.append(row)
    return rows


def _block_hankel(rows, nvec):
    """n x n object array of mpf: row r holds the moments r..r+n_j-1 of each weight."""
    return np.array([[rows[j][r + l] for j, nj in enumerate(nvec.parts) for l in range(nj)]
                     for r in range(nvec.n)], dtype=object)


def type1_coefficients(ws, nvec, dps: int):
    """Type I coefficient blocks solved in mpmath at ``dps`` digits.

    Returns a list with one coefficient list per weight (empty for
    n_j = 0); entries are mpf carrying the full working precision.
    """
    n = nvec.n
    with mp.workdps(dps):
        system = _block_hankel(moment_rows(ws, 2 * n - 2), nvec)
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
        return out


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
            self._m = _block_hankel(moment_rows(ws, nvec.n - 1 + max(nvec.parts) - 1), nvec)
            self.phi, self.psi, self.gram_defect = linalg.biorthogonal_pair(self._m)
            self._weight_fns = [weight_evaluator(w) for w in ws.weights]

    def _g_vector(self, y):
        out = []
        ym = mpmath.mpf(float(y))
        for j, nj in enumerate(self.nvec.parts):
            if nj == 0:
                continue
            w = self.ws.weights[j]
            if w.support.a <= y <= w.support.b:
                wv = self._weight_fns[j](ym)
            else:
                wv = mpmath.mpf(0)
            mono = mpmath.mpf(1)
            for _ in range(nj):
                out.append(mono * wv)
                mono *= ym
        return out

    def _f_vector(self, x):
        xm = mpmath.mpf(float(x))
        out = [mpmath.mpf(1)]
        for _ in range(self.nvec.n - 1):
            out.append(out[-1] * xm)
        return out

    def eval(self, xs, ys):
        """Biorthogonal-sum values sum_j phi_j(x) psi_j(y), as floats."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        n = self.nvec.n
        with mp.workdps(self.dps):
            out = np.empty(xs.size)
            for i, (x, y) in enumerate(zip(xs.ravel(), ys.ravel())):
                f = self._f_vector(x)
                g = self._g_vector(y)
                total = mpmath.mpf(0)
                for j in range(n):
                    pf = mpmath.fdot(self.phi[j], f)
                    pg = mpmath.fdot(self.psi[j], g)
                    total += pf * pg
                out[i] = float(total)
        return out.reshape(xs.shape)

    def eval_bordered(self, x, y):
        """Bordered-determinant value -det[[M, f], [g, 0]] / det M, as float."""
        n = self.nvec.n
        with mp.workdps(self.dps):
            big = np.empty((n + 1, n + 1), dtype=object)
            big[:n, :n] = self._m
            big[:n, n] = self._f_vector(x)
            big[n, :n] = self._g_vector(y)
            big[n, n] = mpmath.mpf(0)
            return float(-linalg.det(big) / linalg.det(self._m))


def linear_form_values(ws, hp_coeffs, xs, dps: int):
    """Q(x) = sum_j A_j(x) w_j(x) via the high-precision coefficients.

    ``xs`` are ordinary floats; returns floats.  The huge A_j terms cancel
    in mp arithmetic before the downcast, so the returned values carry full
    double accuracy even when the coefficients span 16+ orders.
    """
    with mp.workdps(dps):
        evaluators = [weight_evaluator(w) for w in ws.weights]
        out = []
        for x in xs:
            xm = mpmath.mpf(float(x))
            total = mpmath.mpf(0)
            for coeffs, w, fn in zip(hp_coeffs, ws.weights, evaluators):
                if not coeffs:
                    continue
                if not (w.support.a <= x <= w.support.b):
                    continue
                acc = mpmath.mpf(0)
                for c in reversed(coeffs):
                    acc = acc * xm + c
                total += acc * fn(xm)
            out.append(float(total))
    return out

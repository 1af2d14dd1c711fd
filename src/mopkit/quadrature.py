"""Quadrature: one Clenshaw-Curtis-Jacobi rule, and adaptive Gauss-Legendre.

The rule integrates (1 - v)^al (1 + v)^be f(v) on [-1, 1] at the nested
nodes cos(pi j / N), N = 16, 32, ... ``CC_NODES``, with weights from the
modified Chebyshev moments of the end factor (``cc_moments``: Piessens &
Branders, BIT 1973, in floats and in mpf).  It converges like rho^-N in the
Bernstein ellipse of f's nearest singularity (Trefethen, SIAM Review 2008);
``graded_panels`` splits a support toward a nearer pole.

The adaptive rule bisects a panel until a 12-point and a 24-point
Gauss-Legendre rule agree within its share of the tolerance.  An integrand
may return K rows: each row keeps its own bisection tree, panel budget and
order of accumulation, so it is bit for bit its own scalar integral, while
a panel that several rows share is evaluated once.  It answers
``stieltjes_transform``, ``kernel_trace`` and ``weight_quad``.  An end power
(x - a)^e that it or the graded fixed rule (``fixed_segment_nodes``) meets
takes the substitution x = a + (b - a) t^2, iterated while the power 2e + 1
is negative, when e is negative or not an integer (``_nonsmooth``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exceptions import QuadratureError

_LO = 12
_HI = 24
_EPS = float(np.finfo(np.float64).eps)

#: Clenshaw-Curtis levels: N + 1 nodes cos(pi j / N), N = 16, 32, ... CC_NODES
CC_NODES = 512
_LD, _PI = np.longdouble, np.longdouble("3.14159265358979323846264338327950288")


def cc_moments(n, al, be, mu0):
    """The moments mu_0 .. mu_n of T_m against (1 - v)^al (1 + v)^be on
    [-1, 1] from mu0 = 2^(al + be + 1) B(al + 1, be + 1) by the forward
    recurrence of Piessens & Branders, in the arithmetic of its arguments."""
    mu = [mu0, mu0 * (be - al) / (al + be + 2)]
    for m in range(1, n):
        mu.append((-2 * (al - be) * mu[m] - (al + be + 2 - m) * mu[m - 1]) / (al + be + m + 2))
    return mu


@lru_cache(maxsize=None)
def cc_rule(n, al, be):
    """Nodes cos(pi j / n), j <= n, and weights W_j = (2/n) c_j sum''_m mu_m
    cos(pi m j / n), c and '' halving end terms, of the Clenshaw-Curtis rule
    for (1 - v)^al (1 + v)^be on [-1, 1], in longdouble rounded once, so that
    levels agree to float rounding even for al or be near -1; cached."""
    j, A, B = np.arange(n + 1), al + 1.0, be + 1.0
    beta = (math.gamma(A) * math.gamma(B) / math.gamma(A + B) if A + B < 170 else
            math.exp(math.lgamma(A) + math.lgamma(B) - math.lgamma(A + B)))
    ends, cos = np.where(j % n, _LD(2), _LD(1)), np.cos(_PI * np.arange(2 * n, dtype=_LD) / n)
    mu = np.array(cc_moments(n, _LD(al), _LD(be), _LD(2.0) ** (A + B - 1) * _LD(beta)))
    W = ends * (cos[np.outer(j, j) % (2 * n)] @ (ends * mu)) / (2 * n)
    return cos[: n + 1].astype(float), W.astype(float)


def cc_levels(p, q, ends, fn, origin, rule=cc_rule):
    """Per level N of ``rule`` (``cc_rule``, or ``highprec``'s in mpf) on [p, q]
    for the end powers ``ends`` of (x - p) and (q - x): the node offsets d =
    x - origin, from p - origin and q - origin so that they keep their
    digits near origin, and coefficients h^(e_p + e_q + 1) W_j fn(x_j), fn
    evaluated once per node."""
    p, q, (ep, eq), F = p - origin, q - origin, ends, None
    h, mid = (q - p) / 2, (p + q) / 2
    for n in (2 ** i for i in range(4, CC_NODES.bit_length())):
        v, W = rule(n, eq, ep)
        d = mid + h * v
        new = fn(origin + (d if F is None else d[1::2]))
        F = new if F is None else np.insert(F, np.arange(1, F.size), new)
        yield n, d, h ** (ep + eq + 1) * W * F


def graded_panels(iv, pole, digits):
    """The ends of ``iv`` and, if the interval ``pole`` (or None) is so near
    that ``CC_NODES`` / 2 nodes fall short of ``digits`` (log rho = acosh(1 +
    gap / half-length)), the points at gap 4^i from its nearest end."""
    a, b, gap = iv.a, iv.b, pole.gap_to(iv) if pole else math.inf
    if CC_NODES / 2 * math.acosh(1 + 2 * gap / (b - a)) >= digits * math.log(10):
        return [a, b]
    cuts, left = {a, b}, pole.b <= a
    while gap < b - a:
        cuts.add(a + gap if left else b - gap)
        gap *= 4
    return sorted(cuts)


@lru_cache(maxsize=None)
def gauss_legendre(m: int):
    """Nodes and weights of the m-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(m)


def panel_nodes(a: float, b: float, m: int):
    """Gauss-Legendre nodes and weights mapped to the panel [a, b]."""
    x, w = gauss_legendre(m)
    h = 0.5 * (b - a)
    return 0.5 * (a + b) + h * x, h * w


class Rows(NamedTuple):
    """The integrals of K rows: per row the value, error estimate and panels."""

    value: np.ndarray
    error: np.ndarray
    panels: np.ndarray


def adaptive_quad(f, a, b, *, tol=1e-12, max_panels=20000, max_depth=52):
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``, with a
    relative floor of a few ulps.

    ``f`` maps a 1-D array of m points to values of the same shape (real or
    complex), or to K rows of them, shape (K, m); the answer is then
    ``Rows`` per row (module docstring).  Raises :class:`QuadratureError`,
    carrying the best estimate and, for rows, the lowest failing ``row``,
    when the panel budget runs out or a sum is not finite.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise QuadratureError("integration endpoints must be finite")
    if a == b:
        zero = np.zeros(np.shape(f(np.empty(0)))[:-1])
        return Rows(zero, zero, zero.astype(int)) if zero.ndim else 0.0
    total_width = b - a
    stack = [(a, b, 0, None)]  # None: every row
    accepted = []  # (rows, hi, err) of the panels accepted at each node, in order
    count = counts = None  # accepted panels, in all and, past the budget, per row
    while stack:
        pa, pb, depth, live = stack.pop()
        if live is not None and live[-1] >= cut:  # rows after a spent one cannot raise first
            live = live[live < cut]
            if not live.size:
                continue
        xs_lo, ws_lo = panel_nodes(pa, pb, _LO)
        xs_hi, ws_hi = panel_nodes(pa, pb, _HI)
        fl, fh = f(xs_lo), f(xs_hi)
        if live is None:  # the first panel
            rows, count = fl.ndim == 2, 0
            live = np.arange(len(fl) if rows else 1)
            n = cut = len(live)  # cut: the first row whose panel budget ran out
        fl, fh = fl.reshape(-1, _LO), fh.reshape(-1, _HI)
        if len(live) < len(fl):
            fl, fh = fl[live], fh[live]
        lo = (ws_lo * fl).sum(axis=1)
        hi = (ws_hi * fh).sum(axis=1)
        err = abs(hi - lo)
        budget = tol * abs(pb - pa) / abs(total_width)
        ok = err <= np.maximum(budget, 32.0 * _EPS * abs(hi))
        if depth >= max_depth:
            ok[:] = True
        if not ok.all():
            mid, rest = 0.5 * (pa + pb), live[~ok]
            stack.append((pa, mid, depth + 1, rest))
            stack.append((mid, pb, depth + 1, rest))
            if not ok.any():
                continue
            live, hi, err = live[ok], hi[ok], err[ok]
        accepted.append((live, hi, err))
        count += len(live)
        if count > max_panels:  # then some row may have run out of panels
            if counts is None:
                counts = np.bincount(np.concatenate([r for r, _, _ in accepted]), minlength=n)
            else:
                counts[live] += 1
            spent = np.flatnonzero(counts > max_panels)
            if spent.size:
                cut = min(cut, int(spent[0]))
    # each row's sums in its own order of acceptance
    idx, his, errs = (np.concatenate(col) for col in zip(*accepted))
    value, err_acc = np.zeros(n, dtype=his.dtype), np.zeros(n)
    np.add.at(value, idx, his)
    np.add.at(err_acc, idx, errs)
    bad = ~(np.isfinite(value) & np.isfinite(err_acc)) \
        | (err_acc > np.maximum(4.0 * tol, 1e-13 * abs(value)))
    bad[cut:] = True
    if bad.any():
        r = int(np.argmax(bad))
        v, e = value[r], err_acc[r]
        exc = QuadratureError("panel budget exhausted" if r == cut
                              else "integral or its error estimate is not finite"
                              if not (np.isfinite(v) and np.isfinite(e))
                              else f"quadrature stalled at error estimate {e:.3e}",
                              estimate=v, error_estimate=e)
        exc.row = r if rows else None
        raise exc
    return Rows(value, err_acc, np.bincount(idx, minlength=n)) if rows else value[0]


def _nonsmooth(e):
    """An endpoint power needs the substitution when it is negative (a
    singularity) or not an integer (a kink no polynomial rule resolves)."""
    return e < 0.0 or float(e) != int(e)


def _pieces(lo, hi, exponents):
    """Split [lo, hi] into pieces with at most one regularized endpoint:
    (lo, hi, side, exponent) with side "left", "right" or None."""
    ea, eb = exponents
    if _nonsmooth(ea) and _nonsmooth(eb):
        mid = 0.5 * (lo + hi)
        return [(lo, mid, "left", ea), (mid, hi, "right", eb)]
    if _nonsmooth(ea):
        return [(lo, hi, "left", ea)]
    if _nonsmooth(eb):
        return [(lo, hi, "right", eb)]
    return [(lo, hi, None, 0.0)]


def _piece_map(lo, hi, side, exponent):
    """(x_of_u, jac_of_u) on [0, 1]: x = lo + (hi - lo) t^2 (mirrored for the
    right side), then t = u^2 again while the carried power is negative."""
    if side is None:
        return (lambda u: lo + (hi - lo) * u, lambda u: np.full_like(u, hi - lo))
    width = hi - lo
    if side == "left":
        x_of = lambda t: lo + width * t * t
    else:
        x_of = lambda t: hi - width * t * t
    jac_of = lambda t: 2.0 * width * t
    e = 2.0 * exponent + 1.0
    while e < 0.0:
        ix, ij = x_of, jac_of
        x_of = lambda u, ix=ix: ix(u * u)
        jac_of = lambda u, ij=ij: ij(u * u) * 2.0 * u
        e = 2.0 * e + 1.0
    return x_of, jac_of


def quad_with_substitution(f, a, b, exponents=(0.0, 0.0), *, tol=1e-12):
    """Integrate ``f``, whose end powers of (x - a) and (b - x) are
    ``exponents``, over [a, b]: substituting at each non-smooth end (split
    at the midpoint when both are), else directly.  Rows pass through as in
    ``adaptive_quad``: the pieces add from 0.0, and a failure raises for the
    lowest row that fails on any piece, with its first failing piece's error.
    """
    pieces = _pieces(a, b, exponents)
    if pieces[0][2] is None:
        return adaptive_quad(f, a, b, tol=tol)
    parts, failure = [], None
    for lo, hi, side, e in pieces:
        x_of, jac_of = _piece_map(lo, hi, side, e)
        g = lambda u, x_of=x_of, jac_of=jac_of: f(x_of(u)) * jac_of(u)
        if failure is not None:  # only the rows before the failing one can raise first
            if failure.row == 0:
                break
            g = lambda u, g=g, r=failure.row: g(u)[:r]
        try:
            parts.append(adaptive_quad(g, 0.0, 1.0, tol=tol / len(pieces)))
        except QuadratureError as exc:
            if exc.row is None:
                raise
            failure = exc
    if failure is not None:
        raise failure
    if isinstance(parts[0], Rows):
        return Rows(sum((part.value for part in parts), 0.0),
                    sum(part.error for part in parts), sum(part.panels for part in parts))
    return sum(parts, 0.0)


def graded_nodes(lo, hi, exponents, breakpoints, order):
    """Gauss-Legendre nodes and weights on [lo, hi] after the substitution:
    an ``order``-point rule on each panel of the array ``breakpoints`` on [0,
    1] of each substituted piece, the jacobians folded into the weights."""
    glx, glw = gauss_legendre(order)
    xs, ws = [], []
    for plo, phi, side, e in _pieces(lo, hi, exponents):
        x_of, jac_of = _piece_map(plo, phi, side, e)
        for u0, u1 in zip(breakpoints[:-1], breakpoints[1:]):
            h = 0.5 * (u1 - u0)
            u = 0.5 * (u0 + u1) + h * glx
            xs.append(x_of(u))
            ws.append(h * glw * jac_of(u))
    return np.concatenate(xs), np.concatenate(ws)


def sorted_unique(x):
    """``np.unique(x)`` for finite x, bit for bit: a sort and an
    adjacent-difference mask, without the ``numpy.ma`` import that
    ``np.unique`` pays on first use."""
    x, keep = np.sort(np.ravel(x)), np.ones(np.size(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def fixed_segment_nodes(lo, hi, exponents=(0.0, 0.0), *, levels=10, order=32):
    """Fixed quadrature nodes and weights on [lo, hi] for analytic integrands,
    after the substitution, on panels graded dyadically toward both ends:
    many integrals of one smooth integrand family share them."""
    halves = 0.5 ** np.arange(1, levels + 1)
    bps = sorted_unique(np.concatenate([[0.0, 1.0], halves, 1.0 - halves]))
    return graded_nodes(lo, hi, exponents, bps, order)


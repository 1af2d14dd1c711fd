"""Adaptive composite Gauss-Legendre quadrature.

Each panel is estimated with a 12-point and a 24-point rule; a panel is
accepted when the two agree within its share of the global tolerance and is
bisected otherwise.  An integrand may return K rows at once: every row keeps
its own bisection tree, panel budget and order of accumulation, so each row
is bit for bit its own scalar integral, while a panel that several rows
share is evaluated once.  The moment tables take one such pass per weight.

This module is the only one that knows the endpoint substitution.  An
endpoint power (x - a)^e needs it when e is negative (a singularity) or not
an integer (a kink); one rule, ``_nonsmooth``, decides that for the
adaptive rule (``quad_with_substitution``), the graded fixed rule
(``fixed_segment_nodes``) and the Markov-transform panels (``graded_nodes``).
The substitution x = a + (b - a) t^2 turns the factor into t^(2e + 1), and
it is iterated while that power is negative.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exceptions import QuadratureError

_LO = 12
_HI = 24
_EPS = float(np.finfo(np.float64).eps)


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
    """The integrals of K rows: per row the value, the error estimate and
    the number of accepted panels."""

    value: np.ndarray
    error: np.ndarray
    panels: np.ndarray


def adaptive_quad(f, a, b, *, tol=1e-12, max_panels=20000, max_depth=52):
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    ``f`` must accept a 1-D array of m points and return values of the same
    shape (real or complex), or K rows of them, shape (K, m).  A relative
    accuracy floor of a few ulps applies for integrands whose magnitude
    makes the absolute target unattainable.  Raises :class:`QuadratureError`
    when the panel budget is exhausted before the tolerance is met, or when
    the estimate or its error estimate is not finite; the exception carries
    the best estimate.

    With rows, every row keeps its own bisection tree, panel budget, depth
    cap, error sum and order of accumulation, so each row is bit for bit the
    integral of that row alone; a panel that several rows share is evaluated
    once.  The answer is then ``Rows`` of (value, error, panels) per row, and
    a failure raises for the lowest failing row, named by the exception's
    ``row``.
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
    right side), then t = u^2 again while the carried power 2e + 1 is
    negative, so any integrable power becomes nonnegative in finitely many
    steps."""
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
    """Integrate ``f`` over [a, b], substituting at non-smooth endpoints.

    ``exponents`` are the powers of (x - a) and (b - x) carried by the
    integrand.  A power that is negative or not an integer triggers the
    square-root substitution on that side (split at the midpoint when both
    ends need it), iterated until the carried power is nonnegative; with
    two integer powers ``f`` is integrated directly.  Rows of ``f`` pass
    through as in ``adaptive_quad``: the pieces add from 0.0, piece by
    piece, and a failure raises for the lowest row that fails on any piece,
    with the error of its first failing piece.
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
    """Gauss-Legendre nodes and weights on [lo, hi] after the substitution.

    ``breakpoints(lo, hi, side)`` returns the panel breakpoints on [0, 1] of
    each substituted piece; every panel gets an ``order``-point rule.  The
    jacobians are folded into the weights.
    """
    glx, glw = gauss_legendre(order)
    xs, ws = [], []
    for plo, phi, side, e in _pieces(lo, hi, exponents):
        x_of, jac_of = _piece_map(plo, phi, side, e)
        bps = breakpoints(plo, phi, side)
        for u0, u1 in zip(bps[:-1], bps[1:]):
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


def dyadic_breakpoints(levels, toward_one):
    """Panel breakpoints on [0, 1] refined dyadically toward one end."""
    pts = sorted_unique([0.0] + [1.0 - 0.5 ** k for k in range(1, levels + 1)] + [1.0])
    if not toward_one:
        pts = np.sort(1.0 - pts)
    return pts


def fixed_segment_nodes(lo, hi, exponents=(0.0, 0.0), *, levels=10, order=32):
    """Fixed quadrature nodes and weights on [lo, hi] for analytic integrands.

    Non-smooth endpoint powers are removed by the square-root substitution;
    panels are graded dyadically toward both ends.  Useful when many
    integrals share one smooth integrand family and adaptivity would just
    repeat work.  Returns (nodes, weights) with the substitution jacobians
    folded into the weights.
    """
    bps = sorted_unique(np.concatenate([dyadic_breakpoints(levels, True),
                                        dyadic_breakpoints(levels, False)]))
    return graded_nodes(lo, hi, exponents, lambda *piece: bps, order)


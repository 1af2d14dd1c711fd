"""Adaptive composite Gauss-Legendre quadrature.

Each panel is estimated with a 12-point and a 24-point rule; a panel is
accepted when the two agree within its share of the global tolerance and is
bisected otherwise.

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


def adaptive_quad(f, a, b, *, tol=1e-12, max_panels=20000, max_depth=52):
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    ``f`` must accept a 1-D array of points and return values of the same
    shape (real or complex).  A relative accuracy floor of a few ulps applies
    for integrands whose magnitude makes the absolute target unattainable.
    Raises :class:`QuadratureError` when the panel budget is exhausted before
    the tolerance is met, or when the estimate or its error estimate is not
    finite; the exception carries the best estimate.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise QuadratureError("integration endpoints must be finite")
    if a == b:
        return 0.0
    total_width = b - a
    stack = [(a, b, 0)]
    value = 0.0
    err_acc = 0.0
    panels = 0
    while stack:
        pa, pb, depth = stack.pop()
        xs_lo, ws_lo = panel_nodes(pa, pb, _LO)
        xs_hi, ws_hi = panel_nodes(pa, pb, _HI)
        lo = np.sum(ws_lo * f(xs_lo))
        hi = np.sum(ws_hi * f(xs_hi))
        err = abs(hi - lo)
        budget = tol * abs(pb - pa) / abs(total_width)
        if err <= max(budget, 32.0 * _EPS * abs(hi)) or depth >= max_depth:
            value = value + hi
            err_acc += err
            panels += 1
            if panels > max_panels:
                raise QuadratureError(
                    "panel budget exhausted", estimate=value, error_estimate=err_acc
                )
        else:
            mid = 0.5 * (pa + pb)
            stack.append((pa, mid, depth + 1))
            stack.append((mid, pb, depth + 1))
    if not (np.isfinite(value) and np.isfinite(err_acc)):
        raise QuadratureError("integral or its error estimate is not finite",
                              estimate=value, error_estimate=err_acc)
    if err_acc > max(4.0 * tol, 1e-13 * abs(value)):
        raise QuadratureError(
            f"quadrature stalled at error estimate {err_acc:.3e}",
            estimate=value,
            error_estimate=err_acc,
        )
    return value


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
    two integer powers ``f`` is integrated directly.
    """
    pieces = _pieces(a, b, exponents)
    if pieces[0][2] is None:
        return adaptive_quad(f, a, b, tol=tol)
    total = 0.0
    for lo, hi, side, e in pieces:
        x_of, jac_of = _piece_map(lo, hi, side, e)
        total += adaptive_quad(lambda u, x_of=x_of, jac_of=jac_of: f(x_of(u)) * jac_of(u),
                               0.0, 1.0, tol=tol / len(pieces))
    return total


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


def dyadic_breakpoints(levels, toward_one):
    """Panel breakpoints on [0, 1] refined dyadically toward one end."""
    pts = [0.0] + [1.0 - 0.5 ** k for k in range(1, levels + 1)] + [1.0]
    pts = np.unique(np.asarray(pts))
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
    bps = np.unique(np.concatenate([dyadic_breakpoints(levels, True),
                                    dyadic_breakpoints(levels, False)]))
    return graded_nodes(lo, hi, exponents, lambda *piece: bps, order)


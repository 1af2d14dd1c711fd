"""Small dense linear algebra: one LU elimination for three entry types.

LAPACK only accepts float32/float64, so the elimination is implemented
directly, and the same code serves every precision rung of the moment
solves:

* numeric input is promoted to 80-bit ``numpy.longdouble`` (tames Hankel
  conditioning at moderate n);
* object arrays of ``mpmath.mpf`` are factored in fixed point at the
  current ``mp`` precision (the checked mpmath ladder of type II, type I
  and the kernel);
* object arrays of ``fractions.Fraction`` stay exact (exact references).

Longdouble and Fraction entries keep their type, so identities are built
from the entries, never from integers (``int / int`` would make an exact
solve a float one).  An mpf matrix runs the same elimination loop on
Python ints, as a ``FixedLU``: each column is scaled by a power of two so
that its largest entry has P = ``mp.prec`` + ``GUARD`` bits, multipliers
are (a << P) // pivot and updates are shifted right by P.  Its
substitutions scale each right-hand side column the same way and solve
all columns at once, one object ``@`` per row; only the solutions are
rounded to ``mp.prec``.  The contract is accuracy, not mpf's rounding: each
solution column and det M lie within 2 n cond1(M) 2^-prec of the exact
ones, relative to the column's largest entry and to |det M|.  An inf or
nan entry takes the loops on the mpf objects.

Callers factor each matrix once, through this module's ``lu_factor``, and
hand its (lu, piv, parity) to ``lu_det``, ``lu_solve`` (with A or,
transposed, A^T), ``cond1`` and ``inverse_cond1``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .exceptions import NumericError

LD = np.longdouble

#: bits beyond ``mp.prec`` in the columns and multipliers of a ``FixedLU``
GUARD = 16


class FixedLU(NamedTuple):
    """P M 2^-shift = L U for an mpf matrix M, in Python ints: ``lu`` holds U,
    column j in units of 2^shift[j], and below it L times 2^bits."""

    lu: np.ndarray
    shift: np.ndarray
    bits: int


def _entries(a):
    """Copy of ``a``: object arrays keep their entries, the rest become longdouble."""
    a = np.asarray(a)
    return np.array(a, dtype=object if a.dtype == object else LD, copy=True)


def _identity(lu):
    """Identity matrix in the entry type of ``lu`` (int for a ``FixedLU``)."""
    one = 1 if isinstance(lu, FixedLU) else lu[0, 0] ** 0
    return np.where(np.eye(len(lu[0]), dtype=bool), one, one - one)


def _is_mpf(a):
    """Whether ``a`` is an object array holding an mpf."""
    return a.dtype == object and any(hasattr(e, "_mpf_") for e in a.flat)


def _fixed(a, bits, rows=0):
    """(F, s): Python ints F and column exponents s with a[i, j] 2^-(rows[i]
    + s[j]) = F[i, j] + d, 0 <= d < 1, each nonzero column's largest |F|
    ``bits`` bits long, for the 2-d object array ``a`` of mpf (and exact
    ints, such as ``np.triu``'s zeros); None if an entry is inf or nan."""
    from mpmath import mp, mpf

    conv = mp.convert
    t = [[(v if type(v) is mpf else conv(v))._mpf_ for v in row] for row in a.tolist()]
    if any(not m and e for row in t for _, m, e, _ in row):
        return None
    rows = [rows] * len(t) if np.ndim(rows) == 0 else rows
    tops = [max((e - r + bc for (_, m, e, bc), r in zip(col, rows) if m), default=bits)
            for col in zip(*t)]
    shift = np.array([top - bits for top in tops], dtype=object)
    return np.array([[(-(m << d) if sg else m << d) if (d := e - r - s) >= 0
                      else (-m if sg else m) >> -d for (sg, m, e, _), s in zip(row, shift)]
                     for row, r in zip(t, rows)], dtype=object), shift


def _mpf_array(ints, exps):
    """The object array of mpf ints 2^exps (broadcast), each rounded
    half-even to ``mp.prec``."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp

    prec, exps = mp.prec, np.broadcast_to(np.asarray(exps, dtype=object), ints.shape)
    return np.array([mp.make_mpf(from_man_exp(m, e, prec, "n"))
                     for m, e in zip(ints.flat, exps.flat)], dtype=object).reshape(ints.shape)


def _eliminate(lu, divide=np.divide, product=np.multiply.outer):
    """Partial pivoting on the first maximal |entry| of each column, in place:
    multipliers divide(column, pivot, out=column), updates product(them, row)."""
    n = lu.shape[0]
    piv = np.arange(n)
    parity = 1
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            piv[[k, p]] = piv[[p, k]]
            parity = -parity
        pivot = lu[k, k]
        if pivot == 0:
            continue
        divide(lu[k + 1 :, k], pivot, out=lu[k + 1 :, k])
        lu[k + 1 :, k + 1 :] -= product(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, piv, parity


def lu_factor(a):
    """LU with partial pivoting, in the entry type of ``a`` (see module doc);
    an mpf matrix gives a ``FixedLU`` (``_fixed_lu``).

    Returns (lu, piv, parity): compact LU, pivot rows, and the permutation
    sign (+1/-1).
    """
    lu = _entries(a)
    n = lu.shape[0]
    if lu.shape != (n, n):
        raise NumericError("lu_factor expects a square matrix")
    return (_is_mpf(lu) and _fixed_lu(lu)) or _eliminate(lu)


def _fixed_lu(a):
    """The ``FixedLU`` factors of the mpf matrix ``a``; None if it holds inf or nan."""
    from mpmath import mp

    bits = mp.prec + GUARD
    fixed = _fixed(a, bits)
    if fixed is None:
        return None
    lu, piv, parity = _eliminate(fixed[0], lambda c, p, out: np.floor_divide(c << bits, p, out=out),
                                 lambda mult, row: np.multiply.outer(mult, row) >> bits)
    return FixedLU(lu, fixed[1], bits), piv, parity


def lu_det(lu, parity):
    """Determinant from a compact LU, in the entry type; a ``FixedLU``
    gives mpf, the product of its pivots times 2^sum(shift)."""
    if isinstance(lu, FixedLU):
        return _mpf_array(np.array([parity * math.prod(np.diagonal(lu.lu))]), sum(lu.shift))[0]
    return parity * np.prod(np.diagonal(lu))


def lu_solve(lu, piv, b, transpose=False):
    """Solve A x = b, or A^T x = b when ``transpose`` (b may be a vector or
    a matrix of columns), from the factors of P A = L U; a ``FixedLU``
    gives mpf solutions (``_fixed_solve``).

    A^T = U^T L^T P, so the transposed solve is U^T y = b forward, L^T z = y
    backward and x[piv] = z: one factorization serves both systems.
    """
    if isinstance(lu, FixedLU):
        return _fixed_solve(lu, piv, b, transpose)
    n = len(lu)
    x = np.array(b, dtype=object) if _is_mpf(lu) else _entries(b)
    one_d = x.ndim == 1
    if one_d:
        x = x[:, None]
    if not transpose:
        x = x[piv]
    if transpose:
        for k in range(n):  # forward, U^T
            if lu[k, k] == 0:
                raise NumericError("singular matrix in lu_solve")
            x[k] /= lu[k, k]
            x[k + 1 :] -= np.multiply.outer(lu[k, k + 1 :], x[k])
        for k in range(n - 1, 0, -1):  # backward, unit L^T
            x[:k] -= np.multiply.outer(lu[k, :k], x[k])
    else:
        for k in range(n):  # forward, unit lower triangle
            x[k + 1 :] -= np.multiply.outer(lu[k + 1 :, k], x[k])
        for k in range(n - 1, -1, -1):  # backward
            if lu[k, k] == 0:
                raise NumericError("singular matrix in lu_solve")
            x[k] /= lu[k, k]
            x[:k] -= np.multiply.outer(lu[:k, k], x[k])
    if transpose:
        x = x[np.argsort(piv)]
    return x[:, 0] if one_d else x


def _fixed_solve(factors, piv, b, transpose):
    """``lu_solve`` with a ``FixedLU``, on the columns of b in ints (``_fixed``;
    for A^T, row i of b times 2^-shift[i]), one object ``@`` per row: L's
    terms are shifted right by ``bits``, U's quotients floored after x is
    widened by ``bits``.  An inf or nan in b takes the loops on the LU in
    mpf."""
    lu, shift, bits = factors
    n = len(lu)
    ints = _fixed(np.array(b, dtype=object).reshape(n, -1), bits, shift if transpose else 0)
    if ints is None:
        return lu_solve(_mpf_array(lu, np.where(np.tri(n, k=-1, dtype=bool), -bits, shift)),
                        piv, b, transpose)
    x, scale = ints
    if not all(np.diagonal(lu)):
        raise NumericError("singular matrix in lu_solve")
    if transpose:  # M^T = 2^shift U^T L^T P
        x <<= bits
        for i in range(n):  # forward, U^T
            x[i] = (x[i] - lu[:i, i] @ x[:i]) // lu[i, i]
        for i in range(n - 2, -1, -1):  # backward, unit L^T
            x[i] -= (lu[i + 1 :, i] @ x[i + 1 :]) >> bits
        x, exps = x[np.argsort(piv)], scale - bits
    else:  # M = P^T L U 2^shift
        x = x[piv]
        for i in range(1, n):  # forward, unit lower triangle
            x[i] -= (lu[i, :i] @ x[:i]) >> bits
        x <<= bits
        for i in range(n - 1, -1, -1):  # backward
            x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) // lu[i, i]
        exps = scale - bits - shift[:, None]
    return _mpf_array(x, exps).reshape(np.shape(b))


def solve(a, b):
    lu, piv, _ = lu_factor(a)
    return lu_solve(lu, piv, b)


def det(a):
    lu, _, parity = lu_factor(a)
    return lu_det(lu, parity)


def inverse_cond1(a, factors):
    """(A^-1, |A|_1 |A^-1|_1): the explicit inverse (tiny matrices), solved
    on identity columns from ``factors``, the ``lu_factor`` of ``a``, and
    the 1-norm condition estimate it gives.  Raises :class:`NumericError`
    when ``a`` is singular."""
    lu, piv, _ = factors
    inv = lu_solve(lu, piv, _identity(lu))
    norm = np.abs(np.asarray(a, dtype=LD)).sum(axis=0).max()
    return inv, float(norm * np.abs(inv).sum(axis=0).max())


def cond1(a, factors):
    """1-norm condition estimate of ``a`` (``inverse_cond1``); inf when singular."""
    try:
        return inverse_cond1(a, factors)[1]
    except NumericError:
        return np.inf


def solve_fractions(a, b):
    """Exact solve of A x = b over the rationals (entries are Fractions).
    The library no longer calls it; ``perfbench/tracing.py`` still times it."""
    return solve(np.array(a, dtype=object), np.array(b, dtype=object))

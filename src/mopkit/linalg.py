"""Small dense linear algebra: one LU elimination for three entry types.

LAPACK only accepts float32/float64, so the elimination is implemented
directly, and the same code serves every precision rung of the moment
solves:

* numeric input is promoted to 80-bit ``numpy.longdouble`` (tames Hankel
  conditioning at moderate n);
* object arrays of ``mpmath.mpf`` compute at the current ``mp`` precision
  (the checked mpmath ladder of type II, type I and the kernel);
* object arrays of ``fractions.Fraction`` stay exact (exact references).

The entry type selects the loop.  Longdouble and Fraction arrays run numpy
loops whose entries keep their type, so identities are built from the
entries, never from integers (``int / int`` would make an exact solve a
float one).  mpf arrays run the same loops on rows of raw ``_mpf_`` tuples
through ``mpmath.libmp``: same pivot order, same rounding per operation, so
mpf arithmetic's results bit for bit, and untouched entries keep their own
precision.

Callers factor each matrix once, through this module's ``lu_factor``, and
hand its (lu, piv, parity) to ``lu_det``, ``lu_solve`` (with A or,
transposed, A^T), ``cond1`` and ``inverse_cond1``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericError

LD = np.longdouble


def _entries(a):
    """Copy of ``a``: object arrays keep their entries, the rest become longdouble."""
    a = np.asarray(a)
    return np.array(a, dtype=object if a.dtype == object else LD, copy=True)


def _identity(lu):
    """Identity matrix in the entry type of ``lu``."""
    one = lu[0, 0] ** 0
    return np.where(np.eye(lu.shape[0], dtype=bool), one, one - one)


def _raw(a, force=False):
    """Rows of raw ``_mpf_`` tuples of ``a``, None if it holds no mpf (unless
    ``force``); other entries (the int zeros of ``np.triu``) convert exactly."""
    if not force and (a.dtype != object or not any(hasattr(e, "_mpf_") for e in a.flat)):
        return None
    from mpmath import mp

    return [[mp.convert(e)._mpf_ for e in row] for row in a]


def _libmp():
    """mpf rows from raw rows, and v - m u, x / d and |x| on raw tuples, each
    rounded at the working precision as mpf arithmetic rounds it."""
    from mpmath import mp
    from mpmath.libmp import mpf_abs, mpf_div, mpf_mul, mpf_sub

    prec, rnd = mp._prec_rounding
    return (lambda rows: np.array([[mp.make_mpf(v) for v in r] for r in rows], dtype=object),
            lambda m, u, v: [mpf_sub(y, mpf_mul(m, w, prec, rnd), prec, rnd)
                             for w, y in zip(u, v)],
            lambda x, d: mpf_div(x, d, prec, rnd), lambda x: mpf_abs(x, prec, rnd))


def _mpf_lu(rows):
    """The numpy loop of ``lu_factor`` on rows of raw tuples, op for op."""
    from mpmath.libmp import fzero, mpf_gt

    mpf_rows, axpy, div, absolute = _libmp()
    n, piv, parity = len(rows), list(range(len(rows))), 1
    for k in range(n - 1):
        p = k
        for i in range(k + 1, n):  # the first maximal |entry|, as np.argmax picks it
            if mpf_gt(absolute(rows[i][k]), absolute(rows[p][k])):
                p = i
        if p != k:
            rows[k], rows[p], piv[k], piv[p], parity = rows[p], rows[k], piv[p], piv[k], -parity
        pivot, top = rows[k][k], rows[k][k + 1 :]
        if pivot == fzero:
            continue
        for r in rows[k + 1 :]:
            r[k] = div(r[k], pivot)
            r[k + 1 :] = axpy(r[k], top, r[k + 1 :])
    return mpf_rows(rows), np.array(piv), parity


def _mpf_substitute(lu, x, transpose=False):
    """The numpy loops of ``lu_solve`` on rows of raw tuples, op for op."""
    from mpmath.libmp import fzero

    mpf_rows, axpy, div, _ = _libmp()
    n = len(lu)
    if transpose:
        for k in range(n):
            if lu[k][k] == fzero:
                raise NumericError("singular matrix in lu_solve")
            x[k] = [div(v, lu[k][k]) for v in x[k]]
            for i in range(k + 1, n):
                x[i] = axpy(lu[k][i], x[k], x[i])
        for k in range(n - 1, 0, -1):
            for i in range(k):
                x[i] = axpy(lu[k][i], x[k], x[i])
        return mpf_rows(x)
    for k in range(n):
        for i in range(k + 1, n):
            x[i] = axpy(lu[i][k], x[k], x[i])
    for k in range(n - 1, -1, -1):
        if lu[k][k] == fzero:
            raise NumericError("singular matrix in lu_solve")
        x[k] = [div(v, lu[k][k]) for v in x[k]]
        for i in range(k):
            x[i] = axpy(lu[i][k], x[k], x[i])
    return mpf_rows(x)


def lu_factor(a):
    """LU with partial pivoting, in the entry type of ``a`` (see module doc).

    Returns (lu, piv, parity): compact LU, pivot rows, and the permutation
    sign (+1/-1).
    """
    lu = _entries(a)
    n = lu.shape[0]
    if lu.shape != (n, n):
        raise NumericError("lu_factor expects a square matrix")
    rows = _raw(lu)
    if rows is not None:
        return _mpf_lu(rows)
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
        lu[k + 1 :, k] /= pivot
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, piv, parity


def lu_det(lu, parity):
    """Determinant from a compact LU, in the entry type."""
    return parity * np.prod(np.diagonal(lu))


def lu_solve(lu, piv, b, transpose=False):
    """Solve A x = b, or A^T x = b when ``transpose`` (b may be a vector or
    a matrix of columns), from the factors of P A = L U.

    A^T = U^T L^T P, so the transposed solve is U^T y = b forward, L^T z = y
    backward and x[piv] = z: one factorization serves both systems.
    """
    n = lu.shape[0]
    rows = _raw(lu)
    x = _entries(b) if rows is None else np.asarray(b, dtype=object)
    one_d = x.ndim == 1
    if one_d:
        x = x[:, None]
    if not transpose:
        x = x[piv]
    if rows is not None:
        x = _mpf_substitute(rows, _raw(x, force=True), transpose)
    elif transpose:
        for k in range(n):  # forward, U^T
            if lu[k, k] == 0:
                raise NumericError("singular matrix in lu_solve")
            x[k] /= lu[k, k]
            x[k + 1 :] -= np.outer(lu[k, k + 1 :], x[k])
        for k in range(n - 1, 0, -1):  # backward, unit L^T
            x[:k] -= np.outer(lu[k, :k], x[k])
    else:
        for k in range(n):  # forward, unit lower triangle
            x[k + 1 :] -= np.outer(lu[k + 1 :, k], x[k])
        for k in range(n - 1, -1, -1):  # backward
            if lu[k, k] == 0:
                raise NumericError("singular matrix in lu_solve")
            x[k] /= lu[k, k]
            x[:k] -= np.outer(lu[:k, k], x[k])
    if transpose:
        x = x[np.argsort(piv)]
    return x[:, 0] if one_d else x


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

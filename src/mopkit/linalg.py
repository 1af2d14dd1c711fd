"""Small dense linear algebra: one LU elimination for three entry types.

LAPACK only accepts float32/float64, so the elimination is implemented
directly, and the same code serves every precision rung of the moment
solves:

* numeric input is promoted to 80-bit ``numpy.longdouble`` (tames Hankel
  conditioning at moderate n);
* object arrays of ``fractions.Fraction`` stay exact (large-n zero studies
  with rational moments);
* object arrays of ``mpmath.mpf`` compute at the current ``mp`` precision
  (ill-conditioned type I systems and kernels).

Object entries keep their type through every operation, so identities and
unit diagonals are built from the entries themselves, never from integers
(``int / int`` would turn an exact solve into a float one).  Matrices here
are at most ~30 x 30, so plain row-loop elimination is more than fast
enough.
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


def lu_factor(a):
    """LU with partial pivoting, in the entry type of ``a`` (see module doc).

    Returns (lu, piv, parity): compact LU, pivot rows, and the permutation
    sign (+1/-1).
    """
    lu = _entries(a)
    n = lu.shape[0]
    if lu.shape != (n, n):
        raise NumericError("lu_factor expects a square matrix")
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


def lu_solve(lu, piv, b):
    """Solve A x = b (b may be a vector or a matrix of columns)."""
    n = lu.shape[0]
    x = _entries(b)
    one_d = x.ndim == 1
    if one_d:
        x = x[:, None]
    x = x[piv]
    for k in range(n):  # forward, unit lower triangle
        x[k + 1 :] -= np.outer(lu[k + 1 :, k], x[k])
    for k in range(n - 1, -1, -1):  # backward
        if lu[k, k] == 0:
            raise NumericError("singular matrix in lu_solve")
        x[k] /= lu[k, k]
        x[:k] -= np.outer(lu[:k, k], x[k])
    return x[:, 0] if one_d else x


def solve(a, b):
    lu, piv, _ = lu_factor(a)
    return lu_solve(lu, piv, b)


def det(a):
    lu, _, parity = lu_factor(a)
    return lu_det(lu, parity)


def inverse(a):
    lu, piv, _ = lu_factor(a)
    return lu_solve(lu, piv, _identity(lu))


def biorthogonal_pair(a):
    """phi = L^-1 P and psi = U^-T from one factorization P A = L U.

    Then phi A psi^T = I: the pair is the coefficient form of a
    biorthogonal system.  Returns (phi, psi, defect), where ``defect`` is
    max |phi A psi^T - I| as a float.  Each triangle is inverted by
    substitution alone, without pivoting again.
    """
    lu, piv, _ = lu_factor(a)
    eye = _identity(lu)
    phi = lu_solve(np.tril(lu, -1) + eye, piv, eye)
    psi = lu_solve(np.triu(lu), np.arange(len(lu)), eye).T
    defect = float(np.max(np.abs(phi @ _entries(a) @ psi.T - eye)))
    return phi, psi, defect


def cond1(a):
    """1-norm condition estimate via the explicit inverse (tiny matrices)."""
    a = np.asarray(a, dtype=LD)
    try:
        inv = inverse(a)
    except NumericError:
        return np.inf
    norm = np.abs(a).sum(axis=0).max()
    inorm = np.abs(inv).sum(axis=0).max()
    return float(norm * inorm)


def solve_fractions(a, b):
    """Exact solve of A x = b over the rationals (entries are Fractions)."""
    return solve(np.array(a, dtype=object), np.array(b, dtype=object))

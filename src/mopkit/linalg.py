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
float one).  mpf arrays run the same loops on ``Pairs``, rows of (m, e)
pairs, signed integer mantissas and exponents (value m 2^e, not
normalized), converted once on the way in and once on the way out of each
call.  ``Pairs`` are an entry type of their own: ``lu_factor`` of
``Pairs`` keeps its LU in pairs, and ``lu_det`` and ``lu_solve`` take that
LU as it is, so a caller that solves with one LU many times converts only
the matrix and each solution.  One kernel, ``_fms``, computes every y - c x
as ``mpmath.libmp`` rounds it: the exact product rounded half-even to
``mp.prec``, then the exact difference rounded half-even; where libmp does
not round the exact sum (a y wider than ``mp.prec`` far above the
product), it takes libmp's own path.  Same pivot order, same rounding per
operation, so mpf arithmetic's results bit for bit, and untouched entries
keep their own precision.  The substitutions run entry by entry, each
entry's updates in one loop.  An inf or nan entry sends the call to the
numpy loop on the mpf objects themselves.

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


def _is_mpf(a):
    """Whether ``a`` is an object array holding an mpf."""
    return a.dtype == object and any(hasattr(e, "_mpf_") for e in a.flat)


class Pairs(list):
    """Rows of (m, e) pairs, value m 2^e: an mpf matrix as integers."""


def pairs(a):
    """The ``Pairs`` of the object array ``a`` (its other entries, the int
    zeros of ``np.triu``, convert exactly); None if an entry is inf or nan,
    which only mpf arithmetic itself handles."""
    from mpmath import mp, mpf

    conv = mp.convert
    rows = [[(v if type(v) is mpf else conv(v))._mpf_ for v in row] for row in a]
    if any(not t[1] and t[2] for row in rows for t in row):
        return None
    return Pairs([(-m if s else m, e) for s, m, e, _ in row] for row in rows)


def _mpf_array(rows):
    """The object array of mpf of rows of (m, e) pairs."""
    from mpmath import mp
    from mpmath.libmp import from_man_exp

    return np.array([[mp.make_mpf(from_man_exp(m, e)) for m, e in r] for r in rows], dtype=object)


def _round(m, e, prec):
    """m 2^e rounded half-even to ``prec`` bits: q = m >> (n - 1) keeps the
    half bit, and the floor shift makes the rule hold for negative m too."""
    n = m.bit_length() - prec
    if n > 0:
        q = m >> (n - 1)
        return ((q + 1) >> 1 if q & 1 and (q & 2 or m & ((1 << (n - 1)) - 1)) else q >> 1), e + n
    return m, e


def _fms(y, c, x, prec):
    """y - c x on (m, e) pairs as ``mpf_sub(y, mpf_mul(c, x))`` rounds it at
    ``prec`` bits: the exact product rounded half-even, then the exact
    difference rounded half-even (``_round``, inlined).  One case takes
    libmp's own path: a y wider than ``prec`` bits whose top lies more than
    prec + 4 bits above the product's, where ``mpf_add`` replaces the
    product by a sticky bit instead of rounding the exact sum."""
    m, e = y
    p = c[0] * x[0]
    if p:
        pe = c[1] + x[1]
        n = p.bit_length() - prec
        if n > 0:
            q = p >> (n - 1)
            p = (q + 1) >> 1 if q & 1 and (q & 2 or p & ((1 << (n - 1)) - 1)) else q >> 1
            pe += n
        if not m:
            return -p, pe
        if m.bit_length() > prec and m.bit_length() + e - p.bit_length() - pe > prec + 4:
            from mpmath.libmp import from_man_exp, mpf_sub, round_nearest

            s, m, e, _ = mpf_sub(from_man_exp(m, e), from_man_exp(p, pe), prec, round_nearest)
            return (-m if s else m), e
        d = e - pe
        if d > 0:
            m, e = (m << d) - p, pe
        elif d:
            m -= p << -d
        else:
            m -= p
    n = m.bit_length() - prec
    if n > 0:
        q = m >> (n - 1)
        return ((q + 1) >> 1 if q & 1 and (q & 2 or m & ((1 << (n - 1)) - 1)) else q >> 1), e + n
    return m, e


def _div(x, d, prec):
    """x / d on (m, e) pairs, d nonzero, rounded half-even as ``mpf_div``:
    a quotient of at least prec + 3 bits and a sticky bit for the remainder."""
    m, e = x
    if not m:
        return x
    dm, de = d
    shift = max(prec + 3 + dm.bit_length() - m.bit_length(), 0)
    q, r = divmod(abs(m) << shift, abs(dm))
    q, e = _round((q << 1) | (r != 0), e - de - shift - 1, prec)
    return (-q if (m < 0) != (dm < 0) else q), e


def _magnitude(x, prec):
    """A key that orders the (m, e) pairs by |x| rounded to ``prec`` bits,
    as ``mpf_abs`` rounds it; equal keys for equal values."""
    m, e = _round(abs(x[0]), x[1], prec)
    return (m.bit_length() + e, m << (prec + 1 - m.bit_length())) if m else (-np.inf, 0)


def _mpf_lu(rows):
    """The numpy loop of ``lu_factor`` on rows of (m, e) pairs, op for op;
    the LU stays in ``Pairs``."""
    from mpmath import mp

    prec, n = mp.prec, len(rows)
    piv, parity = list(range(n)), 1
    for k in range(n - 1):
        # the first maximal |entry|, as np.argmax picks it
        p = max(range(k, n), key=lambda i: _magnitude(rows[i][k], prec))
        if p != k:
            rows[k], rows[p], piv[k], piv[p], parity = rows[p], rows[k], piv[p], piv[k], -parity
        pivot, top = rows[k][k], rows[k][k + 1 :]
        if not pivot[0]:
            continue
        for r in rows[k + 1 :]:
            c = r[k] = _div(r[k], pivot, prec)
            r[k + 1 :] = [_fms(y, c, x, prec) for y, x in zip(r[k + 1 :], top)]
    return Pairs(rows), np.array(piv), parity


def _mpf_substitute(lu, x, transpose=False):
    """The numpy loops of ``lu_solve`` on rows of (m, e) pairs, entry by
    entry: each entry takes its updates in one loop, in the order of the
    column loops (ascending k forward, descending k backward), then its
    division (forward with A^T, backward with A).  The coefficient of x_k
    in row i is lu[k][i] with A^T, lu[i][k] with A.  A term whose x_k is an
    exact zero is dropped while the entry fits in the working precision."""
    from mpmath import mp

    prec, n = mp.prec, len(lu)
    if any(not lu[k][k][0] for k in range(n)):
        raise NumericError("singular matrix in lu_solve")
    a = list(zip(*lu)) if transpose else lu
    passes = ([(i, range(i), transpose) for i in range(n)]
              + [(i, range(n - 1, i, -1), not transpose) for i in range(n - 1, -1, -1)])
    cols = [list(c) for c in zip(*x)]
    for col in cols:
        for i, ks, divide in passes:
            acc, row = col[i], a[i]
            for k in ks:  # y - c 0 rounds nothing while y fits in prec bits
                if col[k][0] or acc[0].bit_length() > prec:
                    acc = _fms(acc, row[k], col[k], prec)
            col[i] = _div(acc, row[i], prec) if divide else acc
    return _mpf_array(list(zip(*cols)))


def lu_factor(a):
    """LU with partial pivoting, in the entry type of ``a`` (see module doc).

    Returns (lu, piv, parity): compact LU, pivot rows, and the permutation
    sign (+1/-1).
    """
    if isinstance(a, Pairs):
        return _mpf_lu([list(row) for row in a])
    lu = _entries(a)
    n = lu.shape[0]
    if lu.shape != (n, n):
        raise NumericError("lu_factor expects a square matrix")
    rows = pairs(lu) if _is_mpf(lu) else None
    if rows is not None:
        lu, piv, parity = _mpf_lu(rows)
        return _mpf_array(lu), piv, parity
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
    """Determinant from a compact LU, in the entry type; an LU in ``Pairs``
    gives mpf from its diagonal."""
    if isinstance(lu, Pairs):
        return parity * np.prod(_mpf_array([[row[i] for i, row in enumerate(lu)]])[0])
    return parity * np.prod(np.diagonal(lu))


def lu_solve(lu, piv, b, transpose=False):
    """Solve A x = b, or A^T x = b when ``transpose`` (b may be a vector or
    a matrix of columns), from the factors of P A = L U; an LU in ``Pairs``
    gives mpf solutions.

    A^T = U^T L^T P, so the transposed solve is U^T y = b forward, L^T z = y
    backward and x[piv] = z: one factorization serves both systems.
    """
    n, kept = len(lu), isinstance(lu, Pairs)
    mpf = kept or _is_mpf(lu)
    x = np.array(b, dtype=object) if mpf else _entries(b)
    one_d = x.ndim == 1
    if one_d:
        x = x[:, None]
    if not transpose:
        x = x[piv]
    rows = (lu if kept else pairs(lu)) if mpf else None
    xs = None if rows is None else pairs(x)
    if xs is not None:
        x = _mpf_substitute(rows, xs, transpose)
    elif kept:
        return lu_solve(_mpf_array(lu), piv, b, transpose)
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

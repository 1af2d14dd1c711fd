"""The one LU elimination on its three entry types: longdouble, Fraction, mpf."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from mopkit import linalg
from mopkit.exceptions import NumericError

LD = np.longdouble
DPS = 50


def _to_ld(f):
    return LD(f.numerator) / LD(f.denominator)


def _to_mpf(f):
    return mpmath.mpf(f.numerator) / f.denominator


#: entry type -> (conversion from Fraction, numpy dtype, relative unit roundoff)
RUNGS = {
    "longdouble": (_to_ld, LD, float(np.finfo(LD).eps)),
    "fraction": (lambda f: f, object, 0.0),
    "mpf": (_to_mpf, object, 10.0 ** (1 - DPS)),
}


@pytest.fixture(params=sorted(RUNGS))
def rung(request):
    convert, dtype, eps = RUNGS[request.param]
    entries = np.vectorize(convert, otypes=[dtype])
    with mpmath.mp.workdps(DPS):
        yield request.param, entries, eps


def angelesco_hankel(parts=(3, 3)):
    """Exact block Hankel moment matrix of x^k on [-1, 0] and [0, 1]."""
    moments = [[Fraction((-1) ** k, k + 1) for k in range(12)],
               [Fraction(1, k + 1) for k in range(12)]]
    return np.array([[moments[j][r + l] for j, nj in enumerate(parts) for l in range(nj)]
                     for r in range(sum(parts))], dtype=object)


SINGULAR = [[Fraction(v) for v in row] for row in ([0, 1, 2], [0, 3, 4], [0, 5, 7])]


def test_solve_block_hankel(rung):
    name, entries, eps = rung
    exact_m = angelesco_hankel()
    n = exact_m.shape[0]
    exact_b = np.array([Fraction(0)] * (n - 1) + [Fraction(1)], dtype=object)
    exact_x = linalg.solve(exact_m, exact_b)
    assert all(isinstance(v, Fraction) for v in exact_x)
    assert np.all(exact_m @ exact_x == exact_b)

    x = linalg.solve(entries(exact_m), entries(exact_b))
    if name == "fraction":
        assert np.all(x == exact_x)
        return
    if name == "longdouble":
        assert x.dtype == LD
    else:
        assert all(isinstance(v, mpmath.mpf) for v in x)
    cond = linalg.cond1(exact_m.astype(float))
    err = np.max(np.abs(x - entries(exact_x)))
    assert err <= 100 * cond * eps * np.max(np.abs(x))


def test_singular_det_and_solve(rung):
    _, entries, _ = rung
    a = entries(np.array(SINGULAR, dtype=object))
    assert linalg.det(a) == 0
    lu, piv, _ = linalg.lu_factor(a)
    with pytest.raises(NumericError):
        linalg.lu_solve(lu, piv, a[:, 0])


def test_biorthogonal_pair_gram_identity(rung):
    name, entries, eps = rung
    m = entries(angelesco_hankel())
    phi, psi, defect = linalg.biorthogonal_pair(m)
    gram = phi @ m @ psi.T
    n = m.shape[0]
    if name == "fraction":
        assert np.all(gram == np.eye(n, dtype=int)) and defect == 0.0
        return
    tol = 100 * linalg.cond1(m.astype(float)) * eps
    assert defect <= tol
    assert np.max(np.abs(gram - np.eye(n))) <= tol

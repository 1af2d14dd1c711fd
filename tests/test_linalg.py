"""The one LU elimination on its three entry types: longdouble, Fraction, mpf.

On mpf input it must reproduce ``helpers``' numpy loop on mpf objects bit for bit."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

import helpers
import mopkit as mk
from mopkit import highprec, linalg
from mopkit.exceptions import NumericError
from mopkit.mop import _hankel_from, as_multi_index

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


def _cond(m):
    """``linalg.cond1`` of ``m`` in floats."""
    m = m.astype(float)
    return linalg.cond1(m, linalg.lu_factor(m))


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
    cond = _cond(exact_m)
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
    phi, psi, defect = linalg.biorthogonal_pair(m, linalg.lu_factor(m))
    gram = phi @ m @ psi.T
    n = m.shape[0]
    if name == "fraction":
        assert np.all(gram == np.eye(n, dtype=int)) and defect == 0.0
        return
    tol = 100 * _cond(m) * eps
    assert defect <= tol
    assert np.max(np.abs(gram - np.eye(n))) <= tol


# -- the transposed solve through the same factors ---------------------------

def test_transposed_solve_is_exact_on_fractions():
    a = angelesco_hankel()
    lu, piv, _ = linalg.lu_factor(a)
    b = np.array([Fraction(k - 2, k + 1) for k in range(len(a))], dtype=object)
    for rhs in (b, np.stack([b, a[:, 0]], axis=1)):
        x = linalg.lu_solve(lu, piv, rhs, transpose=True)
        assert all(isinstance(v, Fraction) for v in x.flat)
        assert np.all(a.T @ x == rhs)


def test_transposed_solve_matches_numpy_on_longdouble():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((8, 8)) + 8 * np.eye(8)
    a[[0, 5]] = a[[5, 0]]  # a pivot row swap
    b = rng.standard_normal((8, 3))
    lu, piv, _ = linalg.lu_factor(a)
    assert list(piv) != list(range(8))
    x = linalg.lu_solve(lu, piv, b, transpose=True)
    assert x.dtype == LD
    ref = np.linalg.solve(a.T, b)
    assert np.max(np.abs(x - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert np.array_equal(linalg.lu_solve(lu, piv, b[:, 0], transpose=True), x[:, 0])


def test_transposed_solve_of_a_singular_matrix_raises(rung):
    _, entries, _ = rung
    a = entries(np.array(SINGULAR, dtype=object))
    lu, piv, _ = linalg.lu_factor(a)
    with pytest.raises(NumericError):
        linalg.lu_solve(lu, piv, a[0], transpose=True)


# -- the mpf path against the numpy loop on mpf objects, bit for bit ---------

def _hankel(name, parts, rows_dps):
    """Block Hankel moment matrix from ``highprec.moment_rows`` at ``rows_dps``."""
    C = mk.WeightSpec.constant
    ws = {"angelesco": lambda: mk.build_angelesco([C(-1.0, 0.0), C(0.0, 1.0)]),
          "legendre": lambda: mk.build_angelesco([C(-1.0, 1.0)]),
          "nikishin": lambda: mk.build_nikishin(C(1.0, 2.0), [C(-1.0, 0.0)])}[name]()
    nvec = as_multi_index(parts)
    with mpmath.mp.workdps(rows_dps):
        rows = highprec.moment_rows(ws, nvec.n + max(nvec.parts))
    return _hankel_from(rows, nvec, nvec.n)


def _raw(x):
    """``_mpf_`` of every entry (ints as they are), with the shape."""
    return np.shape(x), [getattr(v, "_mpf_", v) for v in np.ravel(np.asarray(x, dtype=object))]


def _same_as_reference(a):
    """Every mpf entry point of ``linalg`` against ``helpers``, ``_mpf_`` for ``_mpf_``."""
    def outcome(fn, *args):
        try:
            return fn(*args)
        except NumericError:
            return NumericError

    lu, piv, parity = linalg.lu_factor(a)
    ref_lu, ref_piv, ref_parity = helpers.ref_lu_factor(a)
    assert _raw(lu) == _raw(ref_lu)
    assert list(piv) == list(ref_piv) and parity == ref_parity
    # 1, 2 and n columns, and the identity's: the explicit inverse
    for b in (a[:, -1], a[::-1, :2], a.T, helpers.ref_identity(ref_lu)):
        x, ref_x = outcome(linalg.lu_solve, lu, piv, b), outcome(helpers.ref_lu_solve, lu, piv, b)
        assert x is ref_x is NumericError or _raw(x) == _raw(ref_x)
    assert _raw(linalg.det(a)) == _raw(helpers.ref_det(a))
    pair = outcome(linalg.biorthogonal_pair, a, (lu, piv, parity))
    ref_pair = outcome(helpers.ref_biorthogonal_pair, a)
    if pair is ref_pair is NumericError:
        return
    assert [_raw(m) for m in pair[:2]] == [_raw(m) for m in ref_pair[:2]]
    assert pair[2] == ref_pair[2]


HANKELS = [("angelesco", (3, 3)), ("legendre", (30,)), ("nikishin", (8, 8))]


@pytest.mark.parametrize("name,parts", HANKELS)
@pytest.mark.parametrize("rows_dps,dps", [(20, 20), (50, 50), (110, 110), (64, 50)])
def test_mpf_path_matches_object_loop_bit_for_bit(name, parts, rows_dps, dps):
    a = _hankel(name, parts, rows_dps)
    with mpmath.mp.workdps(dps):
        _same_as_reference(a)


def test_mpf_path_on_singular_triu_and_ties_matches_object_loop():
    with mpmath.mp.workdps(DPS):
        singular = np.vectorize(_to_mpf, otypes=[object])(np.array(SINGULAR, dtype=object))
        _same_as_reference(singular)
        upper = np.triu(_hankel("angelesco", (3, 3), DPS))
        assert any(type(v) is int for v in upper.flat)
        _same_as_reference(upper)
        ties = np.array([[mpmath.mpf(v) for v in row]
                         for row in ([1, 2, 3], [-1, 5, 1], [1, 1, 2])], dtype=object)
        _same_as_reference(ties)


def test_every_solve_factors_through_the_module_lu_factor(monkeypatch):
    calls, mpf_calls = [], []
    plain, plain_mpf = linalg.lu_factor, linalg._mpf_lu
    monkeypatch.setattr(linalg, "lu_factor", lambda a: calls.append(1) or plain(a))
    monkeypatch.setattr(linalg, "_mpf_lu", lambda rows: mpf_calls.append(1) or plain_mpf(rows))
    with mpmath.mp.workdps(DPS):
        a = _hankel("angelesco", (2, 2), DPS)
        linalg.solve(a, a[:, 0])
        linalg.det(a)
        linalg.biorthogonal_pair(a, linalg.lu_factor(a))
    assert len(calls) == len(mpf_calls) == 3


# -- one factorization per float-rung matrix ---------------------------------

@pytest.mark.parametrize("call,lus", [
    (lambda mt, ws: mk.type1_mop(mt, (2, 2), method="float"), 1),
    (lambda mt, ws: mk.type2_mop(mt, (2, 2), method="float"), 1),
    (lambda mt, ws: mk.normality_determinant(mk.block_hankel(mt, (2, 2))), 1),
    (lambda mt, ws: mk.biorthogonalize(mk.block_hankel(mt, (2, 2)), ws, (2, 2)), 1),
], ids=["type1_mop", "type2_mop", "normality_determinant", "biorthogonalize"])
def test_float_rung_factors_each_matrix_once(monkeypatch, angelesco_mt, angelesco_ws,
                                             call, lus):
    calls, plain = [], linalg.lu_factor
    monkeypatch.setattr(linalg, "lu_factor", lambda a: calls.append(1) or plain(a))
    out = call(angelesco_mt, angelesco_ws)
    assert getattr(out, "method", "float") == "float" and getattr(out, "mp", None) is None
    assert len(calls) == lus

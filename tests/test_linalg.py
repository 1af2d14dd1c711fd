"""The one LU elimination on its three entry types: longdouble, Fraction, mpf.

On mpf input the LU runs in fixed point: its det and its solves of A and A^T
must lie within ``helpers.LU_ACCURACY`` n cond1 2^-prec of ``helpers``'
numpy loop on mpf objects at 2 prec + 40 bits."""

import dataclasses
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


# -- the mpf path against the numpy loop on mpf objects at twice the bits ----

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


def _columns(a):
    """Right-hand sides with 1, 2 and n columns, and the identity's: the
    explicit inverse."""
    return a[:, -1], a[::-1, :2], a.T, helpers.ref_identity(a)


HANKELS = [("angelesco", (3, 3)), ("legendre", (30,)), ("nikishin", (8, 8))]


@pytest.mark.parametrize("name,parts", HANKELS)
@pytest.mark.parametrize("rows_dps,dps", [(20, 20), (50, 50), (110, 110), (64, 50)])
def test_mpf_path_matches_object_loop_bit_for_bit(name, parts, rows_dps, dps):
    # not bit for bit: the ids stay, and each output is held to the accuracy
    # bound of the object loop at 2 prec + 40 bits
    a = _hankel(name, parts, rows_dps)
    with mpmath.mp.workdps(dps):
        helpers.assert_lu_accuracy(a, _columns(a))


def test_mpf_path_on_singular_triu_and_ties_matches_object_loop():
    # to the stated accuracy; the singular matrix raises in both
    with mpmath.mp.workdps(DPS):
        singular = np.vectorize(_to_mpf, otypes=[object])(np.array(SINGULAR, dtype=object))
        helpers.assert_lu_accuracy(singular, _columns(singular))
        with pytest.raises(NumericError):
            helpers.ref_lu_solve(*helpers.ref_lu_factor(singular)[:2], singular[0])
        upper = np.triu(_hankel("angelesco", (3, 3), DPS))
        assert any(type(v) is int for v in upper.flat)
        helpers.assert_lu_accuracy(upper, _columns(upper))
        ties = np.array([[mpmath.mpf(v) for v in row]
                         for row in ([1, 2, 3], [-1, 5, 1], [1, 1, 2])], dtype=object)
        helpers.assert_lu_accuracy(ties, _columns(ties))


@st.composite
def _mpf_systems(draw):
    """(dps, A, [b, ...]): an n x n object array of mpf with exact zeros,
    Python ints, mantissas wider than the working precision and pivot ties,
    and right-hand sides with 1, 2 and n columns."""
    dps = draw(st.sampled_from([15, 30, 50]))
    n = draw(st.integers(1, 6))
    width = int(dps * 3.33) + 24
    entry = st.one_of(
        st.just(0), st.just(mpmath.mpf(0)), st.integers(-3, 3),
        st.builds(lambda m, e: mpmath.mpf(m) * mpmath.mpf(2) ** e,
                  st.integers(-(1 << width), 1 << width), st.integers(-width - 40, 40)))

    def matrix(rows, cols):
        return np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows)), dtype=object)

    return dps, matrix(n, n), [matrix(n, 1)[:, 0], matrix(n, 2), matrix(n, n)]


@settings(max_examples=150, deadline=None)
@given(_mpf_systems())
def test_mpf_path_is_within_the_bound_on_random_matrices(system):
    dps, a, bs = system
    assume(any(isinstance(v, mpmath.mpf) for v in a.flat))  # else an int matrix
    with mpmath.mp.workdps(2 * dps + 20):  # not exactly singular
        assume(helpers.ref_cond1(np.vectorize(mpmath.mpf, otypes=[object])(a)) < 1e300)
    with mpmath.mp.workdps(dps):
        helpers.assert_lu_accuracy(a, bs)


def test_every_solve_factors_through_the_module_lu_factor(monkeypatch):
    calls, mpf_calls = [], []
    plain, plain_mpf = linalg.lu_factor, linalg._fixed_lu
    monkeypatch.setattr(linalg, "lu_factor", lambda a: calls.append(1) or plain(a))
    monkeypatch.setattr(linalg, "_fixed_lu", lambda a: mpf_calls.append(1) or plain_mpf(a))
    with mpmath.mp.workdps(DPS):
        a = _hankel("angelesco", (2, 2), DPS)
        linalg.solve(a, a[:, 0])
        linalg.det(a)
    assert len(calls) == len(mpf_calls) == 2


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
    out = call(dataclasses.replace(angelesco_mt), angelesco_ws)  # no float_lu entry yet
    assert getattr(out, "method", "float") == "float" and getattr(out, "mp", None) is None
    assert len(calls) == lus


def test_float_rung_factors_one_index_once_for_all_three_solves(monkeypatch, angelesco_mt,
                                                                angelesco_ws):
    mt = dataclasses.replace(angelesco_mt)
    calls, plain = [], linalg.lu_factor
    monkeypatch.setattr(linalg, "lu_factor", lambda a: calls.append(1) or plain(a))
    P, ts = mk.type2_mop(mt, (2, 2)), mk.type1_mop(mt, (2, 2))
    K = mk.biorthogonalize(mk.block_hankel(mt, (2, 2)), angelesco_ws, (2, 2))
    assert P.method == "float" and ts.mp is None and K.mp is None and len(calls) == 1
    assert P.condition_estimate == ts.condition_estimate == K.condition_estimate
    fresh = dataclasses.replace(angelesco_mt)
    assert P.coeffs.tobytes() == mk.type2_mop(fresh, (2, 2)).coeffs.tobytes()
    # values, not bytes: a longdouble's padding bytes are undefined
    assert np.array_equal(K.psi, mk.biorthogonalize(mk.block_hankel(dataclasses.replace(
        angelesco_mt), (2, 2)), angelesco_ws, (2, 2)).psi)


def test_float_rung_kernel_solves_once_on_identity_columns(monkeypatch, angelesco_mt,
                                                           angelesco_ws):
    # X = M^-1 gives the condition estimate, psi = X^T and the Gram check
    rhs, plain = [], linalg.lu_solve
    monkeypatch.setattr(linalg, "lu_solve", lambda lu, piv, b, transpose=False:
                        rhs.append(np.array(b, dtype=float)) or plain(lu, piv, b, transpose))
    mt = dataclasses.replace(angelesco_mt)  # no float_lu entry yet
    K = mk.biorthogonalize(mk.block_hankel(mt, (2, 2)), angelesco_ws, (2, 2))
    assert K.mp is None and len(rhs) == 1 and np.array_equal(rhs[0], np.eye(4))
    assert K.condition_estimate == linalg.cond1(K.matrix, K.factors)

"""mpmath moment rows: Beta-function closed forms for pure Jacobi weights,
one tanh-sinh pass per weight, bit-identical to quad, for the rest, and
one pass per moment table and precision rung for type I solves."""

import dataclasses
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import mopkit as mk
from mopkit import highprec
from mopkit.weights import Weight

#: weight, largest power k, working precisions; the exp_poly Nikishin ratio
#: nests a quadrature in every value, so it runs at small k and dps
CASES = {
    "jacobi_half_half": (lambda: Weight.from_spec(mk.WeightSpec.jacobi(0.0, 1.0, 0.5, 0.5)),
                         12, (30, 45)),
    "exp_poly": (lambda: Weight.from_spec(mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 1.0, 0.5])),
                 12, (30, 45)),
    "nikishin_constant": (lambda: mk.build_nikishin(
        mk.WeightSpec.constant(1.0, 2.0), [mk.WeightSpec.constant(-1.0, 0.0)]).weights[1],
        12, (30, 45)),
    "nikishin_exp_poly": (lambda: mk.build_nikishin(
        mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 1.0]),
        [mk.WeightSpec.exp_poly(-1.0, 0.0, [0.0, 0.5])]).weights[1], 2, (15, 20)),
    "nikishin_jacobi": (lambda: mk.build_nikishin(
        mk.WeightSpec.jacobi(1.0, 2.0, 0.5, 0.5), [mk.WeightSpec.constant(-1.0, 0.0)]).weights[1],
        22, (36, 48)),
}


@pytest.mark.parametrize("name,dps", [(name, dps) for name, (_, _, pair) in sorted(CASES.items())
                                      for dps in pair])
def test_moment_rows_match_quad_bit_for_bit(name, dps):
    make, k_max, _ = CASES[name]
    w = make()
    with mpmath.mp.workdps(dps):
        row = highprec.moment_rows(mk.WeightSystem.general([w]), k_max)[0]
        fn = w.mp_evaluator()
        a, b = mpmath.mpf(w.support.a), mpmath.mpf(w.support.b)
        ref = [mpmath.quad(lambda x, k=k: x ** k * fn(x), [a, b]) for k in range(k_max + 1)]
    assert [v._mpf_ for v in row] == [v._mpf_ for v in ref]


def test_evaluator_called_once_per_node(monkeypatch):
    seen = []
    plain = Weight.mp_evaluator

    def counted(self):
        fn = plain(self)

        def wrapped(x):
            seen.append(x)
            return fn(x)

        return wrapped

    monkeypatch.setattr(Weight, "mp_evaluator", counted)
    w = Weight.from_spec(mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 1.0, 0.5]))
    with mpmath.mp.workdps(30):
        highprec.moment_rows(mk.WeightSystem.general([w]), 10)
    assert seen and len(seen) == len(set(seen))


def _jacobi_reference(a, b, al, be, k, dps):
    """(integral of x^k w, integral of |x|^k w) for w = (b-x)^al (x-a)^be,
    by mpmath.quad in t = (x - a) / (b - a) at dps + 20 digits.  [0, 1] is
    split at 1/2 and each half substituted so that its singular factor,
    t^be at 0 or (1-t)^al at 1, becomes a smooth integrand."""
    with mpmath.mp.workdps(dps + 20):
        A, L = mpmath.mpf(a), mpmath.mpf(b) - mpmath.mpf(a)
        al, be = mpmath.mpf(al), mpmath.mpf(be)

        def integral(f):
            total = 0
            for x_at, far, near in ((lambda u: A + L * u, al, be),
                                    (lambda u: A + L - L * u, be, al)):
                # u = s^p turns u^near du into p ds
                p = 1 / (near + 1)
                total += p * mpmath.quad(lambda s: f(x_at(s ** p)) * (1 - s ** p) ** far,
                                         [0, mpmath.mpf(0.5) ** (1 / p)])
            return L ** (al + be + 1) * total

        value = integral(lambda x: x ** k)
        with mpmath.mp.workdps(15):
            size = integral(lambda x: abs(x) ** k)
        return value, size


@pytest.mark.parametrize("a,b,al,be,k_max,ks", [
    (1.0, 2.0, 0.5, -0.5, 12, (0, 1, 2, 5, 11, 12)),
    (1.0, 2.0, -0.5, -0.5, 12, (0, 1, 2, 5, 11, 12)),
    (-2.0, -1.0, 0.5, -0.5, 12, (0, 1, 2, 5, 11, 12)),
    (-1.0, 1.0, -0.6, 0.0, 12, (0, 1, 2, 5, 11, 12)),
    (-1.0, 0.0, 0.5, 0.5, 12, (0, 1, 2, 5, 11, 12)),
    (-1.0, 1.0, -0.6, 0.0, 58, (57, 58)),  # binomial cancellation: guard bits
])
def test_jacobi_moment_rows_match_shifted_quad(a, b, al, be, k_max, ks):
    dps = 36
    w = Weight.from_spec(mk.WeightSpec.jacobi(a, b, al, be))
    with mpmath.mp.workdps(dps):
        row = highprec.moment_rows(mk.WeightSystem.general([w]), k_max)[0]
    for k in ks:
        value, size = _jacobi_reference(a, b, al, be, k, dps)
        assert abs(row[k] - value) <= mpmath.mpf(10) ** (2 - dps) * size, k


def _exp_nikishin():
    return mk.build_nikishin(mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 0.3, 1.0]),
                             [mk.WeightSpec.constant(-1.0, 0.0)])


#: (1,1) and (2,1) solve at dps 32 and 34, the rest at 37-45: rungs 32 and 48
SWEEP = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4))


@pytest.fixture
def row_calls(monkeypatch):
    calls = []
    plain = highprec.moment_rows

    def counted(ws, k_max):
        calls.append((mpmath.mp.dps, k_max))
        return plain(ws, k_max)

    monkeypatch.setattr(highprec, "moment_rows", counted)
    return calls


def test_type1_sweep_computes_rows_once_per_rung(row_calls):
    ws = _exp_nikishin()
    mt = mk.moment_table(ws, 14)
    systems = [mk.type1_mop(mt, nvec, method="mp") for nvec in SWEEP]
    rungs = sorted({ts.hp_rows_dps for ts in systems})
    assert rungs == [32, 48]
    assert sorted(row_calls) == [(32, 14), (48, 14)]
    for ts in systems:
        assert ts.hp_rows_dps >= ts.hp_dps and ts.hp_rows_dps % highprec.RUNG_DIGITS == 0
    mk.type1_mop(mk.moment_table(ws, 14), (2, 2), method="mp")  # a new table recomputes
    assert len(row_calls) == 3


def test_table_rows_match_moment_rows_bit_for_bit():
    ws = _exp_nikishin()
    mt = mk.moment_table(ws, 14)
    for dps, rung in ((30, 32), (33, 48), (48, 48)):
        got_rung, rows = highprec.table_rows(mt, dps)
        assert got_rung == rung
        with mpmath.mp.workdps(rung):
            ref = highprec.moment_rows(ws, mt.k_max)
        assert [v._mpf_ for v in rows.ravel()] == [v._mpf_ for v in ref.ravel()]
    assert sorted(mt.mp_rows) == [32, 48]
    assert dataclasses.replace(mt).mp_rows == {}  # a copied table starts empty


def test_type1_sweep_matches_150_digit_solve():
    ws = _exp_nikishin()
    mt, ref_mt = mk.moment_table(ws, 14), mk.moment_table(ws, 14)
    xs = np.linspace(1.0, 2.0, 52)[1:-1]
    for parts in SWEEP[2:]:
        ts = mk.type1_mop(mt, parts)
        assert ts.hp_coeffs is not None
        _, blocks = highprec.type1_coefficients(ref_mt, mk.MultiIndex(parts), 150)
        ref = np.array(highprec.linear_form_values(ws, blocks, xs, 150))
        assert np.max(np.abs(ts.q_values(xs) - ref)) <= 1e-12 * np.max(np.abs(ref)), parts


def _constant_nikishin():
    return mk.build_nikishin(mk.WeightSpec.constant(1.0, 2.0), [mk.WeightSpec.constant(-1.0, 0.0)])


def _q_error(ws, mt, parts, xs):
    """max |Q - Q_150| / max |Q_150| against a 150-digit solve on a fresh table."""
    ts = mk.type1_mop(mt, parts)
    ref_mt = mk.moment_table(ws, mt.k_max)
    _, blocks = highprec.type1_coefficients(ref_mt, mk.MultiIndex(parts), 150)
    ref = np.array(highprec.linear_form_values(ws, blocks, xs, 150))
    return np.max(np.abs(ts.q_values(xs) - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_nikishin_type2_roots_match_twice_the_dps(n):
    # the reference goes through the same float coefficients and root finder,
    # so it checks the solve, not the monomial representation of its answer
    ws = _constant_nikishin()
    mt = mk.moment_table(ws, 3 * n - 1)
    P = mk.type2_mop(mt, (n, n))
    roots = mk.poly_roots(P)
    assert P.method == "mp" and roots.size == 2 * n
    assert np.all((roots > 1.0) & (roots < 2.0))
    coeffs, _ = highprec.type2_attempt(mt, mk.MultiIndex((n, n)), 2 * P.hp_dps)
    assert np.max(np.abs(roots - mk.poly_roots(mk.Polynomial(coeffs)))) <= 1e-10


@pytest.mark.parametrize("n", [8, 9, 10])
def test_nikishin_type1_retry_matches_150_digit_solve(n):
    ws = _constant_nikishin()
    xs = np.linspace(1.01, 1.99, 50)
    assert _q_error(ws, mk.moment_table(ws, 2 * n * 2 - 2), (n, n), xs) <= 1e-9


def test_shifted_angelesco_type1_matches_150_digit_solve():
    ws = mk.build_angelesco([mk.WeightSpec.constant(9.0, 10.0), mk.WeightSpec.constant(10.0, 11.0)])
    xs = np.concatenate([np.linspace(9.0, 10.0, 27)[1:-1], np.linspace(10.0, 11.0, 27)[1:-1]])
    assert _q_error(ws, mk.moment_table(ws, 26), (7, 7), xs) <= 1e-12


def _monic_legendre(n):
    """Monic Legendre coefficients (ascending) from p_{k+1} = x p_k - k^2/(4k^2 - 1) p_{k-1}."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, n):
        nxt = [Fraction(0)] + cur
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(k * k, 4 * k * k - 1) * c
        prev, cur = cur, nxt
    return cur


def test_legendre_type2_equals_rational_recurrence():
    mt = mk.moment_table(mk.build_angelesco([mk.WeightSpec.constant(-1.0, 1.0)]), 59)
    for n in range(14, 31):
        P = mk.type2_mop(mt, (n,))
        assert P.method == "mp"
        assert P.coeffs.tolist() == [float(c) for c in _monic_legendre(n)], n


def test_precision_exhausted():
    mt = mk.moment_table(_constant_nikishin(), 41)
    with pytest.raises(mk.PrecisionExhausted):
        mk.type2_mop(mt, (14, 14))

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mopkit as mk
from mopkit import highprec
from mopkit.exceptions import ConstructionError, DomainError, QuadratureError, ValidationError
from mopkit.weights import MarkovRatio, Weight

LN2 = 0.6931471805599453
LN_5_3 = 0.5108256237659907


def test_interval_validation():
    with pytest.raises(ConstructionError):
        mk.Interval(1.0, 1.0)
    with pytest.raises(ConstructionError):
        mk.Interval(0.0, np.inf)
    iv = mk.Interval(-1.0, 2.0)
    assert iv.length == 3.0 and iv.mid == 0.5


def test_spec_validation():
    with pytest.raises(ValidationError):
        mk.WeightSpec.jacobi(-1, 1, -1.0, 0.0)
    with pytest.raises(ValidationError):
        mk.WeightSpec("chebyshev", mk.Interval(0, 1))


def test_weight_zero_outside_support():
    w = Weight.from_spec(mk.WeightSpec.constant(-1, 1))
    assert w.values(2.0) == 0.0
    assert np.all(w.values(np.asarray([-3.0, 3.0])) == 0.0)
    assert w.log_values(2.0) == -np.inf


class TestStieltjesTransform:
    def test_log2_plus(self):
        v = Weight.from_spec(mk.WeightSpec.constant(-2.0, -1.0))
        assert mk.stieltjes_transform(v, 0.0, "plus") == pytest.approx(LN2, abs=1e-12)

    def test_markov_decay(self):
        v = Weight.from_spec(mk.WeightSpec.constant(-2.0, -1.0))
        big = 1e6
        val = mk.stieltjes_transform(v, big, "plus")
        assert abs(val) < 1e-5
        assert big * val == pytest.approx(1.0, abs=1e-5)  # total mass of v

    def test_log2_minus_right_interval(self):
        v = Weight.from_spec(mk.WeightSpec.constant(1.0, 2.0))
        assert mk.stieltjes_transform(v, 0.0, "minus") == pytest.approx(LN2, abs=1e-12)

    def test_inside_support_rejected(self):
        v = Weight.from_spec(mk.WeightSpec.constant(-1.0, 1.0))
        for x in (0.0, -1.0, 1.0):
            with pytest.raises(DomainError):
                mk.stieltjes_transform(v, x, "plus")

    def test_monotone_off_support(self):
        # derivative has a fixed sign on each side of the support
        v = Weight.from_spec(mk.WeightSpec.jacobi(-1.0, 1.0, 0.5, 0.5))
        for xs in (np.linspace(1.2, 4.0, 9), np.linspace(-4.0, -1.2, 9)):
            vals = [mk.stieltjes_transform(v, x, "plus") for x in xs]
            diffs = np.diff(vals)
            assert np.all(diffs < 0.0) or np.all(diffs > 0.0)


class TestBuildAngelesco:
    def test_small_gap(self):
        ws = mk.build_angelesco([mk.WeightSpec.constant(-1.0, 0.0),
                                 mk.WeightSpec.constant(0.01, 1.0)])
        assert ws.p == 2 and ws.kind == "angelesco"

    def test_overlap_rejected(self):
        with pytest.raises(ConstructionError):
            mk.build_angelesco([mk.WeightSpec.constant(-1.0, 0.5),
                                mk.WeightSpec.constant(0.0, 1.0)])

    def test_reordering(self):
        ws = mk.build_angelesco([mk.WeightSpec.jacobi(1.0, 2.0, 0.5, 0.5),
                                 mk.WeightSpec.jacobi(-2.0, -1.0, 0.0, 0.0)])
        assert ws.intervals[0].a == -2.0 and ws.intervals[1].a == 1.0


class TestBuildNikishin:
    def test_two_weights_value(self, nikishin_ws):
        # w_2(1.5) = log(2.5 / 1.5) for the unit generator on [-1, 0]
        assert nikishin_ws.weights[1].values(1.5) == pytest.approx(LN_5_3, abs=1e-12)

    def test_same_interval_rejected(self):
        with pytest.raises(ConstructionError):
            mk.build_nikishin(mk.WeightSpec.constant(0.0, 1.0),
                              [mk.WeightSpec.constant(0.0, 1.0)])

    def test_three_weights_positive_ratios(self):
        ws = mk.build_nikishin(
            mk.WeightSpec.constant(3.0, 4.0),
            [mk.WeightSpec.constant(1.0, 2.0), mk.WeightSpec.constant(-1.0, 0.0)],
        )
        assert ws.p == 3
        xs = np.linspace(3.001, 3.999, 101)
        w1 = ws.weights[0].values(xs)
        for j in (1, 2):
            ratios = ws.weights[j].values(xs) / w1
            assert np.all(ratios > 0.0)

    def test_mirrored_orientation(self):
        # Gamma_2 to the right: minus sign keeps the ratio positive
        ws = mk.build_nikishin(mk.WeightSpec.constant(-2.0, -1.0),
                               [mk.WeightSpec.constant(0.0, 1.0)])
        xs = np.linspace(-1.999, -1.001, 51)
        assert np.all(ws.weights[1].values(xs) > 0.0)


def test_markov_ratio_matches_direct():
    v = Weight.from_spec(mk.WeightSpec.jacobi(-1.0, 0.0, 0.5, 0.0))
    ratio = MarkovRatio(v, mk.Interval(1.0, 2.0), 1)
    rng = np.random.default_rng(1)
    for x in 1.0 + rng.random(5):
        direct = mk.stieltjes_transform(v, x, "plus", tol=1e-13)
        assert ratio(np.asarray([x]))[0] == pytest.approx(direct, abs=1e-12)


class TestMoments:
    def test_legendre_small(self, legendre_ws):
        row = mk.moments(legendre_ws, 1, 2)
        assert row[0] == pytest.approx(2.0, abs=1e-13)
        assert row[1] == pytest.approx(0.0, abs=1e-13)
        assert row[2] == pytest.approx(2.0 / 3.0, abs=1e-13)

    def test_arcsine_mass(self):
        ws = mk.build_angelesco([mk.WeightSpec.jacobi(-1.0, 1.0, -0.5, -0.5)])
        row = mk.moments(ws, 1, 0)
        assert row[0] == pytest.approx(np.pi, abs=1e-10)

    def test_even_weight_odd_moments_vanish(self):
        ws = mk.build_angelesco([mk.WeightSpec.jacobi(-1.0, 1.0, 0.5, 0.5)])
        row = mk.moments(ws, 1, 7)
        assert np.all(np.abs(row[1::2]) < 1e-12)

    def test_tolerance_consistency(self, nikishin_ws):
        loose = mk.moments(nikishin_ws, 2, 6, tol=1e-8)
        tight = mk.moments(nikishin_ws, 2, 6, tol=1e-9)
        assert np.all(np.abs(loose - tight) <= 1e-8)

    def test_index_range(self, legendre_ws):
        with pytest.raises(ValidationError):
            mk.moments(legendre_ws, 2, 3)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scaling(self, c):
        base = Weight.from_spec(mk.WeightSpec.constant(-1.0, 1.0))
        ws = mk.WeightSystem.general([base])
        ws_scaled = mk.WeightSystem.general([base.scaled(c)])
        row = mk.moments(ws, 1, 4)
        row_scaled = mk.moments(ws_scaled, 1, 4)
        assert np.allclose(row_scaled, c * row, atol=1e-12 * max(1.0, c))


def _beta_moments(a, b, alpha, beta, k_max):
    """integral x^k (b-x)^alpha (x-a)^beta over [a, b] from Beta functions
    (x = a + (b - a) t, binomial in t), at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        A, L = mpmath.mpf(a), mpmath.mpf(b) - a
        scale = L ** (mpmath.mpf(alpha) + beta + 1)
        return np.asarray([float(scale * mpmath.fsum(
            mpmath.binomial(k, i) * A ** (k - i) * L ** i * mpmath.beta(beta + i + 1, alpha + 1)
            for i in range(k + 1))) for k in range(k_max + 1)])


@pytest.mark.parametrize("a, b, alpha, beta, rtol", [
    (-1.0, 0.0, 0.5, 0.5, 1e-14),
    (0.0, 1.0, 0.5, 0.5, 1e-14),
    (0.0, 1.0, 0.3, 1.7, 1e-14),
    (1.0, 2.0, 0.5, -0.5, 1e-12),
])
def test_jacobi_moments_match_beta_functions(a, b, alpha, beta, rtol):
    ws = mk.WeightSystem.general([Weight.from_spec(mk.WeightSpec.jacobi(a, b, alpha, beta))])
    got = mk.moments(ws, 1, 22)
    ref = _beta_moments(a, b, alpha, beta, 22)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= rtol


@pytest.mark.parametrize("alpha, beta", [(-0.8, 0.0), (0.0, -0.8)])
def test_infinite_moments_raise(alpha, beta):
    # (b - x) or (x - a) recomputed from a rounded node reads 0 at a nonzero
    # endpoint; the integrand overflows there and must not be returned
    ws = mk.WeightSystem.general([Weight.from_spec(mk.WeightSpec.jacobi(-1.0, 1.0, alpha, beta))])
    with pytest.raises(QuadratureError):
        mk.moments(ws, 1, 2)


@pytest.mark.parametrize("k_max", [10, 22])
def test_nikishin_jacobi_base_moment_table_finite(k_max):
    ws = mk.build_nikishin(mk.WeightSpec.jacobi(1.0, 2.0, 0.5, -0.5),
                           [mk.WeightSpec.constant(-1.0, 0.0)])
    mt = mk.moment_table(ws, k_max)
    assert np.all(np.isfinite(mt.raw)) and np.all(np.isfinite(mt.scaled))


def test_moment_table_fields(angelesco_ws):
    mt = mk.moment_table(angelesco_ws, 6)
    assert mt.k_max == 6 and mt.p == 2
    assert mt.hull.a == -1.0 and mt.hull.b == 1.0
    # scaled moments on the hull coincide with raw ones here (hull is [-1,1])
    assert np.allclose(mt.scaled, mt.raw, atol=1e-12)


def test_exp_poly_weight():
    w = Weight.from_spec(mk.WeightSpec.exp_poly(0.0, 1.0, [0.0, 1.0]))
    ws = mk.WeightSystem.general([w])
    # integral of exp(-x) on [0, 1]
    assert mk.moments(ws, 1, 0)[0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-13)
    assert w.values(0.5) == pytest.approx(np.exp(-0.5), abs=1e-15)
    assert w.log_values(0.5) == pytest.approx(-0.5, abs=1e-15)


def test_exp_poly_even_weight_mop():
    # exp(-x^2) on a symmetric interval: degree-1 MOP is x
    ws = mk.WeightSystem.general(
        [Weight.from_spec(mk.WeightSpec.exp_poly(-1.0, 1.0, [0.0, 0.0, 1.0]))])
    mt = mk.moment_table(ws, 4)
    P = mk.type2_mop(mt, (1,))
    assert np.allclose(P.coeffs, [0.0, 1.0], atol=1e-13)


def test_exact_jacobi_integer_moments():
    w = Weight.from_spec(mk.WeightSpec.jacobi(0.0, 1.0, 1.0, 2.0))
    # (1-x) x^2 on [0,1]: moment k: 1/(k+3) - 1/(k+4)
    with mpmath.mp.workdps(50):
        row = highprec.moment_rows(mk.WeightSystem.general([w]), 3)[0]
        for k in range(4):
            exact = Fraction(1, k + 3) - Fraction(1, k + 4)
            ref = mpmath.mpf(exact.numerator) / exact.denominator
            assert abs(row[k] - ref) <= mpmath.mpf(10) ** -45


def test_support_segments(angelesco_ws, nikishin_ws):
    assert angelesco_ws.support_segments() == [(-1.0, 0.0), (0.0, 1.0)]
    assert nikishin_ws.support_segments() == [(1.0, 2.0)]


EVALUATOR_CASES = {
    "constant": lambda: Weight.from_spec(mk.WeightSpec.constant(1.0, 2.0)),
    "jacobi": lambda: Weight.from_spec(mk.WeightSpec.jacobi(1.0, 2.0, 0.5, -0.5)),
    "exp_poly": lambda: Weight.from_spec(mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 1.0, 0.5])),
    "nikishin_constant": lambda: mk.build_nikishin(
        mk.WeightSpec.constant(1.0, 2.0), [mk.WeightSpec.constant(-1.0, 0.0)]).weights[1],
    "nikishin_jacobi": lambda: mk.build_nikishin(
        mk.WeightSpec.constant(1.0, 2.0),
        [mk.WeightSpec.jacobi(-1.0, 0.0, 0.5, 0.0)]).weights[1],
}


@pytest.mark.parametrize("name", sorted(EVALUATOR_CASES))
def test_mp_evaluator_matches_float_values(name):
    import mpmath

    from mopkit.ensemble import g_matrix

    w = EVALUATOR_CASES[name]()
    xs = np.asarray([1.05, 1.3, 1.5, 1.77, 1.95])
    with mpmath.mp.workdps(30):
        fn = w.mp_evaluator()
        got = np.asarray([float(fn(mpmath.mpf(x))) for x in xs])
        ws = mk.WeightSystem.general([w])
        points = np.asarray([mpmath.mpf(x) for x in np.append(xs, 2.5)], dtype=object)
        g_mp = g_matrix(ws, (3,), points, dtype=object)
    assert np.allclose(got, w.values(xs), rtol=1e-13, atol=0.0)
    g_float = g_matrix(ws, (3,), np.append(xs, 2.5))
    assert all(isinstance(v, mpmath.mpf) for v in g_mp.ravel())
    assert np.allclose(g_mp.astype(float), g_float, rtol=1e-13, atol=0.0)
    assert np.all(g_mp[:, -1] == 0)  # off the support


def test_import_leaves_mpmath_unloaded():
    # mpmath is imported only by the high-precision rung, not at start-up
    src = Path(mk.__file__).resolve().parent.parent
    code = "import sys, mopkit; assert 'mpmath' not in sys.modules, 'mpmath imported'"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)

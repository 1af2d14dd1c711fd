import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mopkit as mk
from helpers import tensor_cauchy_binet
from mopkit.ensemble import _vandermonde_product
from mopkit.exceptions import DomainError, NumericError, ValidationError


class TestBases:
    def test_g_index_arithmetic(self, nikishin_ws):
        ws = mk.WeightSystem.general([
            mk.Weight.from_spec(mk.WeightSpec.constant(-1.0, 1.0)),
            mk.Weight.from_spec(mk.WeightSpec.jacobi(-1.0, 1.0, 0.5, 0.5)),
        ])
        # k = 3 with nvec (2, 1) addresses x^0 w_2
        val = mk.basis_g(ws, (2, 1), 3, 0.5)
        assert val == pytest.approx(ws.weights[1].values(0.5), abs=1e-15)
        val2 = mk.basis_g(ws, (2, 1), 2, 0.5)
        assert val2 == pytest.approx(0.5 * ws.weights[0].values(0.5), abs=1e-15)

    def test_f_basis(self):
        assert mk.basis_f(3, 2.0) == 4.0


class TestVandermonde:
    def test_examples(self):
        assert mk.vandermonde([0.0, 1.0, 2.0]) == pytest.approx(2.0)
        assert mk.vandermonde([1.0, 0.0, 2.0]) == pytest.approx(-2.0)
        assert mk.vandermonde([5.0]) == 1.0
        assert mk.delta_cross([2.0, 3.0], [1.0]) == pytest.approx(2.0)
        assert mk.delta_cross([], [1.0]) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=5,
                    unique=True), st.integers(min_value=0, max_value=3))
    def test_transposition_antisymmetry(self, xs, i):
        i = i % (len(xs) - 1)
        swapped = list(xs)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert mk.vandermonde(swapped) == pytest.approx(-mk.vandermonde(xs),
                                                        rel=1e-10, abs=1e-12)


class TestGDeterminant:
    def test_block_diagonal(self, angelesco_ws):
        val = mk.g_determinant(angelesco_ws, (1, 1), [-0.5, 0.5])
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_wrong_block_counts(self, angelesco_ws):
        assert mk.g_determinant(angelesco_ws, (1, 1), [-0.5, -0.4]) == 0.0

    def test_repeated_point(self, legendre_ws):
        assert mk.g_determinant(legendre_ws, (2,), [0.3, 0.3]) == 0.0


class TestSignConstancy:
    def test_angelesco(self, angelesco_ws):
        rep = mk.sign_constancy_check(angelesco_ws, (2, 1), 1000, seed=0)
        assert rep.violations == 0 and rep.sign != 0

    def test_nikishin(self, nikishin_ws):
        rep = mk.sign_constancy_check(nikishin_ws, (2, 2), 1000, seed=0)
        assert rep.violations == 0 and rep.nonzero > 900

    def test_broken_system_reports_zero(self, legendre_ws):
        w = legendre_ws.weights[0]
        ws = mk.WeightSystem.general([w, w])
        rep = mk.sign_constancy_check(ws, (1, 1), 200, seed=0)
        assert rep.sign == 0 and rep.nonzero == 0


class TestJointDensity:
    def test_flat_single_point(self, legendre_ws):
        z = 2.0 * 1.0  # D * n! for n = 1
        for x in (-0.9, 0.0, 0.7):
            assert mk.joint_density(legendre_ws, (1,), [x], z) == pytest.approx(0.5)

    def test_angelesco_normalized(self, angelesco_ws):
        val = mk.joint_density(angelesco_ws, (1, 1), [-0.5, 0.5], 1.0 * 2.0)
        assert val == pytest.approx(0.5, abs=1e-14)

    def test_repeated_coordinate(self, legendre_ws):
        assert mk.joint_density(legendre_ws, (2,), [0.1, 0.1]) == 0.0

    def test_permutation_invariance(self, angelesco_ws):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pts = np.concatenate([rng.uniform(-1, 0, 2), rng.uniform(0, 1, 1)])
            base = mk.joint_density(angelesco_ws, (2, 1), pts)
            perm = rng.permutation(pts)
            assert mk.joint_density(angelesco_ws, (2, 1), perm) == pytest.approx(
                base, rel=1e-12)

    def test_zero_partition_function(self, legendre_ws):
        with pytest.raises(mk.NonNormalIndexError):
            mk.joint_density(legendre_ws, (1,), [0.0], 0.0)

    def test_point_on_a_jacobi_pole_raises(self):
        # the weight is infinite there: DomainError names the point instead
        # of a NaN and RuntimeWarnings (which the test settings make errors)
        J, C = mk.WeightSpec.jacobi, mk.WeightSpec.constant
        ws = mk.build_angelesco([J(-1.0, 0.0, -0.5, 0.5), C(0.0, 1.0)])
        with pytest.raises(DomainError, match="point 0.0 "):
            mk.joint_density(ws, (2, 1), [-0.5, 0.0, 0.5])
        with pytest.raises(DomainError, match="point 0.0 "):
            mk.angelesco_density(ws, (2, 1), [-0.5, 0.0, 0.5])
        # the block of 0.0 is the constant weight's, which has no pole
        assert mk.angelesco_density(ws, (1, 2), [-0.5, 0.0, 0.5]) > 0.0
        assert mk.joint_density(ws, (2, 1), [-1.0, -0.5, 0.5]) == 0.0  # beta > 0 end
        legendre_like = mk.build_angelesco([J(-1.0, 1.0, -0.5, 0.5)])
        with pytest.raises(DomainError, match="point 1.0 "):
            mk.joint_density(legendre_like, (2,), [0.0, 1.0])
        nikishin = mk.build_nikishin(J(1.0, 2.0, 0.5, -0.5), [C(-1.0, 0.0)])
        with pytest.raises(DomainError, match="point 1.0 "):
            mk.nikishin_extended_density(nikishin, (1, 1), [1.0, 1.5], [-0.5])


class TestAngelescoDensity:
    def test_example(self, angelesco_ws):
        assert mk.angelesco_density(angelesco_ws, (1, 1), [-0.5, 0.5]) == \
            pytest.approx(1.0, abs=1e-14)

    def test_wrong_block_count(self, angelesco_ws):
        assert mk.angelesco_density(angelesco_ws, (1, 1), [-0.5, -0.3]) == 0.0

    def test_reduces_to_squared_vandermonde(self, angelesco_ws):
        pts = np.asarray([-0.8, -0.3])
        val = mk.angelesco_density(angelesco_ws, (2, 0), pts)
        assert val == pytest.approx(_vandermonde_product(pts) ** 2, rel=1e-13)

    def test_matches_joint_density(self, angelesco_ws):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            pts = np.concatenate([rng.uniform(-1, 0, 2), rng.uniform(0, 1, 2)])
            rng.shuffle(pts)
            a = mk.angelesco_density(angelesco_ws, (2, 2), pts)
            b = mk.joint_density(angelesco_ws, (2, 2), pts)
            assert a == pytest.approx(b, rel=1e-10)


class TestNikishinExtended:
    def test_minimal_example(self, nikishin_ws):
        # one x, one y: density w_1 v / Delta(X, Y) = 1 / 2
        val = mk.nikishin_extended_density(nikishin_ws, (0, 1), [1.5], [-0.5])
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_two_x_one_y(self, nikishin_ws):
        val = mk.nikishin_extended_density(nikishin_ws, (1, 1), [1.2, 1.7], [-0.5])
        assert val == pytest.approx(0.25 / (1.7 * 2.2), rel=1e-13)

    def test_empty_y_reduces_to_op_ensemble(self, nikishin_ws):
        pts = np.asarray([1.3, 1.9])
        val = mk.nikishin_extended_density(nikishin_ws, (2, 0), pts, [])
        assert val == pytest.approx(_vandermonde_product(pts) ** 2, rel=1e-13)

    def test_repeated_x(self, nikishin_ws):
        assert mk.nikishin_extended_density(nikishin_ws, (1, 1),
                                            [1.5, 1.5], [-0.5]) == 0.0

    def test_at_condition_required(self, nikishin_ws):
        with pytest.raises(DomainError):
            mk.nikishin_extended_density(nikishin_ws, (0, 2), [1.2, 1.5],
                                         [-0.7, -0.2])

    @pytest.mark.parametrize("name,nvec", [("constant", (2, 1)), ("constant", (2, 2)),
                                           ("exp_poly", (3, 2))])
    def test_y_marginal_is_joint_density(self, nikishin_ws, name, nvec):
        # integrating the extended density over Gamma_2^(n_2) gives n_2! times
        # |det f det g| at X, with w_2 the Markov-transformed second weight
        ws = nikishin_ws if name == "constant" else mk.build_nikishin(
            mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 0.5]),
            [mk.WeightSpec.exp_poly(-1.0, 0.0, [0.0, 1.0])])
        n1, n2 = nvec
        t, w = np.polynomial.legendre.leggauss(40)
        ys, wy = -0.5 + 0.5 * t, 0.5 * w
        grid = np.stack(np.meshgrid(*[ys] * n2, indexing="ij"), -1).reshape(-1, n2)
        wgrid = np.prod(np.stack(np.meshgrid(*[wy] * n2, indexing="ij"), -1).reshape(-1, n2), 1)
        rng = np.random.default_rng(4)
        for _ in range(2):
            X = np.sort(1.0 + rng.random(n1 + n2))
            integral = sum(wk * mk.nikishin_extended_density(ws, nvec, X, Y)
                           for Y, wk in zip(grid, wgrid)) / math.factorial(n2)
            assert integral == pytest.approx(mk.joint_density(ws, nvec, X), rel=1e-7)


class TestCauchyVandermonde:
    def test_two_by_two(self):
        assert mk.cauchy_vandermonde_det([2.0, 3.0], [1.0], 1) == \
            pytest.approx(-0.5, abs=1e-15)

    def test_pure_vandermonde(self):
        pts = [0.0, 1.0, 3.0]
        assert mk.cauchy_vandermonde_det(pts, [], 3) == \
            pytest.approx(_vandermonde_product(np.asarray(pts)), rel=1e-14)

    def test_three_by_three(self):
        X, Y = [2.0, 3.0, 4.0], [1.0]
        val = mk.cauchy_vandermonde_det(X, Y, 2)
        expect = _vandermonde_product(np.asarray(X)) / (1.0 * 2.0 * 3.0)
        assert abs(val) == pytest.approx(expect, rel=1e-13)

    def test_modulus_identity_random(self):
        rng = np.random.default_rng(3)
        for n2 in (1, 2):
            for n1 in range(max(0, n2 - 1), 4):
                n = n1 + n2
                X = np.sort(rng.uniform(1.0, 2.0, n))
                Y = np.sort(rng.uniform(-1.0, 0.0, n2))
                val = mk.cauchy_vandermonde_det(X, Y, n1)
                expect = (_vandermonde_product(X) * abs(_vandermonde_product(Y))
                          / abs(mk.delta_cross(X, Y)))
                assert abs(val) == pytest.approx(expect, rel=1e-10)

    def test_coincident_rejected(self):
        with pytest.raises(NumericError):
            mk.cauchy_vandermonde_det([1.0, 2.0], [1.0], 1)


class TestMarginalization:
    @pytest.mark.parametrize("nvec,sign", [((1, 1), -1), ((2, 1), 1), ((2, 2), -1),
                                           ((1, 0), 1)])
    def test_identity(self, nikishin_ws, nvec, sign):
        rep = mk.marginalization_check(nikishin_ws, nvec)
        assert rep.max_rel_deviation < 1e-7
        assert rep.sign == sign

    def test_observed_sign_law(self, nikishin_ws):
        # empirically (-1)^(n1 n2 + n2 (n2 - 1) / 2); the row-order convention
        # behind the reduction is not pinned by the derivation
        for n1, n2 in [(1, 1), (2, 1), (2, 2), (1, 2), (3, 2)]:
            rep = mk.marginalization_check(nikishin_ws, (n1, n2), n_configs=5)
            assert rep.sign == (-1) ** (n1 * n2 + n2 * (n2 - 1) // 2)

    def test_guard(self, nikishin_ws):
        with pytest.raises(ValidationError):
            mk.marginalization_check(nikishin_ws, (4, 4))


class TestCauchyBinet:
    def test_legendre(self, legendre_ws, legendre_mt):
        for nv in [(1,), (2,), (3,)]:
            d = mk.normality_determinant(mk.block_hankel(legendre_mt, nv)).det
            est = tensor_cauchy_binet(legendre_ws, nv)
            assert est == pytest.approx(d, rel=1e-7)

    def test_angelesco(self, angelesco_ws, angelesco_mt):
        for nv in [(1, 1), (2, 1), (1, 2)]:
            d = mk.normality_determinant(mk.block_hankel(angelesco_mt, nv)).det
            est = tensor_cauchy_binet(angelesco_ws, nv)
            assert est == pytest.approx(d, rel=1e-7)


def test_cauchy_transform_type1_rejects_z_on_the_supports(angelesco_ws, angelesco_mt):
    ts = mk.type1_mop(angelesco_mt, (2, 2))
    for z in (0.5, 0.0, 1.0, -1.0, float("nan")):
        with pytest.raises(DomainError):
            mk.cauchy_transform_type1(ts, z)
    assert np.isfinite(mk.cauchy_transform_type1(ts, 2.0))
    assert np.isfinite(mk.cauchy_transform_type1(ts, 1.0 + 1.0j))

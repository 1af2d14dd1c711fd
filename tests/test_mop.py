import numpy as np
import pytest

import mopkit as mk
from helpers import bordered_type2_coeffs, gram_schmidt_monic
from mopkit import linalg, mop
from mopkit.exceptions import NonNormalIndexError, NumericError, ValidationError
from mopkit.mop import MAX_TOTAL_DEGREE, MultiIndex, _type2_system

INV_SQRT3 = 0.5773502691896258
SQRT_3_5 = 0.7745966692414834


class TestMultiIndex:
    def test_basics(self):
        nv = MultiIndex((2, 0, 3))
        assert nv.n == 5 and nv.p == 3

    def test_g_index(self):
        nv = MultiIndex((2, 1))
        assert nv.g_index(1) == (0, 0)
        assert nv.g_index(2) == (1, 0)
        assert nv.g_index(3) == (0, 1)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            MultiIndex((1, -1))

    def test_from_ray(self):
        assert MultiIndex.from_ray([0.5, 0.5], 10).parts == (5, 5)
        assert MultiIndex.from_ray([0.5, 0.5], 5).parts == (3, 2)
        assert MultiIndex.from_ray([0.3, 0.7], 10).parts == (3, 7)
        with pytest.raises(ValidationError):
            MultiIndex.from_ray([0.5, 0.6], 10)


class TestBlockHankel:
    def test_legendre_2(self, legendre_mt):
        M = mk.block_hankel(legendre_mt, (2,))
        assert np.allclose(M.matrix, [[2.0, 0.0], [0.0, 2.0 / 3.0]], atol=1e-12)

    def test_angelesco_11(self, angelesco_mt):
        M = mk.block_hankel(angelesco_mt, (1, 1))
        assert np.allclose(M.matrix, [[1.0, 1.0], [-0.5, 0.5]], atol=1e-12)

    def test_zero_block_still_square(self, angelesco_mt):
        M = mk.block_hankel(angelesco_mt, (2, 0))
        assert M.matrix.shape == (2, 2)

    def test_insufficient_moments(self, angelesco_ws):
        mt = mk.moment_table(angelesco_ws, 2)
        with pytest.raises(ValidationError, match="orders"):
            mk.block_hankel(mt, (3, 3))


class TestNormalityDeterminant:
    def test_values(self, legendre_mt, angelesco_mt):
        d1 = mk.normality_determinant(mk.block_hankel(legendre_mt, (2,)))
        assert d1.det == pytest.approx(4.0 / 3.0, abs=1e-12)
        d2 = mk.normality_determinant(mk.block_hankel(angelesco_mt, (1, 1)))
        assert d2.det == pytest.approx(1.0, abs=1e-12)
        assert d2.condition > 1.0

    def test_repeated_column_zero(self, legendre_mt):
        M = mk.block_hankel(legendre_mt, (2,))
        M.matrix[:, 1] = M.matrix[:, 0]
        assert mk.normality_determinant(M).det == 0.0


class TestTypeII:
    def test_legendre_2(self, legendre_mt):
        P = mk.type2_mop(legendre_mt, (2,))
        assert np.allclose(P.coeffs, [-1.0 / 3.0, 0.0, 1.0], atol=1e-13)

    def test_angelesco_11(self, angelesco_mt):
        P = mk.type2_mop(angelesco_mt, (1, 1))
        assert np.allclose(P.coeffs, [-1.0 / 3.0, 0.0, 1.0], atol=1e-13)

    def test_symmetric_degree_one(self):
        ws = mk.build_angelesco([mk.WeightSpec.jacobi(-1.0, 1.0, 0.5, 0.5)])
        mt = mk.moment_table(ws, 4)
        P = mk.type2_mop(mt, (1,))
        assert np.allclose(P.coeffs, [0.0, 1.0], atol=1e-13)

    def test_monic_exactly(self, nikishin_mt):
        for nv in [(1, 0), (2, 1), (3, 2), (4, 4)]:
            P = mk.type2_mop(nikishin_mt, nv)
            assert P.coeffs[-1] == 1.0

    def test_matches_gram_schmidt(self, legendre_mt, legendre_ws):
        gs = gram_schmidt_monic(legendre_ws, 5)
        for n in range(1, 6):
            P = mk.type2_mop(legendre_mt, (n,))
            assert np.allclose(P.coeffs, gs[n], atol=1e-10)

    def test_determinant_formula_equivalence(self, legendre_mt, angelesco_mt,
                                             nikishin_mt):
        cases = [(legendre_mt, (3,)), (legendre_mt, (4,)),
                 (angelesco_mt, (2, 1)), (angelesco_mt, (2, 2)),
                 (nikishin_mt, (2, 1)), (nikishin_mt, (2, 2))]
        for mt, nv in cases:
            P = mk.type2_mop(mt, nv)
            expanded = bordered_type2_coeffs(mt, nv)
            assert np.allclose(P.coeffs, expanded, atol=1e-8), (nv, P.coeffs, expanded)

    def test_non_normal_rejected(self, legendre_ws):
        w = legendre_ws.weights[0]
        ws = mk.WeightSystem.general([w, w])
        mt = mk.moment_table(ws, 8)
        with pytest.raises(NonNormalIndexError):
            mk.type2_mop(mt, (1, 1))

    def test_degree_cap(self, angelesco_mt):
        with pytest.raises(ValidationError):
            mk.type2_mop(angelesco_mt, (16, 15))

    def test_exact_matches_float_midrange(self, angelesco_mt):
        Pe = mk.type2_mop(angelesco_mt, (5, 5), method="mp")
        Pf = mk.type2_mop(angelesco_mt, (5, 5), method="float")
        assert np.allclose(Pe.coeffs, Pf.coeffs, atol=1e-9)
        assert (Pe.method, Pf.method, Pf.hp_dps) == ("mp", "float", 0) and Pe.hp_dps >= 30

    def test_exact_unavailable(self, nikishin_mt):
        with pytest.raises(ValidationError):
            mk.type2_mop(nikishin_mt, (2, 1), method="exact")

    @pytest.mark.parametrize("solve", [mk.type2_mop, mk.type1_mop])
    def test_unknown_method_rejected(self, angelesco_mt, solve):
        with pytest.raises(ValidationError, match="bogus"):
            solve(angelesco_mt, (2, 1), method="bogus")

    def test_weight_permutation_invariance(self):
        wa = mk.Weight.from_spec(mk.WeightSpec.jacobi(-1.0, 1.0, 0.5, 0.5))
        wb = mk.Weight.from_spec(mk.WeightSpec.constant(-1.0, 1.0))
        mt_ab = mk.moment_table(mk.WeightSystem.general([wa, wb]), 12)
        mt_ba = mk.moment_table(mk.WeightSystem.general([wb, wa]), 12)
        P1 = mk.type2_mop(mt_ab, (2, 1))
        P2 = mk.type2_mop(mt_ba, (1, 2))
        assert np.allclose(P1.coeffs, P2.coeffs, atol=1e-10)


class TestTypeI:
    def test_single_condition(self, legendre_mt):
        ts = mk.type1_mop(legendre_mt, (1,))
        assert np.allclose(ts.polys[0].coeffs, [0.5], atol=1e-13)

    def test_legendre_2(self, legendre_mt):
        ts = mk.type1_mop(legendre_mt, (2,))
        assert np.allclose(ts.polys[0].coeffs, [0.0, 1.5], atol=1e-13)

    def test_angelesco_11(self, angelesco_mt):
        ts = mk.type1_mop(angelesco_mt, (1, 1))
        assert ts.polys[0].coeffs[0] == pytest.approx(-1.0, abs=1e-12)
        assert ts.polys[1].coeffs[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_part_gives_zero_polynomial(self, angelesco_mt):
        ts = mk.type1_mop(angelesco_mt, (2, 0))
        assert ts.polys[1].degree == 0 and ts.polys[1].coeffs[0] == 0.0

    def test_condition_residuals(self, legendre_mt, angelesco_mt, nikishin_mt):
        for mt, nv in [(legendre_mt, (4,)), (angelesco_mt, (3, 3)),
                       (nikishin_mt, (3, 2))]:
            ts = mk.type1_mop(mt, nv)
            res = mk.type1_condition_residuals(ts)
            assert np.abs(res).max() < 1e-9, (nv, res)

    def test_high_precision_via_conditioning(self, nikishin_mt):
        ts = mk.type1_mop(nikishin_mt, (4, 4))
        assert ts.hp_coeffs is not None
        assert np.abs(mk.type1_condition_residuals(ts)).max() < 1e-9

    def test_condition_residuals_keep_kink_of_shared_segment(self):
        # a sqrt-kinked weight sharing [-1, 1] with a smooth one: the check's
        # fixed rule must still substitute at both ends
        wa = mk.Weight.from_spec(mk.WeightSpec.jacobi(-1.0, 1.0, 0.5, 0.5))
        wb = mk.Weight.from_spec(mk.WeightSpec.constant(-1.0, 1.0))
        ws = mk.WeightSystem.general([wa, wb])
        assert ws.segment_exponents(-1.0, 1.0) == (0.5, 0.5)
        ts = mk.type1_mop(mk.moment_table(ws, 8), (2, 2))
        assert np.abs(mk.type1_condition_residuals(ts)).max() <= 1e-12


class TestBeyondConstantWeights:
    def test_jacobi_angelesco_pipeline(self):
        ws = mk.build_angelesco([mk.WeightSpec.jacobi(-2.0, -1.0, 0.5, 0.0),
                                 mk.WeightSpec.jacobi(1.0, 2.0, 0.0, 0.5)])
        mt = mk.moment_table(ws, 16)
        for nv in [(1, 1), (2, 2), (3, 2)]:
            P = mk.type2_mop(mt, nv)
            r2 = max(np.abs(np.concatenate(mk.orthogonality_residuals(P, ws, nv))))
            assert r2 <= 1e-9
            ts = mk.type1_mop(mt, nv)
            assert np.abs(mk.type1_condition_residuals(ts)).max() <= 1e-9
            roots = mk.poly_roots(P)
            assert np.sum(roots < 0) == nv[0] and np.sum(roots > 0) == nv[1]

    def test_nikishin_three_weights_pipeline(self):
        ws = mk.build_nikishin(
            mk.WeightSpec.constant(3.0, 4.0),
            [mk.WeightSpec.constant(1.0, 2.0), mk.WeightSpec.constant(-1.0, 0.0)],
        )
        mt = mk.moment_table(ws, 8)
        P = mk.type2_mop(mt, (1, 1, 1))
        r2 = max(np.abs(np.concatenate(mk.orthogonality_residuals(P, ws, (1, 1, 1)))))
        assert r2 <= 1e-9
        ts = mk.type1_mop(mt, (1, 1, 1))
        assert np.abs(mk.type1_condition_residuals(ts)).max() <= 1e-9


class TestPolyRoots:
    def test_quadratic(self, legendre_mt):
        P = mk.type2_mop(legendre_mt, (2,))
        roots = mk.poly_roots(P)
        assert np.allclose(roots, [-INV_SQRT3, INV_SQRT3], atol=1e-12)

    def test_linear(self):
        assert np.allclose(mk.poly_roots(mk.Polynomial([0.0, 1.0])), [0.0])

    def test_cubic_legendre(self, legendre_mt):
        P = mk.type2_mop(legendre_mt, (3,))
        assert np.allclose(mk.poly_roots(P), [-SQRT_3_5, 0.0, SQRT_3_5], atol=1e-12)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValidationError):
            mk.poly_roots(mk.Polynomial([1.0]))

    def test_non_real_eigenvalues_raise(self, nikishin_mt):
        # the float rung loses Nikishin (7,7): 2 of its 14 companion
        # eigenvalues leave the real axis, which must not pass silently
        P = mk.type2_mop(nikishin_mt, (7, 7), method="float")
        with pytest.raises(NumericError, match="2 of 14"):
            mk.poly_roots(P)

    def test_angelesco_root_counts(self, angelesco_mt):
        for nv in [(2, 1), (3, 3), (5, 4), (6, 6)]:
            P = mk.type2_mop(angelesco_mt, nv)
            roots = mk.poly_roots(P)
            assert roots.size == sum(nv)
            in_left = np.sum((roots >= -1.0) & (roots <= 0.0))
            in_right = np.sum((roots >= 0.0) & (roots <= 1.0))
            assert in_left == nv[0] and in_right == nv[1]


class TestOrthogonalityResiduals:
    def test_legendre(self, legendre_mt, legendre_ws):
        P = mk.type2_mop(legendre_mt, (2,))
        res = mk.orthogonality_residuals(P, legendre_ws, (2,))
        assert np.abs(res[0]).max() <= 1e-10

    def test_angelesco(self, angelesco_mt, angelesco_ws):
        P = mk.type2_mop(angelesco_mt, (1, 1))
        res = mk.orthogonality_residuals(P, angelesco_ws, (1, 1))
        assert max(np.abs(r).max() for r in res) <= 1e-10

    def test_non_orthogonal_input(self, legendre_ws):
        res = mk.orthogonality_residuals(mk.Polynomial([1.0]), legendre_ws, (1,))
        assert res[0][0] == pytest.approx(2.0, abs=1e-12)


def test_polynomial_evaluation_complex():
    P = mk.Polynomial([-1.0 / 3.0, 0.0, 1.0])
    assert P(2j) == pytest.approx(-4.0 - 1.0 / 3.0, abs=1e-14)
    assert P(1.0) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_cap_is_thirty():
    assert MAX_TOTAL_DEGREE == 30


C, J, E = mk.WeightSpec.constant, mk.WeightSpec.jacobi, mk.WeightSpec.exp_poly

RAY_SYSTEMS = {
    "legendre": lambda: mk.build_angelesco([C(-1.0, 1.0)]),
    "angelesco": lambda: mk.build_angelesco([C(-1.0, 0.0), C(0.0, 1.0)]),
    "jacobi_angelesco": lambda: mk.build_angelesco([J(-1.0, 0.0, 0.5, 0.5),
                                                    J(0.0, 1.0, 0.5, 0.5)]),
    "exp_angelesco": lambda: mk.build_angelesco([E(-1.0, 0.0, [0.0, 0.3, 1.0]),
                                                 E(0.0, 1.0, [0.0, -0.2, 0.8])]),
    "nikishin": lambda: mk.build_nikishin(C(1.0, 2.0), [C(-1.0, 0.0)]),
}


@pytest.mark.parametrize("name", sorted(RAY_SYSTEMS))
def test_float_type2_is_the_transposed_solve_of_m(monkeypatch, name):
    # type II solves M^T a = -b from the LU of M that type I solves with;
    # the reference factors M^T itself
    ws = RAY_SYSTEMS[name]()
    mt = mk.moment_table(ws, 28)
    scaled, plain = [], mop._affine_unscale
    monkeypatch.setattr(mop, "_affine_unscale",
                        lambda coeffs, *rest: scaled.append(coeffs) or plain(coeffs, *rest))
    tested = 0
    for n in range(1, 15 // ws.p + 1):
        nvec = MultiIndex((n,) * ws.p)
        cond = linalg.cond1(*mop._check_normal(mt, nvec))
        if cond > mop.CONDITION_CUTOFF:
            continue
        scaled.clear()
        P = mk.type2_mop(mt, nvec, method="float")
        ref = linalg.solve(*_type2_system(mt.scaled, nvec))
        err = np.max(np.abs(scaled[0][:-1] - ref))
        assert err <= cond * np.finfo(linalg.LD).eps * np.max(np.abs(ref)), n
        ts = mk.type1_mop(mt, nvec, method="float")
        assert P.condition_estimate == ts.condition_estimate == cond
        tested += 1
    assert tested >= 1 and cond > mop.CONDITION_CUTOFF  # the ray leaves the float rung

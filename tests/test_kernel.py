import numpy as np
import pytest

import mopkit as mk
from mopkit.quadrature import adaptive_quad


def _kernel(mt, ws, nvec):
    return mk.biorthogonalize(mk.block_hankel(mt, nvec), ws, nvec)


class TestBiorthogonalize:
    def test_scalar_case(self, legendre_ws, legendre_mt):
        K = _kernel(legendre_mt, legendre_ws, (1,))
        assert np.allclose(K.psi.astype(float), [[0.5]])

    def test_gram_identity_by_quadrature(self, angelesco_ws, angelesco_mt):
        nvec = mk.MultiIndex((2, 2))
        K = _kernel(angelesco_mt, angelesco_ws, nvec)
        assert K.gram_defect < 1e-12
        n = nvec.n
        gram = np.empty((n, n))
        for j in range(n):
            for k in range(n):
                def f(x, j=j, k=k):
                    from mopkit.ensemble import f_matrix, g_matrix
                    fj = f_matrix(n, x)[j]
                    psi = K.psi[k].astype(float) @ g_matrix(angelesco_ws, nvec, x)
                    return fj * psi
                gram[j, k] = sum(
                    adaptive_quad(f, lo, hi, tol=1e-12)
                    for lo, hi in angelesco_ws.support_segments()
                )
        assert np.abs(gram - np.eye(n)).max() < 1e-9

    def test_singular_rejected(self, legendre_ws):
        w = legendre_ws.weights[0]
        ws = mk.WeightSystem.general([w, w])
        mt = mk.moment_table(ws, 8)
        with pytest.raises(mk.NonNormalIndexError):
            mk.biorthogonalize(mk.block_hankel(mt, (1, 1)), ws, (1, 1))


@pytest.fixture(scope="module")
def constant_on_unit_interval():
    ws = mk.build_angelesco([mk.WeightSpec.constant(-1.0, 1.0)])
    return ws, mk.moment_table(ws, 20)


@pytest.mark.parametrize("n", range(1, 11))
def test_legendre_kernel_matches_the_closed_form(constant_on_unit_interval, n):
    # w = 1 on [-1, 1]: K_n(x, y) = sum_{k<n} (2k + 1)/2 P_k(x) P_k(y)
    ws, mt = constant_on_unit_interval
    K = _kernel(mt, ws, (n,))
    x, y = np.random.default_rng(n).uniform(-1.0, 1.0, (2, 2000))
    c = np.diag((2 * np.arange(n) + 1) / 2)
    ref = np.sum(np.polynomial.legendre.legvander(x, n - 1) @ c
                 * np.polynomial.legendre.legvander(y, n - 1), axis=1)
    assert np.max(np.abs(mk.kernel_eval(K, x, y) - ref)) <= 1e-11 * np.max(np.abs(ref))


class TestKernelEval:
    def test_flat_kernel(self, legendre_ws, legendre_mt):
        K = _kernel(legendre_mt, legendre_ws, (1,))
        for x, y in [(-0.5, 0.9), (0.0, 0.0), (0.3, -0.2)]:
            assert mk.kernel_eval(K, x, y) == pytest.approx(0.5, abs=1e-14)
            assert mk.kernel_eval_bordered(K, x, y) == pytest.approx(0.5, abs=1e-14)

    def test_trace_legendre(self, legendre_ws, legendre_mt):
        for n in range(1, 7):
            K = _kernel(legendre_mt, legendre_ws, (n,))
            assert mk.kernel_trace(K) == pytest.approx(n, abs=1e-8)

    def test_bordered_matches_sum(self, nikishin_ws, nikishin_mt):
        nvec = (2, 2)
        K = _kernel(nikishin_mt, nikishin_ws, nvec)
        rng = np.random.default_rng(8)
        xs = 1.0 + rng.random(100)
        ys = 1.0 + rng.random(100)
        worst = max(
            abs(mk.kernel_eval(K, x, y) - mk.kernel_eval_bordered(K, x, y))
            for x, y in zip(xs, ys)
        )
        assert worst <= 1e-10

    def test_reproducing_property(self, angelesco_ws, angelesco_mt):
        nvec = mk.MultiIndex((2, 2))
        K = _kernel(angelesco_mt, angelesco_ws, nvec)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1.0, 1.0, (20, 2))
        for x, z in pts:
            def f(y):
                return mk.kernel_eval(K, np.full_like(y, x), y) * \
                    mk.kernel_eval(K, y, np.full_like(y, z))
            val = sum(adaptive_quad(f, lo, hi, tol=1e-11)
                      for lo, hi in angelesco_ws.support_segments())
            assert val == pytest.approx(mk.kernel_eval(K, x, z), abs=1e-8)


def test_singular_weight_trace():
    # arcsine weight: endpoint singularities ride through the substitution
    ws = mk.build_angelesco([mk.WeightSpec.jacobi(-1.0, 1.0, -0.5, -0.5)])
    mt = mk.moment_table(ws, 14)
    for n in (2, 4, 6):
        K = mk.biorthogonalize(mk.block_hankel(mt, (n,)), ws, (n,))
        assert mk.kernel_trace(K) == pytest.approx(n, abs=1e-8)


def test_general_system_trace():
    # two distinct weights sharing an interval (AT-style general system)
    ws = mk.WeightSystem.general([
        mk.Weight.from_spec(mk.WeightSpec.constant(-1.0, 1.0)),
        mk.Weight.from_spec(mk.WeightSpec.jacobi(-1.0, 1.0, 1.0, 1.0)),
    ])
    mt = mk.moment_table(ws, 12)
    K = mk.biorthogonalize(mk.block_hankel(mt, (2, 2)), ws, (2, 2))
    assert mk.kernel_trace(K) == pytest.approx(4.0, abs=1e-8)


class TestMeanDensity:
    def test_flat(self, legendre_ws, legendre_mt):
        K = _kernel(legendre_mt, legendre_ws, (1,))
        assert mk.mean_density(K, 0.2) == pytest.approx(0.5, abs=1e-14)

    def test_integrates_to_one(self, nikishin_ws, nikishin_mt):
        K = _kernel(nikishin_mt, nikishin_ws, (2, 1))
        total = sum(
            adaptive_quad(lambda x: mk.mean_density(K, x), lo, hi, tol=1e-10)
            for lo, hi in nikishin_ws.support_segments()
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative_on_nodes(self, angelesco_ws, angelesco_mt):
        K = _kernel(angelesco_mt, angelesco_ws, (3, 3))
        xs = np.linspace(-1.0, 1.0, 401)
        assert np.all(mk.mean_density(K, xs) > -1e-12)


def test_mp_kernel_precision_from_own_condition(nikishin_ws):
    # the float64 condition estimate of the (9,9) moment matrix saturates far
    # below its true value; the Gram check sends the kernel to a rebuild at
    # the precision its mpmath condition number asks for
    nvec = (9, 9)
    K = _kernel(mk.moment_table(nikishin_ws, 26), nikishin_ws, nvec)
    assert K.mp is not None and K.gram_defect <= 1e-9
    x, y = 1.3, 1.7
    assert mk.kernel_eval_bordered(K, x, y) == \
        pytest.approx(mk.kernel_eval(K, x, y), rel=1e-10)


@pytest.mark.parametrize("nvec,rung", [((2, 1), "float"), ((4, 4), "mp")])
def test_kernel_eval_broadcasts_scalar_x(nikishin_ws, nikishin_mt, nvec, rung):
    K = _kernel(nikishin_mt, nikishin_ws, nvec)
    assert ("mp" if K.mp is not None else "float") == rung
    ys = [1.3, 1.6, 1.9]
    vals = mk.kernel_eval(K, 1.5, ys)
    assert vals.shape == (3,)
    assert np.allclose(vals, [mk.kernel_eval(K, 1.5, y) for y in ys], rtol=1e-15, atol=0)
    assert np.allclose(mk.kernel_eval(K, [[1.2], [1.5]], ys),
                       [[mk.kernel_eval(K, x, y) for y in ys] for x in (1.2, 1.5)],
                       rtol=1e-15, atol=0)
    with pytest.raises(mk.ValidationError):
        mk.kernel_eval(K, [1.2, 1.5], ys)

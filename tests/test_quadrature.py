import numpy as np
import pytest

import mopkit as mk
from mopkit.exceptions import QuadratureError
from mopkit.quadrature import (
    adaptive_quad,
    fixed_segment_nodes,
    quad_with_substitution,
)


def test_polynomial_exact():
    assert adaptive_quad(lambda x: x ** 4, -1.0, 1.0) == pytest.approx(0.4, abs=1e-14)


def test_oscillatory():
    val = adaptive_quad(np.sin, 0.0, 10.0, tol=1e-13)
    assert val == pytest.approx(1.0 - np.cos(10.0), abs=1e-12)


def test_near_singular_pole():
    # 1/(x + 1e-4) on [0, 1]: steep but integrable
    val = adaptive_quad(lambda x: 1.0 / (x + 1e-4), 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(np.log(1.0001 / 1e-4), abs=1e-10)


def test_complex_integrand():
    z = 0.5 + 2.0j
    val = adaptive_quad(lambda x: 1.0 / (z - x), -1.0, 1.0, tol=1e-12)
    exact = np.log((z + 1.0) / (z - 1.0))
    assert abs(val - exact) < 1e-12


def test_substitution_arcsine_mass():
    # (1-x)^(-1/2) (1+x)^(-1/2) integrates to pi
    def f(x):
        return 1.0 / np.sqrt((1.0 - x) * (1.0 + x))

    val = quad_with_substitution(f, -1.0, 1.0, exponents=(-0.5, -0.5))
    assert val == pytest.approx(np.pi, abs=1e-11)


def test_substitution_strong_singularity():
    # (x)^(-0.8) on [0, 1] needs the iterated substitution
    val = quad_with_substitution(lambda x: x ** -0.8, 0.0, 1.0, exponents=(-0.8, 0.0))
    assert val == pytest.approx(5.0, abs=1e-9)


def test_budget_exhaustion_raises():
    rng = np.random.default_rng(0)

    def noisy(x):
        return rng.standard_normal(x.shape)

    with pytest.raises(QuadratureError) as err:
        adaptive_quad(noisy, 0.0, 1.0, tol=1e-14, max_panels=8)
    assert err.value.estimate is not None


def test_fixed_segment_nodes_plain():
    xs, wq = fixed_segment_nodes(0.0, 2.0)
    assert np.all(wq > 0)
    assert np.sum(wq * xs ** 6) == pytest.approx(2.0 ** 7 / 7.0, rel=1e-13)


def test_fixed_segment_nodes_singular():
    xs, wq = fixed_segment_nodes(-1.0, 1.0, exponents=(-0.5, -0.5))
    val = np.sum(wq / np.sqrt((1.0 - xs) * (1.0 + xs)))
    assert val == pytest.approx(np.pi, abs=1e-10)


def test_nikishin_generator_with_fractional_endpoint_power():
    # the 0.3 power at x=0 is a kink: the adaptive oracle that verifies the
    # Markov panels must substitute there too
    ws = mk.build_nikishin(mk.WeightSpec.constant(-2.0, -1.0),
                           [mk.WeightSpec.jacobi(0.0, 1.0, -0.5, 0.3)])
    xs = np.linspace(-1.999, -1.001, 11)
    assert np.all(ws.weights[1].values(xs) > 0.0)

"""mpmath moment rows: Beta-function closed forms for pure Jacobi weights,
one Gauss-Legendre or tanh-sinh pass per weight, bit-identical to quad with
that rule, for the rest, and
one pass per moment table and precision rung for type I, type II and the
kernel; one LU of the moment matrix per index and precision for all three."""

import dataclasses
import itertools
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import mopkit as mk
from mopkit import highprec, linalg
from mopkit.ensemble import f_matrix, g_matrix
from mopkit.linalg import LD
from mopkit.mop import _affine_unscale, _hankel_from, _type2_system
from mopkit.weights import MarkovRatio, Weight


def _quad_in_x(w, k, c, s, method="tanh-sinh"):
    """quad of ((x - c)/s)^k w(x) over the support with ``method``: the
    integrand of the pass with that rule."""
    fn = w.mp_evaluator()
    a, b = mpmath.mpf(w.support.a), mpmath.mpf(w.support.b)
    return mpmath.quad(lambda x: ((x - c) / s) ** k * fn(x), [a, b], method=method)


def _gauss_in_x(w, k, c, s):
    """``_quad_in_x`` with Gauss-Legendre, the rule of a weight analytic
    near its support."""
    return _quad_in_x(w, k, c, s, "gauss-legendre")


def _quad_in_t_symmetric(w, k, c, s):
    """quad over [-1, 1] of t^k r s^(2 alpha) ((1 - t)(1 + t))^alpha, times
    dx/dt = s: a Jacobi weight with alpha = beta on the hull, written so that
    its values at t and -t are one number, so quad's odd moments are exact
    zeros, as the true moments are."""
    al = mpmath.mpf(w.spec.alpha)
    assert w.spec.beta == w.spec.alpha and (w.support.mid, 0.5 * w.support.length) == (c, s)
    r = mpmath.mpf(w.scale) * mpmath.mpf(s) ** (2 * al)
    return s * mpmath.quad(lambda t: t ** k * r * ((1 - t) * (1 + t)) ** al, [-1, 1])


def _touching():
    """w_2 of constant weights on [0, 1] and a generator on [-1, 0], which
    touches it: the ratio log((x + 1)/x) is singular at 0.  ``MarkovRatio``
    refuses to build it, so its fields are set unchecked."""
    ratio = object.__new__(MarkovRatio)
    ratio.v, ratio.sign = Weight.from_spec(mk.WeightSpec.constant(-1.0, 0.0)), 1.0
    return Weight(mk.WeightSpec.constant(0.0, 1.0), 1.0, ratio)


def _near_touching(gap):
    """w_2 of a constant weight on [0, 1] with a constant generator on
    [-1, -gap]: 96 Gauss-Legendre nodes fall short of 48 digits."""
    return mk.build_nikishin(mk.WeightSpec.constant(0.0, 1.0),
                             [mk.WeightSpec.constant(-1.0, -gap)]).weights[1]


#: weight, largest power k, working precisions, quad reference, rule; the
#: pure Jacobi weight takes the Beta closed form, weights analytic near
#: their support the Gauss-Legendre pass, end factors, touching and
#: near-touching generators the tanh-sinh pass.  The exp_poly Nikishin
#: ratio nests a quadrature in every value, so it runs at small k and dps
CASES = {
    "jacobi_half_half": (lambda: Weight.from_spec(mk.WeightSpec.jacobi(0.0, 1.0, 0.5, 0.5)),
                         12, (30, 45), _quad_in_t_symmetric, "closed form"),
    "exp_poly": (lambda: Weight.from_spec(mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 1.0, 0.5])),
                 12, (30, 45, 48, 64), _gauss_in_x, "gauss-legendre"),
    "nikishin_constant": (lambda: mk.build_nikishin(
        mk.WeightSpec.constant(1.0, 2.0), [mk.WeightSpec.constant(-1.0, 0.0)]).weights[1],
        12, (30, 45), _gauss_in_x, "gauss-legendre"),
    "nikishin_exp_poly": (lambda: mk.build_nikishin(
        mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 1.0]),
        [mk.WeightSpec.exp_poly(-1.0, 0.0, [0.0, 0.5])]).weights[1], 2, (15, 20),
        _gauss_in_x, "gauss-legendre"),
    "nikishin_jacobi": (lambda: mk.build_nikishin(
        mk.WeightSpec.jacobi(1.0, 2.0, 0.5, 0.5), [mk.WeightSpec.constant(-1.0, 0.0)]).weights[1],
        22, (36, 48), _quad_in_x, "tanh-sinh"),
    "touching_generator": (_touching, 12, (30, 45), _quad_in_x, "tanh-sinh"),
    "near_touching_1e-2": (lambda: _near_touching(1e-2), 12, (48,), _quad_in_x, "tanh-sinh"),
    "near_touching_3e-2": (lambda: _near_touching(3e-2), 12, (48,), _quad_in_x, "tanh-sinh"),
}


@pytest.mark.parametrize("name,dps", [(name, dps) for name, case in sorted(CASES.items())
                                      for dps in case[2]])
def test_moment_rows_match_quad_bit_for_bit(name, dps):
    # one weight's hull is its support: t = (x - c)/s maps it to [-1, 1]
    make, k_max, _, quad_ref, rule = CASES[name]
    w, records = make(), []
    c, s = w.support.mid, 0.5 * w.support.length
    with mpmath.mp.workdps(dps):
        row = highprec.moment_rows(mk.WeightSystem.general([w]), k_max, records)[0]
        ref = [quad_ref(w, k, c, s) for k in range(k_max + 1)]
    assert [v._mpf_ for v in row] == [v._mpf_ for v in ref]
    [record] = records
    assert record["rule"] == rule and record["open"] == [] and "replaces" not in record
    assert record["error_max"] <= mpmath.mpf(10) ** -dps


def test_gauss_legendre_pass_with_an_open_order_is_redone_on_tanh_sinh(monkeypatch):
    # two Gauss-Legendre levels (3 and 6 nodes) leave every order open
    monkeypatch.setattr(mpmath.mp._gauss_legendre, "guess_degree", lambda prec: 2)
    w, records = CASES["exp_poly"][0](), []
    c, s = w.support.mid, 0.5 * w.support.length
    with mpmath.mp.workdps(30):
        row = highprec.moment_rows(mk.WeightSystem.general([w]), 12, records)[0]
        ref = [_quad_in_x(w, k, c, s) for k in range(13)]
    assert [v._mpf_ for v in row] == [v._mpf_ for v in ref]
    [record] = records
    assert record["rule"] == "tanh-sinh" and record["open"] == []
    first = record["replaces"]
    assert first["rule"] == "gauss-legendre" and first["level"] == 2
    assert first["open"] == list(range(13)) and first["error_max"] > 1e-30


@pytest.mark.parametrize("dps", (48, 64))
def test_workload_nikishin_weights_keep_gauss_legendre(dps):
    # a generator at distance 1 from [1, 2]: 96 nodes reach 147 digits
    C, E = mk.WeightSpec.constant, mk.WeightSpec.exp_poly
    for base in (C(1.0, 2.0), E(1.0, 2.0, [0.0, 0.3, 1.1])):
        w = mk.build_nikishin(base, [C(-1.0, 0.0)]).weights[1]
        with mpmath.mp.workdps(dps):
            assert highprec._rule(w) is mpmath.mp._gauss_legendre
    with mpmath.mp.workdps(dps):
        assert highprec._rule(_near_touching(0.1)) is (
            mpmath.mp._gauss_legendre if dps == 48 else mpmath.mp._tanh_sinh)


def test_power_moments_decide_stopping_in_float(monkeypatch):
    # every estimate from three or more results is the float one
    from mpmath.calculus.quadrature import QuadratureRule

    seen, plain = [], QuadratureRule.estimate_error
    monkeypatch.setattr(QuadratureRule, "estimate_error", lambda self, results, prec, eps:
                        seen.append(len(results)) or plain(self, results, prec, eps))
    w = CASES["exp_poly"][0]()
    with mpmath.mp.workdps(48):
        highprec.moment_rows(mk.WeightSystem.general([w]), 12)
    assert seen and set(seen) == {2}


@pytest.mark.parametrize("gap", (1e-2, 1e-3))
def test_near_touching_generator_rows_match_twice_the_dps(gap):
    # log((x + 1)/(x + gap)) on [0, 1]: the generator lies inside the
    # Bernstein ellipse that 96 Gauss-Legendre nodes need: tanh-sinh takes it
    w, dps = mk.build_nikishin(mk.WeightSpec.constant(0.0, 1.0),
                               [mk.WeightSpec.constant(-1.0, -gap)]).weights[1], 30
    with mpmath.mp.workdps(dps):
        row = highprec.moment_rows(mk.WeightSystem.general([w]), 12)[0]
    with mpmath.mp.workdps(2 * dps):  # panels graded geometrically toward the pole
        fn, pts = w.mp_evaluator(), [0] + [gap * 4 ** i for i in range(8) if gap * 4 ** i < 1]
        ref = [mpmath.quad(lambda x: (2 * x - 1) ** k * fn(x), pts + [1]) for k in range(13)]
        dev = max(abs(v - r) for v, r in zip(row, ref)) / max(map(abs, ref))
    assert dev < mpmath.mpf(10) ** (3 - dps)


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
    """(integral of t^k w, integral of |t|^k w) for w = (b-x)^al (x-a)^be and
    the hull coordinate t = (2x - a - b) / (b - a) of its support, by
    mpmath.quad in u = (x - a) / (b - a) at dps + 20 digits.  [0, 1] is
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

        value = integral(lambda x: ((2 * x - A - A - L) / L) ** k)
        with mpmath.mp.workdps(15):
            size = integral(lambda x: abs((2 * x - A - A - L) / L) ** k)
        return value, size


@pytest.mark.parametrize("a,b,al,be,k_max,ks", [
    (1.0, 2.0, 0.5, -0.5, 12, (0, 1, 2, 5, 11, 12)),
    (1.0, 2.0, -0.5, -0.5, 12, (0, 1, 2, 5, 11, 12)),
    (-2.0, -1.0, 0.5, -0.5, 12, (0, 1, 2, 5, 11, 12)),
    (-1.0, 1.0, -0.6, 0.0, 12, (0, 1, 2, 5, 11, 12)),
    (-1.0, 0.0, 0.5, 0.5, 12, (0, 1, 2, 5, 11, 12)),
    (-1.0, 1.0, -0.6, 0.0, 58, (57, 58)),  # binomial cancellation: guard bits
    (0.0, 1.0, 0.5, 0.5, 12, (0, 1, 2, 5, 11, 12)),  # odd moments vanish in t
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

    def counted(ws, k_max, *records):
        calls.append((mpmath.mp.dps, k_max))
        return plain(ws, k_max, *records)

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


def _type1_at(mt, nvec, dps):
    """Type I blocks (lists of mpf) of M x = e_n, one ``rung_solve`` at ``dps``."""
    e_n = lambda rows: np.eye(1, nvec.n, nvec.n - 1, dtype=object)[0]
    (_, sol), _ = highprec.rung_solve(mt, nvec, e_n, dps)
    return [sol[e - nj : e] for nj, e in zip(nvec.parts, np.cumsum(nvec.parts))]


def _type2_at(mt, nvec, dps):
    """Type II coefficients in t (mpf, without the leading 1) of M^T a = -b
    and their condition bound, one ``rung_solve`` at ``dps``."""
    (_, a), bound = highprec.rung_solve(mt, nvec, lambda rows: _type2_system(rows, nvec)[1],
                                        dps, transpose=True)
    return a, bound


def _q_150(ws, mt, parts, xs):
    """Q at xs from a 150-digit type I solve on ``mt``, point by point:
    s^-(n-1) times the form of the solution in the hull coordinate."""
    blocks = _type1_at(mt, mk.MultiIndex(parts), 150)
    with mpmath.mp.workdps(150):
        s = ws.hull_coordinate()[1]
        B = np.array([sum(blocks, [])], dtype=object) / mpmath.mpf(s) ** (sum(parts) - 1)
    return highprec.MPForm(ws, parts, B, 150).eval_direct(xs, xs)


def test_type1_sweep_matches_150_digit_solve():
    ws = _exp_nikishin()
    mt, ref_mt = mk.moment_table(ws, 14), mk.moment_table(ws, 14)
    xs = np.linspace(1.0, 2.0, 52)[1:-1]
    for parts in SWEEP[2:]:
        ts = mk.type1_mop(mt, parts)
        assert ts.hp_coeffs is not None
        ref = _q_150(ws, ref_mt, parts, xs)
        assert np.max(np.abs(ts.q_values(xs) - ref)) <= 1e-12 * np.max(np.abs(ref)), parts


def _constant_nikishin():
    return mk.build_nikishin(mk.WeightSpec.constant(1.0, 2.0), [mk.WeightSpec.constant(-1.0, 0.0)])


def _q_error(ws, mt, parts, xs):
    """max |Q - Q_150| / max |Q_150| against a 150-digit solve on a fresh table."""
    ts = mk.type1_mop(mt, parts)
    ref = _q_150(ws, mk.moment_table(ws, mt.k_max), parts, xs)
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
    a, _ = _type2_at(mt, mk.MultiIndex((n, n)), 2 * P.hp_dps)
    ref = mk.poly_roots(mk.Polynomial(_affine_unscale(np.append(a, 1), mt, 2 * n, 2 * P.hp_dps)))
    assert np.max(np.abs(roots - ref)) <= 1e-10


@pytest.mark.parametrize("n", [8, 9, 10])
def test_nikishin_type1_retry_matches_150_digit_solve(n):
    ws = _constant_nikishin()
    xs = np.linspace(1.01, 1.99, 50)
    assert _q_error(ws, mk.moment_table(ws, 2 * n * 2 - 2), (n, n), xs) <= 1e-9


def test_shifted_angelesco_type1_matches_150_digit_solve():
    ws = mk.build_angelesco([mk.WeightSpec.constant(9.0, 10.0), mk.WeightSpec.constant(10.0, 11.0)])
    xs = np.concatenate([np.linspace(9.0, 10.0, 27)[1:-1], np.linspace(10.0, 11.0, 27)[1:-1]])
    assert _q_error(ws, mk.moment_table(ws, 26), (7, 7), xs) <= 1e-12


def _shifted_angelesco():
    return mk.build_angelesco([mk.WeightSpec.constant(9.0, 10.0),
                               mk.WeightSpec.constant(10.0, 11.0)])


def test_shifted_angelesco_solves_as_the_unshifted_one():
    # hull [9, 11] against [-1, 1]: t = x - 10 and the same moment system in t
    ws, ref_ws = _shifted_angelesco(), _angelesco()
    for parts in ((14, 14), (15, 15)):
        mt, ref_mt = mk.moment_table(ws, 3 * sum(parts)), mk.moment_table(ref_ws, 3 * sum(parts))
        ts, ref_ts = mk.type1_mop(mt, parts), mk.type1_mop(ref_mt, parts)
        assert ts.hp_dps == ref_ts.hp_dps
        assert mk.type2_mop(mt, parts).hp_dps == mk.type2_mop(ref_mt, parts).hp_dps
        x = np.concatenate([np.linspace(-1.0, 0.0, 27)[1:-1], np.linspace(0.0, 1.0, 27)[1:-1]])
        q = ref_ts.q_values(x)
        assert np.max(np.abs(ts.q_values(x + 10.0) - q)) <= 1e-12 * np.max(np.abs(q)), parts
    K, ref_K = _kernel(ws, (8, 8)), _kernel(ref_ws, (8, 8))
    x, y = _random_points(ref_ws, 300, 16)
    vals = mk.kernel_eval(ref_K, x, y)
    shifted = mk.kernel_eval(K, x + 10.0, y + 10.0)
    assert np.max(np.abs(shifted - vals)) <= 1e-12 * np.max(np.abs(vals))


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
    # generator [-2, -1]: condition bound ~1e65 at (14, 14), past the retry's 83 digits
    ws = mk.build_nikishin(mk.WeightSpec.constant(1.0, 2.0), [mk.WeightSpec.constant(-2.0, -1.0)])
    mt = mk.moment_table(ws, 41)
    with pytest.raises(mk.PrecisionExhausted):
        mk.type2_mop(mt, (14, 14))


def _kernel(ws, parts):
    n = sum(parts)
    return mk.biorthogonalize(mk.block_hankel(mk.moment_table(ws, 2 * n + max(parts)), parts),
                              ws, parts)


#: mpmath-rung kernels whose Chebyshev proxy must hold on every segment
PROXY_KERNELS = {
    "nikishin_4_4": (_constant_nikishin, (4, 4)),
    "nikishin_8_8": (_constant_nikishin, (8, 8)),
    "nikishin_jacobi_4_4": (lambda: mk.build_nikishin(mk.WeightSpec.jacobi(1.0, 2.0, 0.5, -0.5),
                                                      [mk.WeightSpec.constant(-1.0, 0.0)]),
                            (4, 4)),
    "angelesco_8_8": (lambda: mk.build_angelesco([mk.WeightSpec.constant(-1.0, 0.0),
                                                  mk.WeightSpec.constant(0.0, 1.0)]), (8, 8)),
}


def _random_points(ws, size, seed):
    hull = ws.support_hull()
    return np.random.default_rng(seed).uniform(hull.a, hull.b, (2, size))


@pytest.mark.parametrize("name", sorted(PROXY_KERNELS))
def test_kernel_proxy_matches_direct(name):
    make, parts = PROXY_KERNELS[name]
    ws = make()
    K = _kernel(ws, parts)
    assert K.mp is not None and K.mp.proxy is None  # built on the first evaluation
    x, y = _random_points(ws, 1000, 12)
    vals = mk.kernel_eval(K, x, y)
    records = K.mp.proxy.records
    assert len(records) == len(ws.support_segments())
    assert all("direct" not in r and r["tail"] <= highprec.PROXY_TAIL for r in records)
    direct = K.mp.eval_direct(x, y)
    assert np.max(np.abs(vals - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_linear_form_proxy_matches_150_digit_solve():
    ws = _constant_nikishin()
    mt = mk.moment_table(ws, 30)
    ts = mk.type1_mop(mt, (8, 8))
    assert ts.hp_coeffs is not None and ts.mp.proxy is None
    xs = _random_points(ws, 1000, 13)[0]
    q = ts.q_values(xs)
    assert all("direct" not in r for r in ts.mp.proxy.records)
    ref = _q_150(ws, mk.moment_table(ws, 30), (8, 8), xs)
    assert np.max(np.abs(q - ref)) <= 1e-12 * np.max(np.abs(ref))


def _angelesco():
    return mk.build_angelesco([mk.WeightSpec.constant(-1.0, 0.0), mk.WeightSpec.constant(0.0, 1.0)])


@pytest.mark.parametrize("make,parts,rung,tol", [
    (_angelesco, (2, 2), "float", 1e-10),
    (_constant_nikishin, (2, 1), "float", 1e-10),
    (_constant_nikishin, (4, 4), "mp", 1e-12),
    (_exp_nikishin, (3, 3), "mp", 1e-12),
    (_angelesco, (8, 8), "mp", 1e-12),
])
def test_linear_form_is_the_kernels_top_x_coefficient(make, parts, rung, tol):
    # the integral of t^k Q is 0 for k < n - 1 and s^-(n-1) for k = n - 1, in
    # the hull coordinate t = (x - c)/s, so Q is s^-(n-1) times row n - 1 of
    # psi = M^-T applied to g(t), on either rung
    ws, n = make(), sum(parts)
    mt = mk.moment_table(ws, 2 * n + max(parts))
    K = mk.biorthogonalize(mk.block_hankel(mt, parts), ws, parts)
    assert ("mp" if K.mp is not None else "float") == rung
    y = np.concatenate([np.linspace(lo, hi, 22)[1:-1] for lo, hi in ws.support_segments()])
    c, s = ws.hull_coordinate()
    if K.mp is None:
        top = K.psi[n - 1] @ g_matrix(ws, parts, y, LD, c, s) / LD(s) ** (n - 1)
    else:  # at the kernel's precision
        with mpmath.mp.workdps(K.mp.dps):
            row = K.psi[n - 1 : n] / mpmath.mpf(s) ** (n - 1)
        top = highprec.MPForm(ws, parts, row, K.mp.dps).eval_direct(y, y)
    q = mk.type1_mop(mt, parts).q_values(y)
    assert np.max(np.abs(q - top.astype(float))) <= tol * np.max(np.abs(q))


def test_kernel_proxy_falls_back_when_the_tail_does_not_decay():
    # K / e_S carries 1 / sqrt(1 - y^2) from the constant weight: no decay
    ws = mk.WeightSystem.general([mk.Weight.from_spec(mk.WeightSpec.constant(-1.0, 1.0)),
                                  mk.Weight.from_spec(mk.WeightSpec.jacobi(-1.0, 1.0, 0.5, 0.5))])
    K = _kernel(ws, (6, 6))
    assert K.mp is not None
    x, y = _random_points(ws, 200, 14)
    vals = mk.kernel_eval(K, x, y)
    [record] = K.mp.proxy.records
    assert record["direct"] and record["tail"] > highprec.PROXY_TAIL
    assert vals.tobytes() == K.mp.eval_direct(x, y).tobytes()


def test_points_off_the_proxy_go_direct():
    K = _kernel(_constant_nikishin(), (4, 4))
    x = np.array([1.5, 2.5, 1.5, 1.5, 0.5, 1.2])
    y = np.array([1.5, 1.5, 1.0, 2.0, 1.7, 1.3])  # x off the hull [1, 2], y on an end
    mk.kernel_eval(K, 1.5, 1.5)
    proxy, seen = K.mp.proxy, []
    direct = proxy.direct
    proxy.direct = lambda xs, ys: seen.append((xs.tolist(), ys.tolist())) or direct(xs, ys)
    vals = mk.kernel_eval(K, x, y)
    assert seen == [([2.5, 1.5, 1.5, 0.5], [1.5, 1.0, 2.0, 1.7])]
    assert vals[[1, 2, 3, 4]].tobytes() == K.mp.eval_direct(x[[1, 2, 3, 4]],
                                                            y[[1, 2, 3, 4]]).tobytes()
    assert np.allclose(vals[[0, 5]], K.mp.eval_direct(x[[0, 5]], y[[0, 5]]), rtol=1e-14)


def test_nested_quadrature_runs_once_per_proxy_node(monkeypatch):
    # an exp_poly generator puts one inner mpmath.quad into every value of w_2
    ws = mk.build_nikishin(mk.WeightSpec.exp_poly(1.0, 2.0, [0.0, 1.0]),
                           [mk.WeightSpec.exp_poly(-1.0, 0.0, [0.0, 0.5])])
    mt = mk.moment_table(ws, 12)
    ts = mk.type1_mop(mt, (3, 3), method="mp")
    K = mk.biorthogonalize(mk.block_hankel(mt, (3, 3)), ws, (3, 3))
    assert K.mp is not None
    calls, plain = [], mpmath.quad
    monkeypatch.setattr(mpmath, "quad", lambda *a, **k: calls.append(1) or plain(*a, **k))
    x, y = _random_points(ws, 400, 15)
    for evaluate, owner in ((lambda: mk.kernel_eval(K, x, y), K.mp),
                            (lambda: ts.q_values(y), ts.mp)):
        calls.clear()
        evaluate()
        nodes = sum(r["nodes"] for r in owner.proxy.records)
        assert all("direct" not in r for r in owner.proxy.records)
        assert 0 < len(calls) <= nodes < x.size


# -- one LU of M per index and dps: type I solves M, type II M^T -------------

@pytest.fixture
def lu_calls(monkeypatch):
    calls, plain = [], linalg._fixed_lu
    monkeypatch.setattr(linalg, "_fixed_lu", lambda a: calls.append(len(a)) or plain(a))
    return calls


def _kmax(parts):
    n = sum(parts)
    return max(n + max(parts) - 1, 2 * n - 2)


@pytest.mark.parametrize("make,parts", [(_angelesco, (7, 7)), (_constant_nikishin, (4, 4))])
def test_type2_and_type1_agree_in_either_order(make, parts, lu_calls):
    # type II, type I and the kernel, in every order, are one solve of M
    ws, out = make(), []
    for order in itertools.permutations(("type2", "type1", "kernel")):
        mt = mk.moment_table(ws, _kmax(parts))
        lu_calls.clear()
        build = {"type2": lambda: mk.type2_mop(mt, parts),
                 "type1": lambda: mk.type1_mop(mt, parts),
                 "kernel": lambda: mk.biorthogonalize(mk.block_hankel(mt, parts), ws, parts)}
        got = {name: build[name]() for name in order}
        P, ts, K = got["type2"], got["type1"], got["kernel"]
        assert P.method == "mp" and ts.hp_coeffs is not None and K.mp is not None
        out.append((P.coeffs.tobytes(), ts.hp_rows_dps,
                    [a.coeffs.tobytes() for a in ts.polys],
                    [[v._mpf_ for v in blk] for blk in ts.hp_coeffs],
                    [v._mpf_ for v in K.psi.flat], len(lu_calls)))
        # one condition estimate, one dps, and M factored once
        assert P.condition_estimate == ts.condition_estimate == K.condition_estimate
        assert P.hp_dps == ts.hp_dps == K.mp.dps and len(lu_calls) == 1
    assert all(o == out[0] for o in out)


def test_copied_table_starts_without_an_lu():
    mt = mk.moment_table(_angelesco(), _kmax((5, 5)))
    P = mk.type2_mop(mt, (4, 4), method="mp")
    assert list(mt.mp_lu) == [((4, 4), P.hp_dps)]
    assert dataclasses.replace(mt).mp_lu == {}
    mk.type1_mop(mt, (5, 5), method="mp")  # one entry: the last factorization
    assert [parts for parts, _ in mt.mp_lu] == [(5, 5)]


def test_mp_rung_converts_no_lu_to_mpf(lu_calls):
    # the LU of M stays in Python ints, factored once for type II, type I
    # and the kernel; det M and the bordered values agree with an mpf LU at
    # twice the dps to cond1 10^-dps, relative (the values are floats)
    from helpers import ref_det

    ws, parts = _constant_nikishin(), (4, 4)
    mt = mk.moment_table(ws, _kmax(parts))
    P, ts = mk.type2_mop(mt, parts), mk.type1_mop(mt, parts)
    K = mk.biorthogonalize(mk.block_hankel(mt, parts), ws, parts)
    dps, factors = P.hp_dps, mt.mp_lu[parts, P.hp_dps]
    assert ts.hp_dps == K.mp.dps == dps and list(mt.mp_lu) == [(parts, dps)]
    assert len(lu_calls) == 1 and K.factors is factors
    assert isinstance(factors[0], linalg.FixedLU)
    assert all(type(v) is int for v in factors[0].lu.flat)
    points = [(1.1, 1.3), (1.25, 1.9), (1.5, 1.5), (1.7, 1.2), (1.95, 1.05)]
    got = [mk.kernel_eval_bordered(K, x, y) for x, y in points]
    with mpmath.mp.workdps(dps):
        det_m = linalg.lu_det(factors[0], factors[2])
    n, at, rel = K.n, ws.hull_coordinate(), K.condition_estimate * 10.0 ** -dps
    with mpmath.mp.workdps(2 * dps):
        ref_m = ref_det(K.matrix)
        assert abs(det_m - ref_m) <= rel * abs(ref_m)
        for (x, y), value in zip(points, got):
            big = np.zeros((n + 1, n + 1), dtype=object)
            big[:n, :n] = K.matrix
            big[:n, n] = f_matrix(n, highprec._mpf([x]), object, *at)[:, 0]
            big[n, :n] = g_matrix(ws, K.nvec, highprec._mpf([y]), object, *at)[:, 0]
            ref = float(-ref_det(big) / ref_m)
            assert abs(value - ref) <= max(rel, 2.0 ** -52) * abs(ref)


def _legendre():
    return mk.build_angelesco([mk.WeightSpec.constant(-1.0, 1.0)])


SHARED = ([("legendre", _legendre, (n,)) for n in range(10, 31)]
          + [("angelesco", _angelesco, (n, n)) for n in range(5, 16)]
          + [("nikishin", _constant_nikishin, (n, n)) for n in range(2, 5)])


@pytest.mark.parametrize("make,parts", [case[1:] for case in SHARED],
                         ids=[f"{name}{parts}" for name, _, parts in SHARED])
def test_shared_lu_type2_matches_twice_the_dps(make, parts, lu_calls):
    # the ladder promises SURVIVING_DIGITS = 20 digits of |a|_1
    mt, nvec = mk.moment_table(make(), _kmax(parts)), mk.MultiIndex(parts)
    P = mk.type2_mop(mt, nvec, method="mp")
    _type1_at(mt, nvec, P.hp_dps)
    a, bound = _type2_at(mt, nvec, P.hp_dps)
    assert len(lu_calls) == 1  # type II, type I and type II again: one LU of M
    in_x = _affine_unscale(np.append(a, 1), mt, nvec.n, P.hp_dps)
    assert [float(v) for v in in_x[:-1]] == P.coeffs[:-1].tolist()
    assert np.log10(bound) + highprec.SURVIVING_DIGITS <= P.hp_dps
    with mpmath.mp.workdps(2 * P.hp_dps):
        ref = linalg.solve(*_type2_system(highprec.table_rows(mt, 2 * P.hp_dps)[1], nvec))
        err = max(abs(x - r) for x, r in zip(a, ref))
        assert err <= 1e-20 * sum(abs(r) for r in ref), (parts, float(err))


def test_kernel_type1_type2_sweep_computes_rows_once_per_rung(row_calls):
    # the kernel is the moment solve with the identity as right-hand side:
    # it reads the table's rows and factors M into the table's LU cache
    ws = _constant_nikishin()
    mt = mk.moment_table(ws, 20)
    for parts in ((3, 3), (4, 3), (4, 4), (5, 5)):
        K = mk.biorthogonalize(mk.block_hankel(mt, parts), ws, parts)
        if K.mp is not None:
            assert K.factors is mt.mp_lu[parts, K.mp.dps]
        mk.type1_mop(mt, parts)
        mk.type2_mop(mt, parts)
    assert K.mp is not None
    assert sorted(row_calls) == [(48, 20), (64, 20)]


def _kernel_150(ws, parts, x, y):
    """K(x, y) = f(x)^T M^-T g(y) point by point, with M^-1 from moment rows
    and a solve at 150 digits."""
    nvec = mk.MultiIndex(parts)
    with mpmath.mp.workdps(150):
        rows = highprec.moment_rows(ws, nvec.n + max(parts) - 2)
        lu, piv, _ = linalg.lu_factor(_hankel_from(rows, nvec, nvec.n))
        inverse = linalg.lu_solve(lu, piv, np.eye(nvec.n, dtype=object))
    return highprec.MPForm(ws, parts, inverse.T, 150).eval_direct(x, y)


@pytest.mark.parametrize("name", ["nikishin_4_4", "nikishin_8_8", "angelesco_8_8"])
def test_mp_kernel_matches_150_digit_reference(name):
    make, parts = PROXY_KERNELS[name]
    ws = make()
    K = _kernel(ws, parts)
    assert K.mp is not None
    x, y = _random_points(ws, 200, 14)
    ref = _kernel_150(ws, parts, x, y)
    assert np.max(np.abs(mk.kernel_eval(K, x, y) - ref)) <= 1e-12 * np.max(np.abs(ref))

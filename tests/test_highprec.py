"""mpmath moment rows: Beta-function closed forms for pure Jacobi weights,
one tanh-sinh pass per weight, bit-identical to quad, for the rest, and
one pass per moment table and precision rung for type I solves; one LU of
the moment matrix per index and precision for type I and type II."""

import dataclasses
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import mopkit as mk
from mopkit import highprec, linalg
from mopkit.ensemble import g_matrix
from mopkit.linalg import LD
from mopkit.mop import _type2_system
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


def _type1_at(mt, nvec, dps):
    """Type I blocks (lists of mpf) of M x = e_n, one ``rung_solve`` at ``dps``."""
    e_n = lambda rows: np.eye(1, nvec.n, nvec.n - 1, dtype=object)[0]
    (_, sol), _ = highprec.rung_solve(mt, nvec, e_n, dps)
    return [sol[e - nj : e] for nj, e in zip(nvec.parts, np.cumsum(nvec.parts))]


def _type2_at(mt, nvec, dps):
    """Type II coefficients (mpf, without the leading 1) of M^T a = -b and
    their condition bound, one ``rung_solve`` at ``dps``."""
    (_, a), bound = highprec.rung_solve(mt, nvec, lambda rows: _type2_system(rows, nvec)[1],
                                        dps, transpose=True)
    return a, bound


def _q_150(ws, mt, parts, xs):
    """Q at xs from a 150-digit type I solve on ``mt``, point by point."""
    blocks = _type1_at(mt, mk.MultiIndex(parts), 150)
    return highprec.linear_form(ws, blocks, 150).eval_direct(xs, xs)


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
    ref = mk.poly_roots(mk.Polynomial([float(v) for v in a] + [1.0]))
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
    # the integral of x^k Q is 0 for k < n - 1 and 1 for k = n - 1, so
    # Q(y) = sum_j phi_j,n-1 psi_j(y)
    ws, n = make(), sum(parts)
    mt = mk.moment_table(ws, 2 * n + max(parts))
    K = mk.biorthogonalize(mk.block_hankel(mt, parts), ws, parts)
    assert ("mp" if K.mp is not None else "float") == rung
    y = np.concatenate([np.linspace(lo, hi, 22)[1:-1] for lo, hi in ws.support_segments()])
    if K.mp is None:
        top = (K.phi[:, n - 1] @ K.psi) @ g_matrix(ws, parts, y, dtype=LD)
    else:  # every mpf product at the kernel's precision
        top = highprec.MPForm(ws, parts, K.phi[:, n - 1 : n], K.psi, K.mp.dps, 1).eval_direct(y, y)
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
    calls, plain = [], linalg._mpf_lu
    monkeypatch.setattr(linalg, "_mpf_lu", lambda rows: calls.append(len(rows)) or plain(rows))
    return calls


def _kmax(parts):
    n = sum(parts)
    return max(n + max(parts) - 1, 2 * n - 2)


@pytest.mark.parametrize("make,parts", [(_angelesco, (7, 7)), (_constant_nikishin, (3, 3))])
def test_type2_and_type1_agree_in_either_order(make, parts, lu_calls):
    ws, out = make(), []
    for type2_first in (True, False):
        mt = mk.moment_table(ws, _kmax(parts))
        lu_calls.clear()
        if type2_first:
            P, ts = mk.type2_mop(mt, parts), mk.type1_mop(mt, parts)
        else:
            ts, P = mk.type1_mop(mt, parts), mk.type2_mop(mt, parts)
        assert P.method == "mp" and ts.hp_coeffs is not None
        out.append((P.coeffs.tobytes(), P.hp_dps, ts.hp_dps, ts.hp_rows_dps,
                    [a.coeffs.tobytes() for a in ts.polys],
                    [[v._mpf_ for v in blk] for blk in ts.hp_coeffs], len(lu_calls)))
    assert out[0] == out[1]
    # both start the ladder from cond1 of M, take one dps and factor M once
    assert out[0][-1] == 1 and P.hp_dps == ts.hp_dps


def test_copied_table_starts_without_an_lu():
    mt = mk.moment_table(_angelesco(), _kmax((5, 5)))
    P = mk.type2_mop(mt, (4, 4), method="mp")
    assert list(mt.mp_lu) == [((4, 4), P.hp_dps)]
    assert dataclasses.replace(mt).mp_lu == {}
    mk.type1_mop(mt, (5, 5), method="mp")  # one entry: the last factorization
    assert [parts for parts, _ in mt.mp_lu] == [(5, 5)]


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
    assert [float(v) for v in a] == P.coeffs[:-1].tolist()
    assert np.log10(bound) + highprec.SURVIVING_DIGITS <= P.hp_dps
    with mpmath.mp.workdps(2 * P.hp_dps):
        ref = linalg.solve(*_type2_system(highprec.table_rows(mt, 2 * P.hp_dps)[1], nvec))
        err = max(abs(x - r) for x, r in zip(a, ref))
        assert err <= 1e-20 * sum(abs(r) for r in ref), (parts, float(err))

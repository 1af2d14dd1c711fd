"""The buffered hot paths against their straightforward forms, bit for bit.

The references below are the unbuffered Metropolis sweep (a fresh array per
step, the constant weight's support as a 0/-inf term), the weight values
through ``np.atleast_1d`` and ``np.polynomial.polynomial.polyval``, the
g-matrix blocks started from a row of ones, the float kernel on all points
at once, the bordered kernel that factors M again, the mpmath form with an
identity factor on its f-basis, and the LU solves with an inf or nan
entry as numpy loops on object arrays of mpf; the moment table of a system
on the hull [-1, 1] against the pass over its raw rows, the type II
right-hand side against the transposed (n + 1)-row system, and the in-place
Horner steps and the root screen's scale against their loops.  The
fixed-point LU of finite mpf input is held to
its accuracy instead: the transposed solve within ``helpers.LU_ACCURACY``
n cond 2^-prec of the numpy loops at 2 prec + 40 bits, and the float
stopping estimate of the moment rows to quad's power of ten, except where
its exponent lies within float error of an integer.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.calculus.quadrature import GaussLegendre, TanhSinh

import mopkit as mk
from mopkit import ensemble, highprec, linalg, sampling, weights
from mopkit.exceptions import NumericError, QuadratureError
from mopkit.mop import _coefficient_scale, _hankel_from, _type2_rhs, as_multi_index
from mopkit.quadrature import adaptive_quad
from mopkit.weights import powers
from mopkit.sampling import SamplerConfig, sample_mcmc

C, J, E = mk.WeightSpec.constant, mk.WeightSpec.jacobi, mk.WeightSpec.exp_poly


# -- the unbuffered sweep ------------------------------------------------------

def ref_move(target, state, idx, prop):
    """Change in log density when coordinate idx moves to prop (per chain)."""
    w = target.coord_weight[idx]
    if w.ratio is None and w.spec.family == "constant":
        iv = w.support
        dlog = np.where((iv.a <= prop) & (prop <= iv.b), 0.0, -np.inf)
    else:
        dlog = w.log_values(prop) - w.log_values(state[:, idx])
    dv = np.log(np.abs(prop[:, None] - state)) - np.log(np.abs(state[:, idx, None] - state))
    dv[:, idx] = 0.0
    return dlog + dv @ target.mult[idx]


def ref_sweep(target, state, logp, sigma, rng, accepts, work=None):
    """One Metropolis pass with a fresh array per step; ``work`` is unused."""
    C = state.shape[0]
    general = target.kind == "general"
    for idx in range(target.ncoord):
        prop = state[:, idx] + sigma[idx] * rng.standard_normal(C)
        if general:
            cand = state.copy()
            cand[:, idx] = prop
            new = target.log_density(cand)
            dlog = new - logp
        else:
            dlog = ref_move(target, state, idx, prop)
        ok = np.log(rng.random(C)) < dlog
        np.copyto(state[:, idx], prop, where=ok)
        if general:
            np.copyto(logp, new, where=ok)
        accepts[idx] += np.count_nonzero(ok)


#: name -> (weight system builder, multi-index, expected sampler kind)
SAMPLER_TARGETS = {
    "factored_constant": (lambda: mk.build_angelesco([C(-1.0, 0.0), C(0.0, 1.0)]), (2, 2),
                          "factored"),
    "factored_jacobi_exp_poly": (
        lambda: mk.build_angelesco([J(-1.0, 0.0, 0.5, 0.5), E(0.0, 1.0, (0.3, 1.0))]), (2, 2),
        "factored"),
    "nikishin_extended": (lambda: mk.build_nikishin(C(1.0, 2.0), [C(-1.0, 0.0)]), (2, 2),
                          "nikishin"),
    "general_constant_exp_poly": (
        lambda: mk.WeightSystem.general([mk.Weight.from_spec(C(-1.0, 1.0)),
                                         mk.Weight.from_spec(E(-1.0, 1.0, (0.0, 1.0)))]),
        (1, 1), "general"),
    # support ends that are not binary fractions, so proposals test them closely
    "factored_constant_inexact_ends": (
        lambda: mk.build_angelesco([C(0.1, 0.7), C(0.7, 1.3)]), (2, 1), "factored"),
    "nikishin_extended_exp_poly": (
        lambda: mk.build_nikishin(E(1.0, 2.0, (0.3, -0.8)), [C(-1.0, 0.0)]), (2, 2), "nikishin"),
    "p1_128_chains": (lambda: mk.build_angelesco([C(-1.0, 1.0)]), (3,), "factored"),
}
#: name -> sampler settings other than the common ones
SAMPLER_KNOBS = {"p1_128_chains": {"chains": 128, "burn_in": 600}}  # two step retunings


def _batch_bytes(batch):
    ext = None if batch.extended is None else batch.extended.tobytes()
    return (batch.configurations.shape, batch.configurations.tobytes(), ext,
            batch.acceptance_rate.hex(), batch.ess.hex(), batch.seed, batch.kind,
            tuple(s.hex() for s in batch.step_sizes))


@pytest.mark.parametrize("name", sorted(SAMPLER_TARGETS))
def test_buffered_sweep_matches_unbuffered_sweep(name, monkeypatch):
    build, nvec, kind = SAMPLER_TARGETS[name]
    ws = build()
    # 300 burn-in sweeps cross one step retuning
    knobs = {"chains": 48, "burn_in": 300, **SAMPLER_KNOBS.get(name, {})}
    cfg = SamplerConfig(samples=1000, thinning=3, seed=29, **knobs)
    batch = sample_mcmc(ws, nvec, cfg)
    monkeypatch.setattr(sampling, "_sweep", ref_sweep)
    ref = sample_mcmc(ws, nvec, cfg)
    assert batch.kind == kind
    assert _batch_bytes(batch) == _batch_bytes(ref)


# -- the general form's log density --------------------------------------------

def ref_log_det_form(ws, nvec, Xs):
    """log |det f * det g| with det g from ``g_matrix``, divide by zero
    ignored in the Vandermonde sum only."""
    lf = 0.0
    with np.errstate(divide="ignore"):
        for s in range(1, Xs.shape[1]):
            lf = lf + np.log(np.abs(Xs[:, s:] - Xs[:, :-s])).sum(axis=1)
    G = ensemble.g_matrix(ws, nvec, Xs.ravel()).reshape(-1, *Xs.shape)
    sg, lg = np.linalg.slogdet(G.transpose(1, 2, 0))
    return np.where(sg == 0, -np.inf, lg + lf)


#: name -> (weight system builder, multi-index) of the general form
DET_FORMS = {
    "constant_exp_poly": (SAMPLER_TARGETS["general_constant_exp_poly"][0], (1, 1)),
    # a scaled constant weight off part of the hull, and a Jacobi pole at x = 1
    "scaled_constant_jacobi": (
        lambda: mk.WeightSystem.general([mk.Weight.from_spec(C(-1.0, 0.5)).scaled(2.5),
                                         mk.Weight.from_spec(J(-1.0, 1.0, -0.5, 0.5))]),
        (2, 2)),
    "angelesco_jacobi": (lambda: mk.build_angelesco([J(-1.0, 0.0, -0.5, 0.5), C(0.0, 1.0)]),
                         (2, 1)),
    "nikishin_p3": (lambda: mk.build_nikishin(C(3.0, 4.0), [C(1.0, 2.0), C(-1.0, 0.0)]),
                    (1, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(DET_FORMS))
def test_det_form_matches_g_matrix_expression(name):
    build, nvec = DET_FORMS[name]
    ws, nvec = build(), as_multi_index(nvec)
    hull = ws.support_hull()
    rng = np.random.default_rng(13)
    Xs = rng.uniform(hull.a, hull.b, (200, nvec.n))
    Xs[:40] = rng.choice([hull.a, hull.b, 0.5, 0.0, hull.a - 0.25, hull.b + 0.25], (40, nvec.n))
    Xs[40:60, 1] = Xs[40:60, 0]  # coincident points
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * inf at a pole
        ref = ref_log_det_form(ws, nvec, Xs)
        assert ensemble._log_det_form(ws, nvec, Xs).tobytes() == ref.tobytes()
        assert ensemble._log_det_form(ws, nvec, Xs[::3]).tobytes() == ref[::3].tobytes()
        assert ensemble._det_form(ws, nvec, Xs)().tobytes() == ref.tobytes()
    assert np.all(ref[40:60] == -np.inf) and np.isfinite(ref).sum() >= 50


def test_public_densities_keep_their_values_and_raise_no_warnings():
    """The moves of ``sample_mcmc`` skip the errstate of these paths: they keep it."""
    w = mk.Weight.from_spec(J(-1.0, 2.0, -0.5, 0.5))
    ends = np.array([-1.0, 2.0])
    angelesco = DET_FORMS["angelesco_jacobi"][0]()
    general = DET_FORMS["scaled_constant_jacobi"][0]()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _same(w.values(ends), np.array([0.0, np.inf]))
        assert _same(w.log_values(ends), np.array([-np.inf, np.inf]))
        assert [w.values(-1.0), w.values(2.0)] == [0.0, np.inf]
        assert [w.log_values(-1.0), w.log_values(2.0)] == [-np.inf, np.inf]
        for ws, nvec, X in ((SAMPLER_TARGETS["general_constant_exp_poly"][0](), (1, 1), [0.3, 0.3]),
                            (angelesco, (2, 1), [-0.5, -0.5, 0.5]),
                            (general, (2, 2), [0.25, -0.5, 0.25, 0.75])):
            assert mk.joint_density(ws, nvec, X) == 0.0
        # a coordinate on an end of its support (a Jacobi zero or pole, a
        # constant weight's jump)
        state = np.array([[-1.0, 0.5], [0.0, 0.5], [-0.5, 1.0], [-0.5, 0.0]])
        got = ensemble._Target(angelesco, (1, 1)).log_density(state)
        assert _same(got, np.array([-np.inf, np.inf, np.log(1.5), np.log(0.5)]))
        state = np.array([[-1.0, 0.5], [1.0, 0.5], [-0.5, 1.0], [-0.5, -0.5]])
        target = ensemble._Target(general, (1, 1))
        assert target.kind == "general"
        assert _same(target.log_density(state), ref_log_det_form(general, (1, 1), state))


# -- the weight evaluators -------------------------------------------------------

def ref_family_log(w, x):
    s = w.spec
    if s.family == "constant":
        return np.full_like(np.asarray(x, dtype=float), math.log(w.scale))
    if s.family == "jacobi":
        with np.errstate(divide="ignore"):
            return (math.log(w.scale) + s.alpha * np.log(s.interval.b - x)
                    + s.beta * np.log(x - s.interval.a))
    return math.log(w.scale) - np.polynomial.polynomial.polyval(x, s.coeffs)


def ref_raw(w, x):
    s = w.spec
    if s.family == "constant":
        out = np.full_like(np.asarray(x, dtype=float), w.scale)
    elif s.family == "jacobi":
        with np.errstate(divide="ignore"):
            out = (w.scale * np.power(s.interval.b - x, s.alpha)
                   * np.power(x - s.interval.a, s.beta))
    else:
        out = np.exp(ref_family_log(w, x))
    return out if w.ratio is None else out * w.ratio(x)


def ref_raw_log(w, x):
    out = ref_family_log(w, x)
    return out if w.ratio is None else out + np.log(w.ratio(x))


def ref_on_support(w, x, fill, raw):
    x = np.asarray(x, dtype=float)
    xv, iv = np.atleast_1d(x), w.spec.interval
    m = (xv >= iv.a) & (xv <= iv.b)
    if m.all():
        out = raw(w, xv)
    else:
        out = np.full_like(xv, fill)
        out[m] = raw(w, xv[m])
    return float(out[0]) if x.ndim == 0 else out


def _weights():
    """name -> weight: every family, scaled ones, and Nikishin weights (a
    family weight times a Markov ratio)."""
    base = {"constant": C(-1.0, 2.0), "jacobi": J(-1.0, 2.0, 0.5, 0.5),
            "jacobi_negative": J(-1.0, 2.0, -0.6, 1.7), "exp_poly_deg0": E(-1.0, 2.0, (0.3,)),
            "exp_poly_deg1": E(-1.0, 2.0, (0.3, 1.0)),
            "exp_poly_deg3": E(-1.0, 2.0, (0.2, -0.5, 0.7, 0.1))}
    out = {name: mk.Weight.from_spec(s) for name, s in base.items()}
    out.update({f"{name}_scaled": out[name].scaled(2.5)
                for name in ("constant", "jacobi", "jacobi_negative")})
    for gen_name, gen in (("constant", C(-3.0, -2.0)), ("jacobi", J(-3.0, -2.0, 1.5, 0.5))):
        for name in ("jacobi", "exp_poly_deg1"):
            out[f"{name}_markov_{gen_name}"] = mk.build_nikishin(base[name], [gen]).weights[1]
    return out


WEIGHTS = _weights()


def _same(a, b):
    if np.ndim(a) == 0:
        return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_weight_values_match_the_reference_expressions(name):
    w = WEIGHTS[name]
    rng = np.random.default_rng(31)
    inside = rng.uniform(-1.0, 2.0, 64)
    ends = np.array([-1.0, 2.0, np.nextafter(-1.0, 0.0), np.nextafter(2.0, 0.0)])
    off = np.array([-1.5, np.nextafter(-1.0, -2.0), 2.25])
    inputs = [inside, np.concatenate([inside, ends]), np.concatenate([ends, off, inside]),
              off, inside[:1], np.empty(0), inside.reshape(8, 8)]
    inputs += [np.float64(v) for v in np.concatenate([inside[:4], ends, off])]
    inputs += [float(inside[5]), np.asarray(inside[6]), [0.25, -1.0, 3.0]]
    with np.errstate(divide="ignore", invalid="ignore"):
        for x in inputs:
            assert _same(w.values(x), ref_on_support(w, x, 0.0, ref_raw))
            assert _same(w.log_values(x), ref_on_support(w, x, -np.inf, ref_raw_log))


# -- the g-matrix, the blocked float kernel and the bordered kernel -------------

def ref_g_matrix(ws, nvec, xs, dtype=float, center=0.0, half_width=1.0):
    """Float and longdouble g-matrix rows, each block from a row of ones."""
    nvec = as_multi_index(nvec)
    xs = np.asarray(xs, dtype=dtype)
    ts = xs if (center, half_width) == (0.0, 1.0) else (xs - center) / half_width
    out = np.empty((nvec.n, xs.size), dtype=dtype)
    row = 0
    for j, nj in enumerate(nvec.parts):
        if nj == 0:
            continue
        wvals = ws.weights[j].values(np.asarray(xs, dtype=float)).astype(dtype)
        mono = np.ones_like(xs)
        for _ in range(nj):
            out[row] = mono * wvals
            mono = mono * ts
            row += 1
    return out


def ref_kernel_eval(K, x, y):
    """The float rung's K(x, y) on all points at once, in the hull coordinate."""
    xs, ys = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    at = K.ws.hull_coordinate()
    F = ensemble.f_matrix(K.n, xs.ravel(), linalg.LD, *at)
    G = ref_g_matrix(K.ws, K.nvec, ys.ravel(), linalg.LD, *at)
    vals = np.einsum("jm,jm->m", F, K.psi @ G).astype(float)
    return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)


def ref_kernel_eval_bordered(K, x, y):
    """K(x, y) by the bordered determinant in the hull coordinate, factoring M again."""
    n, rung_mp, at = K.n, K.mp is not None, K.ws.hull_coordinate()
    dtype, point = (object, highprec._mpf) if rung_mp else (linalg.LD, np.asarray)
    with highprec.mp.workdps(K.mp.dps if rung_mp else highprec.mp.dps):
        big = np.zeros((n + 1, n + 1), dtype=dtype)
        big[:n, :n] = K.matrix
        big[:n, n] = ensemble.f_matrix(n, point([x]), dtype, *at)[:, 0]
        big[n, :n] = ensemble.g_matrix(K.ws, K.nvec, point([y]), dtype, *at)[:, 0]
        return float(-linalg.det(big) / linalg.det(K.matrix))


def _same_entries(got, ref):
    """Equal values, signs of zero and NaN places (longdouble ``tobytes``
    also carries the padding bytes of each entry)."""
    return (got.dtype == ref.dtype and got.shape == ref.shape
            and np.array_equal(got, ref, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(ref)))


def _kernel(ws, nvec):
    mt = mk.moment_table(ws, 2 * sum(nvec))
    return mk.biorthogonalize(mk.block_hankel(mt, nvec), ws, nvec)


@pytest.mark.parametrize("dtype", [float, linalg.LD])
@pytest.mark.parametrize("name", ["factored_jacobi_exp_poly", "nikishin_extended",
                                  "general_constant_exp_poly"])
def test_g_matrix_matches_rows_from_ones(name, dtype):
    build, nvec, _ = SAMPLER_TARGETS[name]
    ws = build()
    hull = ws.support_hull()
    xs = np.concatenate([np.random.default_rng(3).uniform(hull.a - 0.5, hull.b + 0.5, 300),
                         [hull.a, hull.b]])
    for shift in ({}, {"center": hull.mid, "half_width": 0.5 * hull.length}):
        got, ref = (fn(ws, (1, 3) if len(nvec) == 2 else nvec, xs, dtype, **shift)
                    for fn in (ensemble.g_matrix, ref_g_matrix))
        assert _same_entries(got, ref)


def test_blocked_float_kernel_matches_one_block(monkeypatch):
    K = _kernel(mk.build_angelesco([J(-1.0, 0.0, 0.5, 0.5), E(0.0, 1.0, (0.3, 1.0))]), (2, 2))
    assert K.mp is None
    xy = np.random.default_rng(5).uniform(-1.25, 1.25, (2, 3 * ensemble.KERNEL_BLOCK + 17))
    ref = ref_kernel_eval(K, xy[0], xy[1])
    assert mk.kernel_eval(K, xy[0], xy[1]).tobytes() == ref.tobytes()
    grid = xy[:, :60].reshape(2, 6, 10)
    assert mk.kernel_eval(K, grid[0], grid[1]).tobytes() == ref[:60].reshape(6, 10).tobytes()
    assert mk.kernel_eval(K, xy[0, 0], xy[1, 0]) == ref[0]
    monkeypatch.setattr(ensemble, "KERNEL_BLOCK", 7)
    assert mk.kernel_eval(K, xy[0, :100], xy[1, :100]).tobytes() == ref[:100].tobytes()


@pytest.mark.parametrize("name,nvec,rung", [("factored_constant", (2, 2), "float"),
                                            ("nikishin_extended", (3, 3), "mp")])
def test_bordered_kernel_reuses_the_kernel_lu(name, nvec, rung, monkeypatch):
    K = _kernel(SAMPLER_TARGETS[name][0](), nvec)
    assert (K.mp is not None) == (rung == "mp")
    hull = K.ws.support_hull()
    pts = np.random.default_rng(7).uniform(hull.a, hull.b, (5, 2))
    ref = [ref_kernel_eval_bordered(K, x, y) for x, y in pts]
    factored = []
    plain = linalg.lu_factor
    monkeypatch.setattr(linalg, "lu_factor", lambda a: factored.append(len(a)) or plain(a))
    assert [mk.kernel_eval_bordered(K, x, y) for x, y in pts] == ref
    assert factored == [K.n + 1] * len(pts)  # the bordered matrix only


def _mpf_matrix(rng, shape, ints=False):
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    out = np.array([mpmath.mpf(v) / 3 for v in vals.flat], dtype=object).reshape(shape)
    if ints:
        out[rng.random(shape) < 0.3] = 0
    return out


def ref_form_direct(form, A, xs, ys):
    """f(t_x)^T A^T B g(t_y) point by point in mpmath, in the hull coordinate:
    F multiplied by A with ``_dot``, then one ``fdot`` per point."""
    out, at = np.empty(xs.size), form.ws.hull_coordinate()
    with mpmath.mp.workdps(form.dps):
        for lo in range(0, xs.size, highprec.CHUNK):
            x, y = (highprec._mpf(v[lo : lo + highprec.CHUNK]) for v in (xs, ys))
            AF = highprec._dot(A, ensemble.f_matrix(A.shape[1], x, object, *at))
            BG = highprec._dot(form.B, ensemble.g_matrix(form.ws, form.parts, y, object, *at))
            out[lo : lo + highprec.CHUNK] = [float(mpmath.fdot(f, g))
                                             for f, g in zip(AF.T, BG.T)]
    return out


@pytest.mark.parametrize("build,nvec,kind", [
    (lambda: mk.build_nikishin(C(1.0, 2.0), [C(-1.0, 0.0)]), (4, 4), "kernel"),
    (lambda: mk.build_angelesco([C(-1.0, 0.0), C(0.0, 1.0)]), (8, 8), "kernel"),
    (lambda: mk.WeightSystem.general([mk.Weight.from_spec(C(-1.0, 1.0)),
                                      mk.Weight.from_spec(J(-1.0, 1.0, 0.5, 0.5))]), (6, 6),
     "kernel"),
    (lambda: mk.build_nikishin(C(1.0, 2.0), [C(-1.0, 0.0)]), (4, 4), "type1"),
])
def test_mp_form_matches_the_form_with_an_identity_factor(build, nvec, kind):
    ws = build()
    form = (_kernel(ws, nvec) if kind == "kernel"
            else mk.type1_mop(mk.moment_table(ws, 2 * sum(nvec)), nvec)).mp
    assert form is not None
    A = np.eye(len(form.B), dtype=object)  # n x n for K, 1 x 1 for Q
    hull = ws.support_hull()
    xs, ys = np.random.default_rng(11).uniform(hull.a - 0.25, hull.b + 0.25, (2, 150))
    assert form.eval_direct(xs, ys).tobytes() == ref_form_direct(form, A, xs, ys).tobytes()


def ref_lu_solve_transposed(lu, piv, b):
    """A^T x = b from P A = L U: U^T y = b, L^T z = y, x[piv] = z, as numpy
    loops on object arrays."""
    n = lu.shape[0]
    x = np.array(b, dtype=object, copy=True)
    for k in range(n):
        if lu[k, k] == 0:
            raise NumericError("singular matrix in lu_solve")
        x[k] /= lu[k, k]
        x[k + 1 :] -= np.outer(lu[k, k + 1 :], x[k])
    for k in range(n - 1, 0, -1):
        x[:k] -= np.outer(lu[k, :k], x[k])
    out = np.empty_like(x)
    out[piv] = x
    return out


def _moment_matrix(ws, parts, rows_dps):
    nvec = as_multi_index(parts)
    with mpmath.mp.workdps(rows_dps):
        rows = highprec.moment_rows(ws, nvec.n + max(nvec.parts))
    return _hankel_from(rows, nvec, nvec.n)


@pytest.mark.parametrize("rows_dps,dps", [(20, 20), (64, 50)])
def test_transposed_solve_matches_numpy_object_loop(rows_dps, dps):
    # to the stated accuracy of the fixed-point LU, against the loops at
    # 2 prec + 40 bits; a singular matrix raises in both
    from helpers import LU_ACCURACY, ref_cond1, ref_lu_factor

    rng = np.random.default_rng(dps)
    mats = [_moment_matrix(mk.build_angelesco([C(-1.0, 0.0), C(0.0, 1.0)]), (4, 4), rows_dps),
            _moment_matrix(mk.build_nikishin(C(1.0, 2.0), [C(-1.0, 0.0)]), (6, 6), rows_dps),
            _mpf_matrix(rng, (7, 7), ints=True)]
    with mpmath.mp.workdps(dps):
        prec = mpmath.mp.prec
        for a in mats:
            lu, piv, _ = linalg.lu_factor(a)
            for b in (a[0], a[::-1, :3], _mpf_matrix(rng, (len(a), 2))):
                got = linalg.lu_solve(lu, piv, b, transpose=True).reshape(len(a), -1)
                with mpmath.mp.workprec(2 * prec + 40):
                    ref_lu, ref_piv, _ = ref_lu_factor(a)
                    ref = ref_lu_solve_transposed(ref_lu, ref_piv, b.reshape(len(a), -1))
                    tol = LU_ACCURACY * len(a) * ref_cond1(a.T) * mpmath.mpf(2) ** -prec
                    for col, ref_col in zip(got.T, ref.T):
                        assert np.max(np.abs(col - ref_col)) <= tol * np.max(np.abs(ref_col))
        singular = np.array([[mpmath.mpf(v) for v in row]
                             for row in ([0, 1, 2], [0, 3, 4], [0, 5, 7])], dtype=object)
        lu, piv, _ = linalg.lu_factor(singular)
        with pytest.raises(NumericError):
            linalg.lu_solve(lu, piv, singular[0], transpose=True)
        with pytest.raises(NumericError):
            ref_lu_solve_transposed(*ref_lu_factor(singular)[:2], singular[:, :1])


# -- one adaptive pass per weight ------------------------------------------------

PASS_SYSTEMS = {
    "constant": lambda: mk.build_angelesco([C(-1.0, 1.0)]),
    "constant_shifted": lambda: mk.build_angelesco([C(9.0, 10.5)]),
    "jacobi_half": lambda: mk.build_angelesco([J(-1.0, 1.0, -0.5, -0.5)]),
    "jacobi_shifted": lambda: mk.build_angelesco([J(-1.0, 0.0, 0.3, 1.5),
                                                  J(0.0, 2.0, 1.5, -0.5)]),
    "jacobi_narrow": lambda: mk.build_angelesco([J(0.5, 1.0, 1.5, -0.5)]),
    "exp_poly": lambda: mk.build_angelesco([E(-1.0, 0.0, [0.0, 0.7, 0.3]),
                                            E(0.0, 1.0, [0.2, -0.4])]),
    "exp_poly_shifted": lambda: mk.build_angelesco([E(4.0, 5.0, [0.1, 0.3, -0.05])]),
    "markov_constant": lambda: mk.build_nikishin(C(-1.0, 1.0), [C(2.0, 3.0)]),
    "markov_constant_shifted": lambda: mk.build_nikishin(J(1.0, 2.0, 0.5, -0.5), [C(-1.0, 0.0)]),
    "markov_exp_poly": lambda: mk.build_nikishin(J(-1.0, 1.0, 0.3, 1.5),
                                                 [E(-3.0, -2.0, [0.1, 0.4])]),
    "markov_exp_poly_shifted": lambda: mk.build_nikishin(E(1.0, 2.0, [0.2, -0.5]),
                                                         [E(-1.0, 0.0, [0.1, 0.4])]),
}


@pytest.mark.parametrize("k_max", [2, 13])
@pytest.mark.parametrize("name", sorted(PASS_SYSTEMS))
def test_moment_table_matches_one_quadrature_per_order(name, k_max):
    from helpers import ref_moment_table

    ws = PASS_SYSTEMS[name]()
    mt = mk.moment_table(ws, k_max)
    raw, scaled = ref_moment_table(ws, k_max)
    assert mt.raw.tobytes() == raw.tobytes()
    assert mt.scaled.tobytes() == scaled.tobytes()
    assert all(mk.moments(ws, j, k_max).tobytes() == raw[j - 1].tobytes()
               for j in range(1, ws.p + 1))
    assert mt.panels.shape == mt.errors.shape == (ws.p, k_max + 1)
    assert mt.panels.min() >= 1 and np.all(mt.errors >= 0.0)


UNIT_HULL_FAMILIES = {"constant": lambda a, b: C(a, b),
                      "jacobi": lambda a, b: J(a, b, 0.5, -0.5),
                      "exp_poly": lambda a, b: E(a, b, [0.3, -0.7, 0.2])}


@pytest.mark.parametrize("pieces", [[(-1.0, 1.0)], [(-1.0, 0.0), (0.0, 1.0)]],
                         ids=["legendre", "angelesco"])
@pytest.mark.parametrize("family", sorted(UNIT_HULL_FAMILIES))
def test_unit_hull_table_takes_one_pass_of_the_raw_rows(family, pieces):
    # on the hull [-1, 1], (x - 0.0)/1.0 is x: the hull rows are the raw rows,
    # with the same error estimates and panels
    ws = mk.build_angelesco([UNIT_HULL_FAMILIES[family](a, b) for a, b in pieces])
    assert ws.hull_coordinate() == (0.0, 1.0)
    value, error, panels = map(np.array, zip(*[weights._moment_pass(ws, j, 13, 1e-12, lambda x: x)
                                               for j in range(1, ws.p + 1)]))
    mt = mk.moment_table(ws, 13)
    assert mt.scaled.tobytes() == value.tobytes()
    assert mt.errors.tobytes() == error.tobytes() and mt.errors.dtype == error.dtype
    assert mt.panels.tobytes() == panels.tobytes() and mt.panels.dtype == panels.dtype
    assert mt.raw.tobytes() == value.tobytes()


def test_every_hull_table_takes_one_pass_per_weight_of_its_hull_rows(monkeypatch):
    ends, plain = [], weights._moment_pass
    monkeypatch.setattr(weights, "_moment_pass",
                        lambda *args: ends.append(args[-1](np.array([-3.0, 3.0]))) or plain(*args))
    for name in sorted(PASS_SYSTEMS):
        ws = PASS_SYSTEMS[name]()
        c, s = ws.hull_coordinate()
        ends.clear()
        mk.moment_table(ws, 6)
        # one pass per weight, over t = (x - c)/s
        assert len(ends) == ws.p, name
        assert all(e.tobytes() == ((np.array([-3.0, 3.0]) - c) / s).tobytes() for e in ends), name
    mt = mk.moment_table(mk.build_angelesco([C(1.0, 2.0)]), 6)
    assert mt.scaled[0, 1] == 0.0  # t = 2x - 3 on [1, 2]


@pytest.mark.parametrize("name", sorted(PASS_SYSTEMS))
def test_raw_moments_are_integrated_when_first_read(name, monkeypatch):
    from helpers import ref_moment_table

    calls, plain = [], weights.moments
    monkeypatch.setattr(weights, "moments", lambda *args: calls.append(args[1]) or plain(*args))
    ws = PASS_SYSTEMS[name]()
    mt = mk.moment_table(ws, 9)
    assert calls == []
    raw = mt.raw
    assert calls == list(range(1, ws.p + 1)) and mt.raw is raw
    assert raw.tobytes() == ref_moment_table(ws, 9)[0].tobytes()
    assert raw.tobytes() == np.array([plain(ws, j, 9) for j in range(1, ws.p + 1)]).tobytes()


def test_type2_rhs_is_the_last_column_of_the_transposed_system():
    from helpers import _type2_system

    mt = mk.moment_table(mk.build_nikishin(C(1.0, 2.0), [C(-1.0, 0.0)]), 14)
    for parts in ((1, 0), (3, 2), (4, 4)):
        nvec = as_multi_index(parts)
        ref = _type2_system(mt.scaled, nvec)[1]
        got = _type2_rhs(mt.scaled, nvec)
        assert got.dtype == ref.dtype == np.float64 and got.tobytes() == ref.tobytes()
        rows = highprec.table_rows(mt, 40)[1]
        with mpmath.mp.workdps(35):  # each entry negated, and rounded, at the solve's dps
            ref, got = _type2_system(rows, nvec)[1], _type2_rhs(rows, nvec)
        assert got.dtype == ref.dtype == object
        assert [v._mpf_ for v in got] == [v._mpf_ for v in ref]


finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200)
@given(st.lists(finite, min_size=1, max_size=31), st.lists(st.floats(-3.0, 3.0), max_size=9))
def test_in_place_horner_matches_the_longdouble_expression(coeffs, xs):
    P = mk.Polynomial(coeffs)
    for x in (np.asarray(xs), np.asarray(xs[0] if xs else 0.5)):
        acc = np.zeros_like(x.astype(linalg.LD))
        for c in P._hi[::-1]:
            acc = acc * x.astype(linalg.LD) + c
        assert np.asarray(P(x)).tobytes() == acc.astype(float).tobytes()


@settings(max_examples=200)
@given(st.lists(finite, min_size=2, max_size=31), st.lists(st.floats(-3.0, 3.0), min_size=1,
                                                            max_size=9))
def test_root_screen_scale_matches_the_per_degree_loop(coeffs, xs):
    P, x = mk.Polynomial(coeffs), np.asarray(xs)
    scale = np.zeros_like(x)
    for i, c in enumerate(np.abs(P.coeffs)):
        scale += c * np.abs(x) ** i
    assert _coefficient_scale(P, x).tobytes() == scale.tobytes()


def test_powers_match_each_rows_own_expression():
    rng = np.random.default_rng(5)
    for y in (rng.uniform(-3.0, 3.0, 24), rng.uniform(0.5, 2.0, 12) * 50.0):
        for k_max in (0, 1, 2, 40):
            got = powers(y, k_max)
            assert got.tobytes() == np.array([y ** k for k in range(k_max + 1)]).tobytes()


def _rows(fns):
    return lambda x: np.array([fn(x) for fn in fns])


def test_row_quadrature_matches_scalar_calls():
    # the pole row bisects far deeper than its neighbours
    fns = [np.cos, lambda x: 1.0 / (x + 1e-4), lambda x: x ** 5, lambda x: np.exp(-3.0 * x)]
    rows = adaptive_quad(_rows(fns), 0.0, 1.0)
    for fn, got in zip(fns, rows.value):
        assert got.tobytes() == adaptive_quad(fn, 0.0, 1.0).tobytes()
    assert rows.panels[1] > 10 * max(rows.panels[[0, 2, 3]])


def test_complex_rows_keep_their_dtype_and_bits():
    fns = [lambda x: 1.0 / (0.5 + 2.0j - x), lambda x: 1.0 / (0.1 + 0.01j - x)]
    rows = adaptive_quad(_rows(fns), -1.0, 1.0)
    assert rows.value.dtype == np.complex128
    for fn, got in zip(fns, rows.value):
        assert got.tobytes() == adaptive_quad(fn, -1.0, 1.0).tobytes()


def test_the_lowest_failing_row_raises_its_own_error():
    fns = [np.cos, lambda x: 1.0 / (x + 1e-4), lambda x: 1.0 / (x + 1e-6), np.sin]
    with pytest.raises(QuadratureError) as err:
        adaptive_quad(_rows(fns), 0.0, 1.0, max_panels=6)
    assert err.value.row == 1
    with pytest.raises(QuadratureError) as alone:
        adaptive_quad(fns[1], 0.0, 1.0, max_panels=6)
    assert (str(err.value), err.value.estimate, err.value.error_estimate) == \
        (str(alone.value), alone.value.estimate, alone.value.error_estimate)
    assert alone.value.row is None


@pytest.mark.parametrize("name,nvec", [("jacobi_shifted", (3, 2)), ("markov_exp_poly", (2, 2)),
                                       ("exp_poly", (0, 3))])
def test_orthogonality_residuals_match_one_quadrature_per_order(name, nvec):
    from helpers import ref_orthogonality_residuals

    ws = PASS_SYSTEMS[name]()
    P = mk.type2_mop(mk.moment_table(ws, 2 * sum(nvec)), nvec)
    got, ref = mk.orthogonality_residuals(P, ws, nvec), ref_orthogonality_residuals(P, ws, nvec)
    assert [r.tobytes() for r in got] == [r.tobytes() for r in ref]


# -- an inf or nan entry: the numpy loops on the mpf objects ------------------

@pytest.mark.parametrize("bad", [mpmath.inf, -mpmath.inf, mpmath.nan])
@pytest.mark.parametrize("where", ["matrix", "rhs"])
def test_inf_or_nan_entry_matches_the_object_loop(bad, where):
    from helpers import ref_lu_factor, ref_lu_solve

    def outcome(fn, *args):
        try:
            return fn(*args)
        except (NumericError, ZeroDivisionError) as exc:
            return type(exc)

    def raw(out):
        return out if isinstance(out, type) else [getattr(v, "_mpf_", v) for v in
                                                  np.ravel(np.asarray(out[0], dtype=object))]

    with mpmath.mp.workdps(30):
        a = _mpf_matrix(np.random.default_rng(5), (5, 5))
        b = a[:, 0].copy()
        if where == "matrix":
            a[2, 1] = bad
        else:
            b[3] = bad
        got, ref = outcome(linalg.lu_factor, a), outcome(ref_lu_factor, a)
        assert where == "rhs" or raw(got) == raw(ref)  # a finite a takes the fixed-point LU
        if not isinstance(ref, type):
            got = outcome(linalg.lu_solve, ref[0], ref[1], b)
            ref = outcome(ref_lu_solve, ref[0], ref[1], b)
            assert raw((got,)) == raw((ref,))


@pytest.mark.parametrize("bad", [mpmath.inf, mpmath.nan])
def test_fixed_lu_solves_an_inf_or_nan_rhs_as_the_object_loop(bad):
    # on the LU in mpf: U's column j times 2^shift[j], L's multipliers 2^-bits
    from helpers import ref_lu_solve

    with mpmath.mp.workdps(30):
        a = _mpf_matrix(np.random.default_rng(5), (5, 5))
        b = a[:, 0].copy()
        b[3] = bad
        lu, piv, _ = linalg.lu_factor(a)
        assert isinstance(lu, linalg.FixedLU)
        as_mpf = np.array([[mpmath.ldexp(v, -lu.bits if i > j else lu.shift[j])
                            for j, v in enumerate(row)] for i, row in enumerate(lu.lu)])
        got = linalg.lu_solve(lu, piv, b)
        ref = ref_lu_solve(as_mpf, piv, b)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in ref]


# -- the float stopping estimate against quad's --------------------------------

@st.composite
def _level_differences(draw):
    """(dps, prec, d1, d2, r0): ints as a Clenshaw-Curtis pass at ``dps`` holds
    them, r0 = I_N ~ 10^R and d = r0 10^D for d1 = I_N - I_(N/2) and d2 =
    I_N - I_(N/4), with zero differences, 2 D1 near -prec and D1^2/D2 or
    2 D1 within 1e-12 of an integer among them."""
    dps = draw(st.sampled_from([15, 30, 48, 64, 100]))
    kind = draw(st.sampled_from(["free", "free", "deep", "equal", "zero", "ratio", "double"]))
    tiny = st.floats(-1e-12, 1e-12)
    with mpmath.mp.workdps(dps):
        prec = mpmath.mp.prec
    D2 = -draw(st.floats(0.25, 1.2 * dps))
    if kind == "deep":  # 2 D1 about -prec, where quad's floor decides
        D2, D1 = -draw(st.floats(0.25, prec / 4)), -draw(st.floats(0.4 * prec, 0.6 * prec))
    elif kind == "ratio":  # D1^2 / D2 = N + tiny
        N = draw(st.integers(-int(3.4 * dps) - 5, -1))
        D1 = -math.sqrt((N + draw(tiny)) * D2)
    elif kind == "double":  # 2 D1 = -m + tiny
        D1 = (-draw(st.integers(1, 6 * dps + 10)) + draw(tiny)) / 2
    else:
        D1 = -draw(st.floats(0.0, 2.4 * dps))
    R = draw(st.integers(4 * dps, 6 * dps))
    with mpmath.mp.workdps(R + 40):
        r0 = int(mpmath.mpf(draw(st.floats(1.0, 9.99))) * mpmath.mpf(10) ** R)
        d1, d2 = (draw(st.sampled_from([1, -1])) * int(r0 * mpmath.mpf(10) ** D)
                  for D in (D1, D2))
    if kind == "equal":
        d1 = d2 = 0
    elif kind == "zero":
        d1, d2 = draw(st.sampled_from([(0, d2), (d1, 0)]))
    return dps, prec, d1, d2, r0


@settings(max_examples=400, deadline=None)
@given(_level_differences(), st.sampled_from([TanhSinh, GaussLegendre]))
def test_float_stopping_estimate_matches_quads(args, rule):
    # 10^int(max(L, -prec)), L = _log_error(d1, d2, r0), is quad's estimate
    # on the results [-d2/r0, -d1/r0, 0]; where the decisive one of D1^2/D2
    # and 2 D1 lies within its float error of an integer, int may differ by 1
    dps, prec, d1, d2, r0 = args
    L = highprec._log_error(d1, d2, r0)
    with mpmath.mp.workdps(max(len(str(r0)), dps) + 40):
        results = [-mpmath.mpf(d2) / r0, -mpmath.mpf(d1) / r0, mpmath.mpf(0)]
        ref = rule(mpmath.mp).estimate_error(results, prec, mpmath.mp.eps)
        if not (d1 or d2):
            assert ref == 0 and L == -math.inf
            return
        j_ref, j = int(mpmath.nint(mpmath.log10(ref))), int(min(0, max(L, -prec)))
        assert ref == mpmath.mpf(10) ** j_ref
        if j == j_ref:
            return
        assert d1 and d2 and abs(j - j_ref) == 1
        D1, D2 = (mpmath.log10(abs(mpmath.mpf(d) / r0)) for d in (d1, d2))
        e1, e2 = (1e-15 * (math.log10(abs(d)) + math.log10(r0) + 1) for d in (d1, d2))
        r = D1 ** 2 / D2
        er = max((2 * abs(D1) * e1 + abs(r) * e2) / abs(D2) + 1e-15 * abs(r), 2 * e1)
        v = max(r, 2 * D1, -prec)
        assert abs(v - mpmath.nint(v)) <= er

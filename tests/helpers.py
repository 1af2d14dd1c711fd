"""Independent oracles used by the test suite.

Everything here recomputes target quantities by a route different from the
library code under test: determinant expansions instead of linear solves,
Gram-Schmidt instead of Hankel systems, tensor quadrature instead of
moment identities.
"""

import math

import numpy as np

from mopkit import linalg
from mopkit.ensemble import g_matrix
from mopkit.exceptions import NumericError
from mopkit.mop import as_multi_index, _hankel_from
from mopkit.quadrature import gauss_legendre
from mopkit.weights import weight_quad


def bordered_type2_coeffs(mt, nvec):
    """Expand the bordered-determinant formula for the type II polynomial.

    coeff_k = (-1)^(k+n) det(M_{n+1,n} with row k+1 removed) / D, straight
    from cofactor expansion along the appended monomial column.
    """
    nvec = as_multi_index(nvec)
    n = nvec.n
    wide = _hankel_from(mt.raw, nvec, n + 1)  # (n+1) x n
    square = _hankel_from(mt.raw, nvec, n)
    d = linalg.det(square)
    coeffs = np.empty(n + 1)
    for k in range(n + 1):
        minor = np.delete(wide, k, axis=0)
        coeffs[k] = (-1) ** (k + n) * linalg.det(minor) / d
    return coeffs


def ref_moment_table(ws, k_max, tol=1e-12):
    """(raw, scaled) moments by one ``weight_quad`` per weight and order:
    the loop that the one-pass moment table replaced."""
    c, s = ws.hull_coordinate()
    raw = [[weight_quad(lambda x, k=k: x ** k, w, tol=tol) for k in range(k_max + 1)]
           for w in ws.weights]
    scaled = [[weight_quad(lambda x, k=k: ((x - c) / s) ** k, w, tol=tol)
               for k in range(k_max + 1)] for w in ws.weights]
    return np.array(raw), np.array(scaled)


def ref_orthogonality_residuals(P, ws, nvec, tol=1e-12):
    """integral P(x) x^k w_j dx, k < n_j, by one ``weight_quad`` per weight and k."""
    return [np.array([weight_quad(lambda x, k=k: P(x) * x ** k, w, tol=tol) for k in range(nj)])
            for w, nj in zip(ws.weights, as_multi_index(nvec).parts)]


def gram_schmidt_monic(ws, n, tol=1e-13):
    """Monic orthogonal polynomials for a single weight by Gram-Schmidt.

    Returns a list of ascending-coefficient arrays p_0 .. p_n.
    """
    assert ws.p == 1
    w = ws.weights[0]

    def inner(c1, c2):
        def f(x):
            return (np.polynomial.polynomial.polyval(x, c1)
                    * np.polynomial.polynomial.polyval(x, c2))
        return weight_quad(f, w, tol=tol)

    polys = []
    for k in range(n + 1):
        c = np.zeros(k + 1)
        c[k] = 1.0
        for p in polys:
            proj = inner(c, p) / inner(p, p)
            c[: len(p)] -= proj * p
        polys.append(c)
    return polys


def tensor_cauchy_binet(ws, nvec, nodes=48):
    """(1/n!) tensor-quadrature of det[f_j(x_k)] det[g_j(x_k)] over supports.

    Every coordinate ranges over the union of supports (per-interval
    Gauss-Legendre nodes concatenated).
    """
    nvec = as_multi_index(nvec)
    n = nvec.n
    glx, glw = gauss_legendre(nodes)
    xs = []
    wq = []
    for lo, hi in ws.support_segments():
        h = 0.5 * (hi - lo)
        xs.append(0.5 * (lo + hi) + h * glx)
        wq.append(h * glw)
    xs = np.concatenate(xs)
    wq = np.concatenate(wq)
    m = xs.size

    grids = np.meshgrid(*([np.arange(m)] * n), indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)  # (m^n, n)
    pts = xs[idx]
    weights_nd = np.prod(wq[idx], axis=1)

    # det f is a Vandermonde determinant
    detf = np.ones(pts.shape[0])
    for a in range(n):
        for b in range(a + 1, n):
            detf *= pts[:, b] - pts[:, a]
    # det g batched
    gm = g_matrix(ws, nvec, pts.ravel())
    G = gm.reshape(n, pts.shape[0], n).transpose(1, 0, 2)
    detg = np.linalg.det(G)

    total = float(np.sum(weights_nd * detf * detg))
    return total / math.factorial(n)


def cached(store, key, builder):
    """Session-store memoization so acceptance tests pay build costs inside
    their own timed bodies and later tests reuse the results."""
    if key not in store:
        store[key] = builder()
    return store[key]


def build_batch(ws, nvec, seed):
    from mopkit.sampling import SamplerConfig, sample_mcmc

    cfg = SamplerConfig(samples=100_000, chains=128, burn_in=10_000,
                        thinning=10, seed=seed)
    return sample_mcmc(ws, nvec, cfg)


def arcsine_problem(grid=2000):
    import mopkit as mk
    from mopkit.equilibrium import EquilibriumProblem

    return EquilibriumProblem.angelesco([mk.Interval(-1.0, 1.0)], [1.0], grid=grid)


def symmetric_angelesco_problem(grid=800):
    import mopkit as mk
    from mopkit.equilibrium import EquilibriumProblem

    return EquilibriumProblem.angelesco(
        [mk.Interval(-1.0, 0.0), mk.Interval(0.0, 1.0)], [0.5, 0.5], grid=grid)


def arcsine_cdf(x):
    return 0.5 + np.arcsin(np.clip(x, -1.0, 1.0)) / np.pi


def cell_boundary_cdf_error(measure, cdf_fn):
    """sup |discrete CDF - continuous CDF| evaluated at cell boundaries.

    Masses on midpoint grids represent cells; at a cell's right boundary the
    discrete CDF is exactly the accumulated mass, which is the natural point
    of comparison with a continuous CDF.
    """
    h = measure.spacing
    bounds = measure.grid + 0.5 * h
    discrete = np.cumsum(measure.masses)
    return float(np.abs(discrete - cdf_fn(bounds)).max())


# ---------------------------------------------------------------------------
# Reference elimination: numpy loops on object arrays, one mpf operation per
# entry.  ``mopkit.linalg`` factors mpf input in fixed point instead; run at
# 2 prec + 40 bits, these loops are the reference that its det and solves
# must lie within ``LU_ACCURACY`` n cond1 2^-prec of (``assert_lu_accuracy``).
# ---------------------------------------------------------------------------

def ref_lu_factor(a):
    """Compact LU with partial pivoting (first maximal |entry|): (lu, piv, parity)."""
    lu = np.array(a, dtype=object, copy=True)
    n = lu.shape[0]
    piv, parity = np.arange(n), 1
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            piv[[k, p]] = piv[[p, k]]
            parity = -parity
        pivot = lu[k, k]
        if pivot == 0:
            continue
        lu[k + 1 :, k] /= pivot
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, piv, parity


def ref_lu_solve(lu, piv, b):
    n = lu.shape[0]
    x = np.array(b, dtype=object, copy=True)
    one_d = x.ndim == 1
    if one_d:
        x = x[:, None]
    x = x[piv]
    for k in range(n):
        x[k + 1 :] -= np.outer(lu[k + 1 :, k], x[k])
    for k in range(n - 1, -1, -1):
        if lu[k, k] == 0:
            raise NumericError("singular matrix in lu_solve")
        x[k] /= lu[k, k]
        x[:k] -= np.outer(lu[:k, k], x[k])
    return x[:, 0] if one_d else x


def ref_identity(lu):
    one = lu[0, 0] ** 0
    return np.where(np.eye(lu.shape[0], dtype=bool), one, one - one)


def ref_det(a):
    lu, _, parity = ref_lu_factor(a)
    return parity * np.prod(np.diagonal(lu))


#: the stated accuracy of ``linalg`` on mpf input at ``prec`` bits: every
#: solution column within LU_ACCURACY n cond 2^-prec of its largest entry,
#: det within as much of |det|
LU_ACCURACY = 2


def ref_cond1(a):
    """|A|_1 |A^-1|_1 of the object array ``a`` by the reference loops; inf
    when ``a`` is singular."""
    lu, piv, _ = ref_lu_factor(a)
    try:
        inv = ref_lu_solve(lu, piv, ref_identity(lu))
    except NumericError:
        return math.inf
    return np.abs(a).sum(axis=0).max() * np.abs(inv).sum(axis=0).max()


def assert_lu_accuracy(a, bs):
    """``linalg``'s det of the mpf matrix ``a`` and its solves of A x = b and
    A^T x = b, for each b of ``bs`` (a vector or a matrix of columns), at the
    current precision, against the reference loops at 2 prec + 40 bits: each
    within ``LU_ACCURACY`` n cond 2^-prec, cond the larger of cond1(A) and
    cond1(A^T).  A singular ``a`` gives det 0 and raises ``NumericError``
    in every solve, as the reference does."""
    from mpmath import mp

    prec, n = mp.prec, len(a)
    lu, piv, parity = linalg.lu_factor(a)
    det = linalg.lu_det(lu, parity)
    got = []
    for b in bs:
        for transpose in (False, True):
            try:
                got.append(linalg.lu_solve(lu, piv, b, transpose))
            except NumericError:
                got.append(NumericError)
    with mp.workprec(2 * prec + 40):
        a = np.vectorize(mp.mpf, otypes=[object])(a)  # ints too: int / int is a float
        bs = [np.vectorize(mp.mpf, otypes=[object])(b) for b in bs]
        cond = max(ref_cond1(a), ref_cond1(a.T))
        if math.isinf(cond):
            assert det == 0 and got == [NumericError] * len(got)
            return
        tol = LU_ACCURACY * n * cond * mp.mpf(2) ** -prec
        assert abs(det - ref_det(a)) <= tol * abs(ref_det(a))
        refs = [ref_lu_solve(*ref_lu_factor(m)[:2], b) for b in bs for m in (a, a.T)]
        for x, ref in zip(got, refs):
            if x is NumericError:  # an exact zero pivot: singular at prec bits
                assert tol >= 1
                continue
            for col, ref_col in zip(np.reshape(x, (n, -1)).T, np.reshape(ref, (n, -1)).T):
                assert np.max(np.abs(col - ref_col)) <= tol * np.max(np.abs(ref_col))

"""Determinantal ensembles attached to a weight system.

The joint density is proportional to det[f_j(x_k)] det[g_j(x_k)] with
f_j = x^(j-1) and g-basis rows x^(i-1) w_j(x).  Each of its three forms
(the generic determinant product, the Angelesco block factorization and
the extended Nikishin (X, Y) density) is implemented once, as a batched log
density of ``_Target``; the public density functions evaluate it at one
configuration and the sampler in ``sampling`` walks it.  The module also
checks the constant-sign condition numerically, and builds the
biorthogonalized correlation kernel together with Monte Carlo estimators of
the expectation identities for the type I and type II polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import (
    DomainError,
    NonNormalIndexError,
    NumericError,
    PrecisionExhausted,
    ValidationError,
)
from .mop import HankelBlockMatrix, MultiIndex, TypeISystem, as_multi_index
from .quadrature import fixed_segment_nodes, gauss_legendre, quad_with_substitution
from .weights import WeightSystem


# ---------------------------------------------------------------------------
# Basis functions and Vandermonde products
# ---------------------------------------------------------------------------

def basis_f(j: int, x):
    """f_j(x) = x^(j-1), 1-based."""
    if j < 1:
        raise ValidationError("f-basis index is 1-based")
    return np.asarray(x, dtype=float) ** (j - 1)


def basis_g(ws: WeightSystem, nvec, k: int, x):
    """g-basis function number k (1-based): x^(i-1) w_j(x)."""
    nvec = as_multi_index(nvec)
    power, widx = nvec.g_index(k)
    return np.asarray(x, dtype=float) ** power * ws.weights[widx].values(x)


def f_matrix(n: int, xs, dtype=float):
    """Rows f_1..f_n evaluated at the points xs: shape (n, len(xs)); with
    ``dtype=object``, xs are mpf and every entry keeps that type."""
    xs = np.asarray(xs, dtype=dtype)
    out = np.empty((n, xs.size), dtype=dtype)
    out[0] = xs ** 0 if dtype is object else 1.0  # ones in the entry type
    for j in range(1, n):
        out[j] = out[j - 1] * xs
    return out


def g_matrix(ws: WeightSystem, nvec, xs, dtype=float):
    """Rows g_1..g_n evaluated at the points xs: shape (n, len(xs)); with
    ``dtype=object``, xs are mpf and the weights use their mpf evaluators."""
    nvec = as_multi_index(nvec)
    xs = np.asarray(xs, dtype=dtype)
    out = np.empty((nvec.n, xs.size), dtype=dtype)
    row = 0
    for j, nj in enumerate(nvec.parts):
        if nj == 0:
            continue
        w = ws.weights[j]
        if dtype is object:  # mpf values, zeros and ones
            fn = w.mp_evaluator()
            wvals = np.array([fn(x) if w.support.a <= x <= w.support.b else x * 0
                              for x in xs], dtype=object)
            mono = xs ** 0
        else:
            wvals = w.values(np.asarray(xs, dtype=float)).astype(dtype)
            mono = np.ones_like(xs)
        for _ in range(nj):
            out[row] = mono * wvals
            mono = mono * xs
            row += 1
    return out


def vandermonde(X) -> float:
    """Delta(X) = product over j < k of (x_k - x_j); empty product is 1."""
    return _vandermonde_product(np.asarray(X, dtype=float))


def _vandermonde_product(X):
    prod = 1.0
    for k in range(1, X.size):
        prod *= float(np.prod(X[k] - X[:k]))
    return prod


def delta_cross(X, Y) -> float:
    """Delta(X, Y) = product over k, j of (x_k - y_j); empty product is 1."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.size == 0 or Y.size == 0:
        return 1.0
    return float(np.prod(X[:, None] - Y[None, :]))


# ---------------------------------------------------------------------------
# Determinants and densities
# ---------------------------------------------------------------------------

def g_stack(ws: WeightSystem, nvec, Xs, center=0.0, half_width=1.0):
    """Stacked matrices [g_j(x_k)] for configurations Xs (T, n): shape
    (T, n, n), g-basis rows by point columns.

    The monomial rows are taken in hull-rescaled form ((x - c)/s)^i, which
    multiplies each determinant by a positive constant, so signs are kept
    while the scale stays sane on shifted intervals; the defaults leave
    them as x^i.
    """
    nvec = as_multi_index(nvec)
    T, n = Xs.shape
    G = np.empty((T, n, n))
    Ts = (Xs - center) / half_width
    row = 0
    for j, nj in enumerate(nvec.parts):
        if nj == 0:
            continue
        wv = ws.weights[j].values(Xs.ravel()).reshape(T, n)
        mono = np.ones_like(Xs)
        for _ in range(nj):
            G[:, row, :] = mono * wv
            mono = mono * Ts
            row += 1
    return G


def g_determinant(ws: WeightSystem, nvec, X) -> float:
    """det[g_j(x_k)]; exactly zero when two points coincide."""
    nvec = as_multi_index(nvec)
    X = np.asarray(X, dtype=float)
    if X.size != nvec.n:
        raise ValidationError(f"need {nvec.n} points, got {X.size}")
    if np.unique(X).size < X.size:
        return 0.0
    return float(np.linalg.det(g_stack(ws, nvec, X[None])[0].T))


def _log_det_form(ws, nvec, Xs):
    """log |det f * det g| for a stack of configurations (C, n): det f as the
    Vandermonde product, det g by batched slogdet in the (point, basis)
    orientation of ``g_determinant``; -inf where either vanishes."""
    lf = 0.0
    with np.errstate(divide="ignore"):
        for s in range(1, Xs.shape[1]):  # the pairs s apart
            lf = lf + np.log(np.abs(Xs[:, s:] - Xs[:, :-s])).sum(axis=1)
    sg, lg = np.linalg.slogdet(np.swapaxes(g_stack(ws, nvec, Xs), 1, 2))
    return np.where(sg == 0, -np.inf, lg + lf)


class _Target:
    """One density form as a batched log density: coordinate layout plus
    incremental log-density pieces.  Terms are log-absolute values, which
    survive the hundreds of orders of magnitude of squared Vandermonde
    factors; a move tests a constant weight's support instead of evaluating
    it (0 inside, -inf outside) and sums the Vandermonde change in one
    matvec with the coupling row."""

    def __init__(self, ws: WeightSystem, nvec):
        nvec = as_multi_index(nvec)
        self.ws = ws
        self.nvec = nvec
        self.n = nvec.n
        if ws.kind == "nikishin" and ws.p == 2:
            self.kind = "nikishin"
            n1, n2 = nvec.parts
            if n1 < n2 - 1:
                raise ValidationError("extended Nikishin sampling needs n_1 >= n_2 - 1")
            self.n_ext = n2
            self.ncoord = self.n + n2
            self.intervals = [ws.intervals[0]] * self.n + [ws.intervals[1]] * n2
            self.coord_weight = [ws.weights[0]] * self.n + [ws.generators[0]] * n2
            part = np.asarray([0] * self.n + [1] * n2)
            self.mult = np.where(part[:, None] == part[None, :], 2.0, -1.0)
        elif ws.kind == "angelesco" or ws.p == 1:
            self.kind = "factored"
            self.n_ext = 0
            self.ncoord = self.n
            block = np.repeat(np.arange(len(nvec.parts)), nvec.parts)
            self.intervals = [ws.intervals[j] for j in block]
            self.coord_weight = [ws.weights[j] for j in block]
            self.mult = np.where(block[:, None] == block[None, :], 2.0, 1.0)
        else:
            self.kind = "general"
            self.n_ext = 0
            self.ncoord = self.n
            hull = ws.support_hull()
            self.intervals = [hull] * self.n
            self.coord_weight = [None] * self.n
            self.mult = None
        if self.mult is not None:
            np.fill_diagonal(self.mult, 0.0)

    # -- full log density (init checks and the general path) ---------------

    def log_density(self, state):
        """log of the unnormalized density for a stack of states (C, ncoord)."""
        if self.kind == "general":
            return _log_det_form(self.ws, self.nvec, state)
        logp = np.zeros(state.shape[0])
        for i in range(self.ncoord):
            w = self.coord_weight[i]
            logp += w.log_values(state[:, i])
            for k in range(i + 1, self.ncoord):
                d = np.abs(state[:, i] - state[:, k])
                with np.errstate(divide="ignore"):
                    logp += self.mult[i, k] * np.log(d)
        return logp

    def move(self, state, idx, prop):
        """Change in log density when coordinate idx moves to prop (per chain).
        -inf rejects, and so does NaN (out of support plus coincidence across
        the Nikishin gap): u < NaN is false."""
        w = self.coord_weight[idx]
        if w.ratio is None and w.spec.family == "constant":
            iv = w.support
            dlog = np.where((iv.a <= prop) & (prop <= iv.b), 0.0, -np.inf)
        else:
            dlog = w.log_values(prop) - w.log_values(state[:, idx])
        dv = np.log(np.abs(prop[:, None] - state)) - np.log(np.abs(state[:, idx, None] - state))
        dv[:, idx] = 0.0
        return dlog + dv @ self.mult[idx]


@dataclass(frozen=True)
class SignReport:
    """Outcome of the numerical constant-sign check."""

    sign: int
    violations: int
    nonzero: int
    trials: int


def sign_constancy_check(ws: WeightSystem, nvec, trials: int, seed: int = 0) -> SignReport:
    """Sample ordered tuples from the union of supports and check det[g] sign.

    Determinants are evaluated in hull-rescaled coordinates (sign
    preserving); samples that land within float64 roundoff of zero are
    re-evaluated in 80-bit arithmetic, and only those at the extended
    roundoff floor are counted as zero.
    """
    nvec = as_multi_index(nvec)
    if trials < 1:
        raise ValidationError("need at least one trial")
    rng = np.random.Generator(np.random.PCG64(seed))
    segs = ws.support_segments()
    lengths = np.asarray([hi - lo for lo, hi in segs])
    probs = lengths / lengths.sum()
    n = nvec.n
    pick = rng.choice(len(segs), size=(trials, n), p=probs)
    u = rng.random((trials, n))
    los = np.asarray([s[0] for s in segs])
    Xs = np.sort(los[pick] + u * lengths[pick], axis=1)
    hull = ws.support_hull()
    G = g_stack(ws, nvec, Xs, hull.mid, 0.5 * hull.length)
    dets = np.linalg.det(G)
    scale = np.prod(np.linalg.norm(G, axis=2), axis=1)
    ambiguous = np.abs(dets) <= 1e-13 * scale
    for idx in np.nonzero(ambiguous)[0]:
        lu, _, parity = linalg.lu_factor(G[idx])
        dets[idx] = linalg.lu_det(lu, parity)
    zero_floor = 64.0 * float(np.finfo(linalg.LD).eps) * n
    nonzero = np.abs(dets) > np.where(ambiguous, zero_floor * scale, 1e-13 * scale)
    signs = np.sign(dets[nonzero])
    if signs.size == 0:
        return SignReport(0, 0, 0, trials)
    plus = int(np.sum(signs > 0))
    minus = signs.size - plus
    majority = 1 if plus >= minus else -1
    return SignReport(majority, min(plus, minus), int(signs.size), trials)


def joint_density(ws: WeightSystem, nvec, X, normalization: float | None = None) -> float:
    """|det f * det g| at X, divided by |Z| when the constant is supplied.

    ``normalization`` is the partition function Z_n = D_n n!; passing None
    gives the unnormalized value used by the samplers.
    """
    nvec = as_multi_index(nvec)
    X = np.asarray(X, dtype=float)
    if X.size != nvec.n:
        raise ValidationError(f"need {nvec.n} points, got {X.size}")
    value = float(np.exp(_log_det_form(ws, nvec, X[None])[0]))
    if normalization is None:
        return value
    if normalization == 0.0:
        raise NonNormalIndexError("zero partition function: index not normal")
    return value / abs(normalization)


def angelesco_density(ws: WeightSystem, nvec, X) -> float:
    """Block-factored Angelesco density (unnormalized).

    Zero unless exactly n_j points lie in Gamma_j: the sorted points fill
    the blocks in interval order.  Equals ``joint_density(ws, nvec, X)``
    pointwise: within a block the squared Vandermonde, across blocks the
    cross differences, which is the exact factorization of the determinant
    product.
    """
    nvec = as_multi_index(nvec)
    if ws.kind != "angelesco":
        raise ValidationError("angelesco_density needs an Angelesco system")
    X = np.sort(np.asarray(X, dtype=float))
    if X.size != nvec.n:
        return 0.0
    return float(np.exp(_Target(ws, nvec).log_density(X[None])[0]))


def nikishin_extended_density(ws: WeightSystem, nvec, X, Y) -> float:
    """Unnormalized extended Nikishin density on Gamma_1^n x Gamma_2^(n_2).

    w_1 charges the X block, the generator v the Y block; the interaction is
    Delta(X)^2 Delta(Y)^2 / |Delta(X, Y)|.  The factored form requires
    n_1 >= n_2 - 1; the mirrored interval order is handled by reflection
    (equivalently, by the absolute value of the cross term).
    """
    nvec = as_multi_index(nvec)
    if ws.kind != "nikishin" or ws.p != 2:
        raise ValidationError("extended density is implemented for Nikishin p=2")
    n1, n2 = nvec.parts
    if n1 < n2 - 1:
        raise DomainError(f"extended form needs n_1 >= n_2 - 1, got {nvec.parts}")
    g1, g2 = ws.intervals[0], ws.intervals[1]
    if g1.gap_to(g2) <= 0.0:
        raise DomainError("Nikishin intervals must be separated")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.size != nvec.n or Y.size != n2:
        raise ValidationError(f"need {nvec.n} x-points and {n2} y-points")
    if np.any(~((X >= g1.a) & (X <= g1.b))) or (Y.size and np.any(~((Y >= g2.a) & (Y <= g2.b)))):
        return 0.0
    return float(np.exp(_Target(ws, nvec).log_density(np.concatenate([X, Y])[None])[0]))


def cauchy_vandermonde_det(X, Y, n1: int) -> float:
    """Determinant with rows x^0..x^(n1-1) and 1/(x_k - y_j).

    Up to a row-order sign, its absolute value is
    Delta(X) |Delta(Y)| / |Delta(X, Y)|.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.size
    if n1 + Y.size != n or n1 < 0:
        raise ValidationError("need n_1 + |Y| = |X|")
    if Y.size and np.min(np.abs(X[:, None] - Y[None, :])) == 0.0:
        raise NumericError("coincident x and y make the matrix singular")
    m = np.empty((n, n), dtype=linalg.LD)
    mono = np.ones(n, dtype=linalg.LD)
    xl = X.astype(linalg.LD)
    for r in range(n1):
        m[r] = mono
        mono = mono * xl
    for j in range(Y.size):
        m[n1 + j] = 1.0 / (xl - linalg.LD(Y[j]))
    return float(linalg.det(m))


# ---------------------------------------------------------------------------
# Nikishin marginalization oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarginalizationReport:
    max_rel_deviation: float
    n_configurations: int
    sign: int  # empirical sign of (integrated extended) / (det f * det g)


def marginalization_check(ws: WeightSystem, nvec, *, n_configs: int = 25,
                          nodes: int = 80, seed: int = 0) -> MarginalizationReport:
    """Compare the y-integrated extended density with det f * det g.

    Tensor Gauss-Legendre quadrature over Gamma_2^(n_2); feasible for
    n_2 <= 3 and small n.  The comparison is on absolute values: the
    Vandermonde-Cauchy reduction behind the identity carries a row-order
    sign, observed to be (-1)^(n_1 n_2 + n_2 (n_2 - 1) / 2), which is
    recorded in the report.  Returns the maximum relative deviation over a
    seeded sample of valid X configurations.
    """
    nvec = as_multi_index(nvec)
    if ws.kind != "nikishin" or ws.p != 2:
        raise ValidationError("marginalization check needs Nikishin p=2")
    n1, n2 = nvec.parts
    n = nvec.n
    if n2 > 3 or n > 6:
        raise ValidationError("tensor quadrature guard: need n_2 <= 3 and n <= 6")
    g1, g2 = ws.intervals[0], ws.intervals[1]
    v = ws.generators[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    glx, glw = gauss_legendre(nodes)
    ynodes = g2.mid + 0.5 * g2.length * glx
    yweights = 0.5 * g2.length * glw * v.values(ynodes)

    max_rel = 0.0
    signs = set()
    for _ in range(n_configs):
        X = np.sort(g1.a + g1.length * rng.random(n))
        detf = _vandermonde_product(X)
        detg = g_determinant(ws, nvec, X)
        rhs = detf * detg
        if n2 == 0:
            lhs = nikishin_extended_density(ws, nvec, X, np.empty(0))
        else:
            grids = np.meshgrid(*([ynodes] * n2), indexing="ij")
            wgrids = np.meshgrid(*([yweights] * n2), indexing="ij")
            ys = np.stack([g.ravel() for g in grids], axis=1)  # (m, n2)
            wprod = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
            # Delta(Y)^2 / Delta(X, Y) on the tensor grid
            dy2 = np.ones(ys.shape[0])
            for a in range(n2):
                for b in range(a + 1, n2):
                    dy2 *= (ys[:, b] - ys[:, a]) ** 2
            cross = np.ones(ys.shape[0])
            for k in range(n):
                for a in range(n2):
                    cross *= X[k] - ys[:, a]
            integrand = wprod * dy2 / cross
            lhs = float(np.prod(ws.weights[0].values(X))) * _vandermonde_product(X) ** 2 \
                * float(np.sum(integrand)) / math.factorial(n2)
        rel = abs(abs(lhs) - abs(rhs)) / max(abs(rhs), 1e-300)
        max_rel = max(max_rel, rel)
        if rhs != 0.0 and lhs != 0.0:
            signs.add(1 if lhs * rhs > 0 else -1)
    if len(signs) > 1:
        raise NumericError("marginalization sign is not constant over configurations")
    return MarginalizationReport(max_rel, n_configs, signs.pop() if signs else 0)


# ---------------------------------------------------------------------------
# Correlation kernel
# ---------------------------------------------------------------------------

#: raw-matrix condition beyond which kernels switch to mpmath arithmetic;
#: the biorthogonal coefficient pairs blow up with the conditioning, so the
#: 80-bit path loses the 1e-10 path-agreement tolerance past this point
KERNEL_CONDITION_CUTOFF = 1e7
#: largest accepted max |phi M psi^T - I| of a biorthogonal pair
GRAM_TOL = 1e-9


@dataclass
class Kernel:
    """Biorthogonalized kernel K(x, y) = sum_j phi_j(x) psi_j(y).

    ``matrix`` is the moment matrix M in the entry type of the kernel's
    rung: longdouble, or mpf on the mpmath rung, where ``mp`` is the
    ``highprec.MPForm`` that evaluates K at ``mp.dps`` digits.  ``phi``
    holds coefficients over the f-basis (pure polynomials) and ``psi`` over
    the g-basis (polynomial times weight), in the same entry type; the Gram
    matrix phi M psi^T of the pair is the identity up to ``gram_defect``.
    """

    ws: WeightSystem
    nvec: MultiIndex
    matrix: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    gram_defect: float
    mp: object = None

    @property
    def n(self):
        return self.nvec.n


def biorthogonalize(M: HankelBlockMatrix, ws: WeightSystem, nvec) -> Kernel:
    """Split M = (f-side factor) (g-side factor) via LU and invert each side.

    phi coefficients come from the inverse of the permuted-L factor, psi
    from the inverse transpose of U, so the Gram matrix phi M psi^T is the
    identity.  Past condition ~1e7 the pair is computed on the checked
    mpmath ladder of ``highprec.escalate``, each attempt reporting its own
    mpmath condition number, since the float64 one saturates far below the
    true one; the Gram check applies on both rungs, after the ladder's own.
    """
    nvec = as_multi_index(nvec)
    cond = linalg.cond1(M.matrix)
    form = None
    try:
        if np.isfinite(cond) and cond > KERNEL_CONDITION_CUTOFF:
            from . import highprec

            dps, (matrix, phi, psi, defect) = highprec.escalate(
                lambda d: highprec.kernel_attempt(ws, nvec, d), cond)
            form = highprec.MPForm(ws, nvec.parts, phi, psi, dps, nvec.n + 1)
        else:
            matrix = M.matrix.astype(linalg.LD)
            phi, psi, defect = linalg.biorthogonal_pair(matrix)
    except PrecisionExhausted:
        raise
    except NumericError as exc:
        raise NonNormalIndexError(f"singular moment matrix: {exc}") from exc
    if defect > GRAM_TOL:
        raise NumericError(f"biorthogonalization defect {defect:.2e} exceeds {GRAM_TOL:g}")
    return Kernel(ws, nvec, matrix, phi, psi, defect, mp=form)


def kernel_eval(K: Kernel, x, y):
    """K(x, y) by the biorthogonal sum, with x and y broadcast together; a
    float when both are scalars."""
    try:
        xs, ys = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    except ValueError as exc:
        raise ValidationError(f"kernel points do not broadcast: {exc}") from exc
    if K.mp is not None:
        vals = K.mp.eval(xs.ravel(), ys.ravel())
    else:
        F = f_matrix(K.n, xs.ravel(), dtype=linalg.LD)
        G = g_matrix(K.ws, K.nvec, ys.ravel(), dtype=linalg.LD)
        vals = np.einsum("jm,jm->m", K.phi @ F, K.psi @ G).astype(float)
    return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)


def kernel_eval_bordered(K: Kernel, x, y) -> float:
    """K(x, y) as the bordered determinant -det[[M, f(x)], [g(y), 0]] / det M,
    in the entry type and precision of K's rung."""
    from . import highprec

    n, rung_mp = K.n, K.mp is not None
    dtype, point = (object, highprec._mpf) if rung_mp else (linalg.LD, np.asarray)
    with highprec.mp.workdps(K.mp.dps if rung_mp else highprec.mp.dps):
        big = np.zeros((n + 1, n + 1), dtype=dtype)
        big[:n, :n] = K.matrix
        big[:n, n] = f_matrix(n, point([x]), dtype=dtype)[:, 0]
        big[n, :n] = g_matrix(K.ws, K.nvec, point([y]), dtype=dtype)[:, 0]
        detm = linalg.det(K.matrix)
        if detm == 0:
            raise NonNormalIndexError("zero determinant in bordered kernel")
        return float(-linalg.det(big) / detm)


def mean_density(K: Kernel, x):
    """K(x, x) / n: the one-point density normalized to unit total mass."""
    return kernel_eval(K, x, x) / K.n


def kernel_trace(K: Kernel, *, tol=1e-10) -> float:
    """integral K(x, x) dx over the union of supports (equals n)."""
    total = 0.0
    for lo, hi in K.ws.support_segments():
        total += quad_with_substitution(lambda t: kernel_eval(K, t, t), lo, hi,
                                        K.ws.segment_exponents(lo, hi), tol=tol)
    return total


# ---------------------------------------------------------------------------
# Monte Carlo estimators of the expectation identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with an autocorrelation-aware standard error."""

    value: complex
    stderr: float
    n: int
    ess: float


def _estimate(values, ess):
    n = values.shape[0]
    mean = values.mean()
    if np.iscomplexobj(values):
        var = values.real.var(ddof=1) + values.imag.var(ddof=1)
    else:
        var = values.var(ddof=1)
        mean = float(mean)
    stderr = math.sqrt(var / max(ess, 1.0))
    return MCEstimate(mean, stderr, n, ess)


def mc_char_poly(batch, z) -> MCEstimate:
    """Monte Carlo estimate of E[prod_k (z - x_k)]."""
    X = batch.configurations
    if X.shape[0] == 0:
        raise ValidationError("empty sample batch")
    vals = np.prod(z - X, axis=1)
    return _estimate(vals, batch.ess)


def mc_inverse_char_poly(batch, z) -> MCEstimate:
    """Monte Carlo estimate of E[prod_k (z - x_k)^(-1)].

    Requires z off the real axis or real and outside every support, so the
    product is almost surely bounded away from zero.
    """
    X = batch.configurations
    if X.shape[0] == 0:
        raise ValidationError("empty sample batch")
    zc = complex(z)
    if zc.imag == 0.0:
        lo, hi = X.min(), X.max()
        if lo <= zc.real <= hi:
            raise DomainError("real z must lie outside the sampled supports")
    vals = 1.0 / np.prod(z - X, axis=1)
    return _estimate(vals, batch.ess)


def cauchy_transform_type1(ts: TypeISystem, z, *, levels=12, order=32):
    """integral Q(x) / (z - x) dx: the deterministic target of the inverse
    characteristic polynomial estimator.

    The linear form is evaluated as a whole (its A_j w_j terms cancel
    across j for ill-conditioned systems) on fixed graded panels; z must
    keep some distance from the supports for the fixed rule to resolve the
    pole.
    """
    ws = ts.system
    total = 0.0 + 0.0j if isinstance(z, complex) else 0.0
    for lo, hi in ws.support_segments():
        xs, wq = fixed_segment_nodes(lo, hi, ws.segment_exponents(lo, hi),
                                     levels=levels, order=order)
        qv = ts.q_values(xs)
        total = total + np.sum(wq * qv / (z - xs))
    return total

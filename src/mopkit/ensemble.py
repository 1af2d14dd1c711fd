"""Determinantal ensembles attached to a weight system.

The joint density is proportional to det[f_j(x_k)] det[g_j(x_k)] with
f_j = x^(j-1) and g-basis rows x^(i-1) w_j(x).  Each of its three forms
(the generic determinant product, the Angelesco block factorization and
the extended Nikishin (X, Y) density) is implemented once, as a batched log
density of ``_Target``; the public density functions evaluate it at one
configuration and the sampler in ``sampling`` walks it.  The module also
checks the constant-sign condition numerically, and builds the
biorthogonalized correlation kernel together with Monte Carlo estimators of
the expectation identities for the type I and type II polynomials.  All of
them take their g-matrices from ``g_matrix``.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import DomainError, NonNormalIndexError, NumericError, ValidationError
from .mop import HankelBlockMatrix, MultiIndex, TypeISystem, _hankel_from, _solve, as_multi_index
from .quadrature import fixed_segment_nodes, gauss_legendre, quad_with_substitution, sorted_unique
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


def f_matrix(n: int, xs, dtype=float, center=0.0, half_width=1.0):
    """Rows f_1..f_n evaluated at the points xs: shape (n, len(xs)); with
    ``dtype=object``, xs are mpf and every entry keeps that type.
    ``center`` and ``half_width`` give the rows ((x - c)/s)^(j-1), as in
    ``g_matrix``."""
    xs = np.asarray(xs, dtype=dtype)
    ts = xs if (center, half_width) == (0.0, 1.0) else (xs - center) / half_width
    out = np.empty((n, xs.size), dtype=dtype)
    out[0] = xs ** 0 if dtype is object else 1.0  # ones in the entry type
    for j in range(1, n):
        out[j] = out[j - 1] * ts
    return out


def g_matrix(ws: WeightSystem, nvec, xs, dtype=float, center=0.0, half_width=1.0):
    """Rows g_1..g_n evaluated at the points xs: shape (n, len(xs)); with
    ``dtype=object``, xs are mpf and the weights use their mpf evaluators.
    ``center`` and ``half_width`` give monomial rows ((x - c)/s)^i: each
    det[g_j(x_k)] gains a positive factor, so signs are kept while the scale
    stays sane on shifted intervals.  Stacks of configurations are one call
    on all their points."""
    nvec = as_multi_index(nvec)
    xs = np.asarray(xs, dtype=dtype)
    ts = xs if (center, half_width) == (0.0, 1.0) else (xs - center) / half_width
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
        else:  # 1 * w is w: the block's first row, and ts * w its second
            wvals = w.values(np.asarray(xs, dtype=float))
            out[row] = wvals
            mono, row, nj = ts, row + 1, nj - 1
        for _ in range(nj):
            out[row] = mono * wvals
            mono = mono * ts
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

def g_determinant(ws: WeightSystem, nvec, X) -> float:
    """det[g_j(x_k)]; exactly zero when two points coincide."""
    nvec = as_multi_index(nvec)
    X = np.asarray(X, dtype=float)
    if X.size != nvec.n:
        raise ValidationError(f"need {nvec.n} points, got {X.size}")
    if sorted_unique(X).size < X.size:
        return 0.0
    return float(np.linalg.det(g_matrix(ws, nvec, X).T))


def _log_det_form(ws, nvec, Xs):
    """log |det f * det g| for a stack of configurations (C, n); -inf where
    either vanishes (``_det_form``, divide by zero ignored)."""
    with np.errstate(divide="ignore"):
        return _det_form(ws, nvec, np.ascontiguousarray(Xs))()


def _constant_support(w):
    """The support of a constant weight without a Markov ratio, which the
    densities test instead of evaluating the weight; None for other weights."""
    return w.support if w.ratio is None and w.spec.family == "constant" else None


def _det_form(ws, nvec, Xs):
    """The log density of the general form, bound to the C-contiguous stack Xs
    (C, n): the returned function evaluates log |det f * det g| at what Xs
    holds when it is called.  det f is the Vandermonde product, det g a
    batched slogdet in the (point, basis) orientation of ``g_determinant``;
    -inf where either vanishes.  The views, the g-matrix buffer and the
    weights of its blocks are bound here, once; the g rows are those of
    ``g_matrix`` op for op, a constant weight's values taken as its scale on
    the support and 0.0 off it, as ``Weight.values`` gives them.  It sets no
    errstate: log 0 of coincident points divides by zero."""
    C, n = Xs.shape
    xs = Xs.reshape(-1)  # a view: Xs is contiguous
    pairs = [(Xs[:, s:], Xs[:, :-s]) for s in range(1, n)]  # the pairs s apart
    G = np.empty((n, xs.size))
    inside = np.empty(xs.size, dtype=bool)
    blocks, row = [], 0
    for j, nj in enumerate(nvec.parts):
        if nj:
            w = ws.weights[j]
            iv = _constant_support(w)
            blocks.append((w, None if iv is None else (iv.a, iv.b, w.scale), G[row : row + nj]))
            row += nj
    point_basis = G.reshape(n, C, n).transpose(1, 2, 0)

    def log_density():
        lf = 0.0
        for hi, lo in pairs:
            lf = lf + np.log(np.abs(hi - lo)).sum(axis=1)
        for w, support, rows in blocks:
            vals, mono = rows[0], xs
            if support is None:
                vals[...] = w.values(xs)
            else:
                a, b, scale = support
                np.less_equal(a, xs, out=inside)
                np.logical_and(inside, xs <= b, out=inside)
                np.multiply(inside, scale, out=vals)
            for r in rows[1:]:
                np.multiply(mono, vals, out=r)
                mono = mono * xs
        sg, lg = np.linalg.slogdet(point_basis)
        return np.where(sg == 0, -np.inf, lg + lf)

    return log_density


class _Target:
    """One density form as a batched log density: the coordinate layout and
    the full log density, plus what a Metropolis move of ``sampling`` binds
    once per run: per coordinate its coupling row ``mult`` and its weight, or
    the support of a constant weight, which a move tests instead of
    evaluating.  Terms are log-absolute values, which survive the hundreds of
    orders of magnitude of squared Vandermonde factors."""

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
        self.constant_support = [None if w is None else _constant_support(w)
                                 for w in self.coord_weight]

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
    G = g_matrix(ws, nvec, Xs.ravel(), float, *ws.hull_coordinate())
    G = G.reshape(-1, *Xs.shape).swapaxes(0, 1)
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


def _check_poles(pairs):
    """:class:`DomainError` for the first (weight, point) of ``pairs`` with the
    point on an end of the support where the weight's exponent is negative."""
    for w, x in pairs:
        (ea, eb), iv = w.endpoint_exponents, w.support
        if (x == iv.a and ea < 0) or (x == iv.b and eb < 0):
            raise DomainError(f"point {x} sits on a pole of the weight {w.label} "
                              f"on [{iv.a}, {iv.b}]: the density is undefined there")


def joint_density(ws: WeightSystem, nvec, X, normalization: float | None = None) -> float:
    """|det f * det g| at X, divided by |Z| when the constant is supplied.

    ``normalization`` is the partition function Z_n = D_n n!; passing None
    gives the unnormalized value used by the samplers.  A point on a pole of
    a charged weight raises :class:`DomainError`, as in the other densities.
    """
    nvec = as_multi_index(nvec)
    X = np.asarray(X, dtype=float)
    if X.size != nvec.n:
        raise ValidationError(f"need {nvec.n} points, got {X.size}")
    _check_poles((w, x) for w, nj in zip(ws.weights, nvec.parts) if nj for x in X.flat)
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
    target = _Target(ws, nvec)
    _check_poles(zip(target.coord_weight, X))
    return float(np.exp(target.log_density(X[None])[0]))


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
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.size != nvec.n or Y.size != n2:
        raise ValidationError(f"need {nvec.n} x-points and {n2} y-points")
    if np.any(~((X >= g1.a) & (X <= g1.b))) or (Y.size and np.any(~((Y >= g2.a) & (Y <= g2.b)))):
        return 0.0
    target, state = _Target(ws, nvec), np.concatenate([X, Y])
    _check_poles(zip(target.coord_weight, state))
    return float(np.exp(target.log_density(state[None])[0]))


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

#: hull-scaled condition cond1(M) beyond which kernels switch to mpmath
#: arithmetic (``mop._solve``'s cutoff for the kernel); the kernel's
#: coefficients psi = M^-T blow up with the conditioning, so the 80-bit path
#: loses the 1e-10 path-agreement tolerance past this point
KERNEL_CONDITION_CUTOFF = 1e7
#: largest accepted Gram defect max |M X - I| of the kernel's X = M^-1
GRAM_TOL = 1e-9
#: points per block of the float rung's kernel evaluation; bounds the
#: longdouble f- and g-matrices and their product
KERNEL_BLOCK = 8192


@dataclass
class Kernel:
    """Biorthogonalized kernel K(x, y) = f(t_x)^T psi g(t_y), psi = M^-T.

    Every part is in the hull coordinate t = (x - c)/s of
    ``WeightSystem.hull_coordinate``: f(t) = (1, t, ..., t^(n-1)), g the
    basis t^i w_j(x), M the hull-scaled moment matrix that type I and type
    II solve.  Row j of ``psi`` (over that g-basis) is the function
    biorthogonal to t^j, on both rungs.  ``matrix`` is M in the entry type
    of the kernel's rung: longdouble, or mpf on the mpmath rung, where ``mp``
    is the ``highprec.MPForm`` of B = psi that evaluates K at ``mp.dps``
    digits; ``factors`` is the ``linalg.lu_factor`` of M, on the mpmath rung
    the moment table's ``mp_lu`` entry, a ``linalg.FixedLU``.  M psi^T is the
    identity up to ``gram_defect``; ``condition_estimate`` is cond1 of M, as
    type I and type II of the index report it.
    """

    ws: WeightSystem
    nvec: MultiIndex
    matrix: np.ndarray
    factors: tuple
    psi: np.ndarray
    gram_defect: float
    condition_estimate: float
    mp: object = None

    @property
    def n(self):
        return self.nvec.n


def biorthogonalize(M: HankelBlockMatrix, ws: WeightSystem, nvec) -> Kernel:
    """The biorthogonal pair of M, K(x, y) = f(t_x)^T M^-T g(t_y) in the hull
    coordinate.

    X = M^-1 is ``mop._solve`` on identity right-hand sides, the one moment
    solve of type I and type II, with ``KERNEL_CONDITION_CUTOFF``: on the
    float rung the inverse behind the condition estimate, past the cutoff
    the checked mpmath ladder on the rows and the LU of M's moment table
    (``M.table``), where K is the form f^T psi g of ``highprec.MPForm``.
    Either way the Gram check max |M X - I| applies (on the mpmath rung at
    the kernel's dps, after the ladder's own).
    """
    nvec = as_multi_index(nvec)
    mt, n = M.table, nvec.n
    cond, dps, rows_dps, factors, X = _solve(mt, nvec, "auto", "kernel", n + max(nvec.parts) - 2,
                                             lambda rows: np.eye(n, dtype=rows.dtype),
                                             cutoff=KERNEL_CONDITION_CUTOFF)
    rows, precision, form = mt.scaled.astype(linalg.LD), nullcontext(), None
    if dps:
        from . import highprec

        rows, precision = mt.mp_rows[rows_dps], highprec.mp.workdps(dps)
        form = highprec.MPForm(ws, nvec.parts, X.T, dps)
    matrix = _hankel_from(rows, nvec, n)
    with precision:
        defect = float(np.max(np.abs(matrix @ X - np.eye(n, dtype=object))))
    if not defect <= GRAM_TOL:
        raise NumericError(f"biorthogonalization defect {defect:.2e} exceeds {GRAM_TOL:g}")
    return Kernel(ws, nvec, matrix, factors, X.T, defect, cond, mp=form)


def kernel_eval(K: Kernel, x, y):
    """K(x, y) = f(t_x)^T psi g(t_y), with x and y broadcast together; a
    float when both are scalars.  The float rung sums F * (psi G) in
    longdouble over blocks of ``KERNEL_BLOCK`` points; each value depends on
    its own point only, so the blocks change no value by a bit.  The mpmath
    rung answers from ``K.mp``."""
    try:
        xs, ys = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    except ValueError as exc:
        raise ValidationError(f"kernel points do not broadcast: {exc}") from exc
    if K.mp is not None:
        vals = K.mp.eval(xs.ravel(), ys.ravel())
    else:
        xf, yf, at = xs.ravel(), ys.ravel(), K.ws.hull_coordinate()
        vals = np.empty(xf.size)
        for lo in range(0, xf.size, KERNEL_BLOCK):
            F = f_matrix(K.n, xf[lo : lo + KERNEL_BLOCK], linalg.LD, *at)
            G = g_matrix(K.ws, K.nvec, yf[lo : lo + KERNEL_BLOCK], linalg.LD, *at)
            vals[lo : lo + KERNEL_BLOCK] = np.einsum("jm,jm->m", F, K.psi @ G)
    return float(vals[0]) if xs.ndim == 0 else vals.reshape(xs.shape)


def kernel_eval_bordered(K: Kernel, x, y) -> float:
    """K(x, y) as the bordered determinant -det[[M, f(t_x)], [g(t_y), 0]] / det M,
    in the entry type and precision of K's rung; det M comes from the
    diagonal of the LU that K was built from.  Only the mpmath rung imports
    ``highprec``."""
    if K.mp is None:
        dtype, point, precision = linalg.LD, np.asarray, nullcontext()
    else:
        from . import highprec

        dtype, point, precision = object, highprec._mpf, highprec.mp.workdps(K.mp.dps)
    n, at = K.n, K.ws.hull_coordinate()
    with precision:
        big = np.zeros((n + 1, n + 1), dtype=dtype)
        big[:n, :n] = K.matrix
        big[:n, n] = f_matrix(n, point([x]), dtype, *at)[:, 0]
        big[n, :n] = g_matrix(K.ws, K.nvec, point([y]), dtype, *at)[:, 0]
        lu, _, parity = K.factors
        detm = linalg.lu_det(lu, parity)
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


#: ``cauchy_transform_type1`` refuses a z inside the Bernstein ellipse
#: rho = |u + sqrt(u^2 - 1)| = this of any panel, u being z in the panel's
#: node span mapped to [-1, 1]: a pole 0.25 spans above the middle (u = 0.5i).
#: Against 30-digit ``mpmath.quad`` references split at Re z (Angelesco,
#: Legendre, Jacobi and Nikishin systems), rho = 1.48 (0.2 spans) left errors
#: up to 6e-12 relative and rho = 1.32 (0.14 spans) up to 4e-8.
CAUCHY_RHO = (1.0 + 5.0 ** 0.5) / 2.0


def cauchy_transform_type1(ts: TypeISystem, z, *, levels=12, order=32):
    """integral Q(x) / (z - x) dx: the deterministic target of the inverse
    characteristic polynomial estimator.

    The linear form is evaluated as a whole (its A_j w_j terms cancel
    across j for ill-conditioned systems) on fixed graded panels, which
    resolve the pole only outside each panel's Bernstein ellipse of
    ``CAUCHY_RHO``.  A non-finite z, or a z inside such an ellipse (a real
    z on a segment among them), raises :class:`DomainError`.
    """
    ws = ts.system
    zc = complex(z)
    if not np.isfinite(zc):
        raise DomainError(f"z={z} must be finite and off the supports")
    total = 0.0 + 0.0j if isinstance(z, complex) else 0.0
    for lo, hi in ws.support_segments():
        xs, wq = fixed_segment_nodes(lo, hi, ws.segment_exponents(lo, hi),
                                     levels=levels, order=order)
        spans = xs.reshape(-1, order)[:, [0, -1]]  # each panel's nodes
        u = (2.0 * zc - spans.sum(axis=1)) / np.abs(spans[:, 1] - spans[:, 0])
        root = np.sqrt(u * u - 1.0)
        rho = np.maximum(np.abs(u + root), np.abs(u - root)).min()
        if rho < CAUCHY_RHO:
            raise DomainError(f"z={z} lies nearer the support segment [{lo}, {hi}] than "
                              f"its fixed rule resolves: a panel's Bernstein ellipse rho = "
                              f"{rho:.3g} is below {CAUCHY_RHO:.4g}")
        qv = ts.q_values(xs)
        total = total + np.sum(wq * qv / (z - xs))
    return total

"""Multiple orthogonal polynomials from block Hankel moment systems.

Type II polynomials solve the transposed moment system, type I tuples the
moment system itself, and the kernel (``ensemble.biorthogonalize``) its
inverse: mathematically the determinantal formulas, far better
conditioned.  One solve, ``_solve``, serves all three from one LU of the
moment matrix M per index, on every rung in the hull coordinate
t = (x - c)/s that maps the convex hull of the supports to [-1, 1]; the
polynomials map back to x through ``_affine_unscale``.  Past the caller's
cutoff of cond1(M) the solve climbs the one checked mpmath ladder,
``highprec.escalate``, which keeps zero locations and linear forms
meaningful well past the point where floating point gives up on Hankel
matrices, or raises :class:`PrecisionExhausted`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .exceptions import NonNormalIndexError, NumericError, ValidationError
from .quadrature import fixed_segment_nodes
from .specs import MAX_TOTAL_DEGREE
from .weights import MomentTable, WeightSystem, powers, weight_quad

SINGULAR_PIVOT_RTOL = 1e-17
CONDITION_WARN = 1e12
#: condition estimate beyond which type II and type I solves switch to
#: mpmath; the float64 moment tables floor the residuals at ~cond * 2e-15,
#: so the switch happens well before the 1e-9 target is at risk
CONDITION_CUTOFF = 3e4
METHODS = ("auto", "float", "mp")


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index (n_1, ..., n_p) with n = sum n_j."""

    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 1:
            raise ValidationError("multi-index needs at least one part")
        for v in self.parts:
            if int(v) != v or v < 0:
                raise ValidationError(f"multi-index parts must be nonnegative ints: {self.parts}")
        object.__setattr__(self, "parts", tuple(int(v) for v in self.parts))

    @property
    def n(self):
        return sum(self.parts)

    @property
    def p(self):
        return len(self.parts)

    def g_index(self, k):
        """Map the 1-based g-basis index k to (power, weight_index)."""
        if not 1 <= k <= self.n:
            raise ValidationError(f"basis index {k} out of range 1..{self.n}")
        start = 0
        for j, nj in enumerate(self.parts):
            if k <= start + nj:
                return k - start - 1, j
            start += nj
        raise AssertionError("unreachable")

    @staticmethod
    def from_ray(ray, n):
        """n_j = round(r_j * n) with largest-remainder correction."""
        r = np.asarray(ray, dtype=float)
        if np.any(r <= 0) or abs(r.sum() - 1.0) > 1e-9:
            raise ValidationError("ray limits must be positive and sum to 1")
        base = np.floor(r * n).astype(int)
        frac = r * n - base
        missing = int(n - base.sum())
        for idx in np.argsort(-frac, kind="stable")[:missing]:
            base[idx] += 1
        return MultiIndex(tuple(int(v) for v in base))


def as_multi_index(nvec):
    return nvec if isinstance(nvec, MultiIndex) else MultiIndex(tuple(nvec))


class Polynomial:
    """Real polynomial with ascending monomial coefficients.

    Evaluation runs in 80-bit Horner form, which matters for high-degree
    monic polynomials whose values on [-1, 1] are far below their
    coefficient scale.  A solved polynomial records its rung in ``method``
    (``"float"`` or ``"mp"``) and the working precision in ``hp_dps`` (0 on
    the float rung).  A coefficient that does not fit in float64 (a solve's
    unscaling can overflow it) raises :class:`NumericError`.
    """

    def __init__(self, coeffs, condition_estimate=None, ill_conditioned=False,
                 method=None, hp_dps=0):
        hi = np.atleast_1d(np.asarray(coeffs)).astype(linalg.LD)
        if not np.all(np.abs(hi) <= np.finfo(float).max):
            raise NumericError("polynomial coefficient does not fit in float64")
        # trim trailing zeros but keep the zero polynomial as [0.0]
        nz = np.nonzero(hi)[0]
        hi = hi[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=linalg.LD)
        self._hi = hi  # 80-bit copy: evaluation keeps the solver's accuracy
        self.coeffs = hi.astype(float)
        self.condition_estimate = condition_estimate
        self.ill_conditioned = ill_conditioned
        self.method = method
        self.hp_dps = hp_dps

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        xs = np.asarray(x)
        if np.iscomplexobj(xs):
            acc = np.zeros_like(xs, dtype=complex)
            for c in self._hi[::-1]:
                acc = acc * xs + complex(c)
            return acc if xs.ndim else complex(acc)
        xl = xs.astype(linalg.LD)
        acc = np.zeros_like(xl)
        for c in self._hi[::-1]:  # acc = acc * xl + c, in place
            np.add(np.multiply(acc, xl, out=acc), c, out=acc)
        out = acc.astype(float)
        return float(out) if xs.ndim == 0 else out

    def derivative(self):
        if self.degree == 0:
            return Polynomial([0.0])
        k = np.arange(1, len(self.coeffs))
        return Polynomial(self.coeffs[1:] * k)

    def __repr__(self):
        return f"Polynomial(degree={self.degree})"


@dataclass
class TypeISystem:
    """Type I tuple (A^(1), ..., A^(p)) and its linear form Q.

    For ill-conditioned systems solved in high precision, ``hp_coeffs``
    retains the full-precision blocks (monomials in x) and ``mp`` is the
    ``highprec.MPForm`` of Q in the hull coordinate, for ``q_values``: the
    huge A_j terms cancel in mpmath before the downcast, so Q carries full
    double accuracy even when the coefficients span 16+ orders, which the
    float polynomials alone cannot.  ``hp_dps`` is the solve's working
    precision and ``hp_rows_dps`` the rung its moment rows were computed at
    (both 0 on the float rung).
    """

    polys: tuple
    system: WeightSystem
    nvec: MultiIndex
    condition_estimate: float
    ill_conditioned: bool
    hp_coeffs: tuple = None
    hp_dps: int = 0
    hp_rows_dps: int = 0
    mp: object = field(default=None, compare=False, repr=False)

    def q_values(self, x):
        """Linear form Q(x) = sum_j A_j(x) w_j(x)."""
        x = np.asarray(x, dtype=float)
        flat = np.atleast_1d(x)
        if self.mp is not None:
            total = self.mp.eval(flat.ravel(), flat.ravel()).reshape(flat.shape)
        else:
            total = np.zeros_like(flat)
            for a_j, w_j in zip(self.polys, self.system.weights):
                if a_j.degree == 0 and a_j.coeffs[0] == 0.0:
                    continue
                total = total + a_j(flat) * w_j.values(flat)
        return float(total[0]) if x.ndim == 0 else total


@dataclass(frozen=True)
class HankelBlockMatrix:
    """Hull-scaled moment matrix M of a multi-index, which every solve factors;
    ``table`` is the ``MomentTable`` it came from, whose mpmath rows and LU the kernel shares."""

    matrix: np.ndarray
    nvec: MultiIndex
    table: MomentTable = field(compare=False, repr=False)

    @property
    def n(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DetReport:
    """The block moment determinant D_n and cond1 of the hull-scaled M."""

    det: float
    condition: float


def _require_order(mt: MomentTable, order: int):
    if mt.k_max < order:
        raise ValidationError(
            f"moment table holds orders up to {mt.k_max}, need {order}"
        )


def _hankel_from(table_rows, nvec, n_rows):
    """n_rows x n block Hankel matrix: column l of block j holds the moments
    l .. l + n_rows - 1 of weight j.  Entries keep the type of the moment
    rows (float or mpf), so one assembly serves every rung."""
    return np.stack([np.asarray(table_rows[j][l : l + n_rows])
                     for j, nj in enumerate(nvec.parts) for l in range(nj)], axis=1)


def block_hankel(mt: MomentTable, nvec) -> HankelBlockMatrix:
    """Assemble the n x n block Hankel moment matrix M from the hull-scaled
    moments: column l of block j holds integral t^(i + l) w_j dx, i < n."""
    nvec = as_multi_index(nvec)
    n = nvec.n
    if n < 1:
        raise ValidationError("multi-index must have |n| >= 1")
    if nvec.p != mt.p:
        raise ValidationError(f"multi-index has {nvec.p} parts, system has {mt.p}")
    _require_order(mt, n - 1 + max(nvec.parts) - 1)
    return HankelBlockMatrix(_hankel_from(mt.scaled, nvec, n), nvec, mt)


def normality_determinant(M: HankelBlockMatrix) -> DetReport:
    """D_n, det of the block moment matrix in x, and cond1 of the hull-scaled
    M, from one 80-bit LU of M.  x = c + s t changes the basis triangularly
    on both sides, so D_n = s^e det M, e = n(n - 1)/2 + sum_j n_j(n_j - 1)/2,
    multiplied in longdouble: on the hull [-1, 1] it is det M bit for bit."""
    factors = linalg.lu_factor(M.matrix)
    s, n = M.table.system.hull_coordinate()[1], M.nvec.n
    e = n * (n - 1) // 2 + sum(nj * (nj - 1) // 2 for nj in M.nvec.parts)
    with np.errstate(over="ignore"):  # past longdouble, D_n is past float64: inf
        det = float(linalg.LD(s) ** e * linalg.lu_det(factors[0], factors[2]))
    return DetReport(det, linalg.cond1(M.matrix, factors))


def _check_normal(mt, nvec):
    """The hull-rescaled moment matrix and its ``lu_factor``; raises when
    the matrix is numerically singular.

    Normal Hankel determinants decay exponentially with n, so a test against
    the product of row norms would reject almost every moderate index.
    Instead any LU pivot of the hull-rescaled matrix (whose normality is
    equivalent: the rescaling is a triangular change of basis on both sides)
    at the extended-precision roundoff floor marks the index as non-normal;
    a bitwise-repeated column gives an exact zero pivot and is always caught.
    """
    n = nvec.n
    scaled = _hankel_from(mt.scaled, nvec, n)
    factors = linalg.lu_factor(scaled)
    scale = float(np.abs(scaled).max())
    pivots = np.abs(np.diagonal(factors[0])).astype(float)
    if scale == 0.0 or pivots.min() <= SINGULAR_PIVOT_RTOL * scale:
        raise NonNormalIndexError(
            f"multi-index {nvec.parts} is not normal "
            f"(pivot {pivots.min():.3e} vs scale {scale:.3e})"
        )
    return scaled, factors


def _affine_unscale(coeffs_t, mt, power, dps):
    """Coefficients of s^power P((x - c)/s) from the coefficients of P(t), for
    ``mt``'s hull [c - s, c + s]: in longdouble, or in mpf at ``dps`` digits
    when ``dps``; on the hull [-1, 1], where t = x, the coefficients themselves."""
    coeffs, (c, s) = np.asarray(coeffs_t), mt.system.hull_coordinate()
    if (c, s) == (0.0, 1.0):
        return coeffs
    if dps:
        from mpmath import mp, mpf
    precision, one = (mp.workdps(dps), mpf(1)) if dps else (nullcontext(), linalg.LD(1))
    with precision:
        cl, sl = one * c, one * s
        acc = np.zeros(0, dtype=coeffs.dtype)
        for k in range(len(coeffs) - 1, -1, -1):  # Horner in x - c on a_k s^-k
            prev, acc = acc, np.append(coeffs[k] / sl ** k, acc)
            acc[:-1] -= prev * cl
        return acc * sl ** power


def _type2_rhs(rows, nvec):
    """The right-hand side -c^(j)_{l+n}, l < n_j, of the type II conditions
    sum_i a_i c^(j)_{l+i} = -c^(j)_{l+n}, read off the moment rows in the
    entry type of the rows (float or mpf)."""
    n = nvec.n
    return -np.asarray([rows[j][l + n] for j, nj in enumerate(nvec.parts) for l in range(nj)])


def _solve(mt: MomentTable, nvec, method, what, order, rhs, transpose=False,
           cutoff=CONDITION_CUTOFF):
    """M x = rhs(rows), or M^T x = rhs(rows) when ``transpose``, for the
    hull-scaled block Hankel moment matrix M of ``nvec``: the one moment
    solve of type II (M^T), type I and the kernel (M X = I).

    Every rung works in the hull coordinate t = (x - c)/s.  Checks the
    request (``order`` is the highest moment order the solve reads) and the
    normality of M, and routes on cond1 of M, the caller's ``cutoff`` apart:
    the float rung solves from ``_check_normal``'s LU with ``mt.scaled``
    (an identity right-hand side, the kernel's, is the inverse that cond1
    solved; ``mt.float_lu`` keeps LU, inverse and cond1 for the next solve
    at the same index), the mpmath rung climbs ``highprec.escalate`` over
    ``highprec.rung_solve`` on the table's mpf rows.  Returns (cond, dps,
    rows_dps, factors, x): dps and rows_dps are 0 on the float rung, and
    factors is the LU of M that x was solved with.
    """
    if nvec.n < 1:
        raise ValidationError(f"{what} needs |n| >= 1")
    if nvec.n > MAX_TOTAL_DEGREE:
        raise ValidationError(f"|n|={nvec.n} exceeds the supported cap {MAX_TOTAL_DEGREE}")
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}")
    _require_order(mt, order)
    if nvec.parts not in mt.float_lu:
        system, factors = _check_normal(mt, nvec)
        mt.float_lu.clear()
        mt.float_lu[nvec.parts] = factors, *linalg.inverse_cond1(system, factors)
    factors, inverse, cond = mt.float_lu[nvec.parts]
    if method == "mp" or (method == "auto" and cond > cutoff):
        from . import highprec

        dps, (rows_dps, x) = highprec.escalate(
            lambda d: highprec.rung_solve(mt, nvec, rhs, d, transpose), cond)
        return cond, dps, rows_dps, mt.mp_lu[nvec.parts, dps], x
    b = rhs(mt.scaled)
    x = inverse if np.ndim(b) == 2 else linalg.lu_solve(*factors[:2], b, transpose)
    return cond, 0, 0, factors, x


def type2_mop(mt: MomentTable, nvec, method: str = "auto") -> Polynomial:
    """Monic type II multiple orthogonal polynomial of degree |n|.

    Solves M^T a = -b from the LU of the hull-scaled moment matrix M that
    type I solves with, and maps the monic answer in t back to x with
    ``_affine_unscale``.  ``method`` is ``"float"`` (80-bit solve), ``"mp"``
    (the checked mpmath ladder of ``highprec.escalate``), or ``"auto"``,
    which takes the ladder when cond1 of M passes ``CONDITION_CUTOFF``.
    """
    nvec = as_multi_index(nvec)
    n = nvec.n
    cond, dps, _, _, a = _solve(mt, nvec, method, "type II MOP", n + max(nvec.parts) - 1,
                                lambda rows: _type2_rhs(rows, nvec), transpose=True)
    coeffs = _affine_unscale(np.append(a, 1), mt, n, dps)
    coeffs[-1] = 1  # monic by construction; pin against rounding
    return Polynomial(coeffs, condition_estimate=cond, ill_conditioned=cond > CONDITION_WARN,
                      method="mp" if dps else "float", hp_dps=dps)


def type1_mop(mt: MomentTable, nvec, method: str = "auto") -> TypeISystem:
    """Type I polynomials A^(j) (degree n_j - 1) normalized by the n-1 moment.

    Solves the n x n hull-scaled moment system M a = e_n whose first n-1
    rows are the vanishing power conditions and whose last row is the
    normalization; ``_affine_unscale`` maps the blocks back to x, times
    s^-(n-1).  Past ``CONDITION_CUTOFF`` (typical for Nikishin systems, whose
    weight blocks are nearly dependent) ``"auto"`` takes the checked mpmath
    ladder of ``highprec.escalate``; ``"mp"`` forces it, ``"float"`` forbids it.
    """
    nvec = as_multi_index(nvec)
    n = nvec.n
    cond, dps, rows_dps, _, sol = _solve(mt, nvec, method, "type I MOP", 2 * n - 2,
                                         lambda rows: np.eye(1, n, n - 1, dtype=rows.dtype)[0])
    blocks = [_affine_unscale(sol[e - nj : e], mt, 1 - n, dps)
              for nj, e in zip(nvec.parts, np.cumsum(nvec.parts))]
    hp = {}
    if dps:
        from . import highprec

        s = mt.system.hull_coordinate()[1]
        with highprec.mp.workdps(dps):  # Q is s^-(n-1) times the form of sol in t
            B = np.array([sol], dtype=object) * highprec.mp.mpf(s) ** (1 - n)
        hp = dict(hp_coeffs=tuple(tuple(blk) for blk in blocks), hp_dps=dps,
                  hp_rows_dps=rows_dps, mp=highprec.MPForm(mt.system, nvec.parts, B, dps))
    return TypeISystem(tuple(Polynomial(blk) for blk in blocks), mt.system, nvec, cond,
                       cond > CONDITION_WARN, **hp)


def _coefficient_scale(P: Polynomial, x) -> np.ndarray:
    """sum_i |c_i| |x|^i at the 1-d float array x, the scale of P's terms
    there, from one product; the running sum adds the terms in order of
    degree, as ``scale += |c_i| |x| ** i`` from zeros does (``sum(axis=0)``
    would add one point's terms pairwise)."""
    return np.cumsum(np.abs(P.coeffs)[:, None] * powers(np.abs(x), P.degree), axis=0)[-1]


def poly_roots(P: Polynomial) -> np.ndarray:
    """Real roots via companion-matrix eigenvalues, polished and sorted.

    Eigenvalues with relative imaginary part below 1e-8 are projected onto
    the real axis.  An eigenvalue off the real axis, or a root whose
    polished residual stays large, raises :class:`NumericError`, so exactly
    ``deg`` roots come back.
    """
    if P.degree < 1:
        raise ValidationError("root finding needs degree >= 1")
    monic = P.coeffs / P.coeffs[-1]
    deg = len(monic) - 1
    comp = np.zeros((deg, deg))
    comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -monic[:-1]
    eig = np.linalg.eigvals(comp)
    keep = np.abs(eig.imag) <= 1e-8 * np.maximum(1.0, np.abs(eig))
    if not np.all(keep):
        raise NumericError(
            f"{deg - int(keep.sum())} of {deg} companion eigenvalues are not real"
        )
    roots = np.sort(eig.real)

    dp = P.derivative()
    for _ in range(3):  # Newton polish in extended precision
        fv = np.asarray(P(roots), dtype=float)
        dv = np.asarray(dp(roots), dtype=float)
        ok = np.abs(dv) > 0
        roots = np.where(ok, roots - np.where(ok, fv, 0.0) / np.where(ok, dv, 1.0), roots)
    roots = np.sort(roots)

    # residual screen against the polynomial's local coefficient scale
    resid = np.abs(np.asarray(P(roots), dtype=float))
    bad = resid > 1e-7 * np.maximum(_coefficient_scale(P, roots), 1e-300)
    if np.any(bad):
        raise NumericError(
            f"root refinement failed: residual {resid[bad].max():.3e} at {roots[bad]}"
        )
    return roots


def orthogonality_residuals(P: Polynomial, ws: WeightSystem, nvec, tol=1e-12):
    """Residuals r_{j,k} = integral P(x) x^k w_j dx for k < n_j.

    Quadrature is independent of any moment table: the integrand is formed
    from the polynomial itself, one adaptive pass per weight over its n_j
    rows.  Returns one array per weight (empty when n_j = 0).
    """
    nvec = as_multi_index(nvec)
    out = []
    for w, nj in zip(ws.weights, nvec.parts):
        rows = lambda x, nj=nj: P(x) * powers(x, nj - 1)
        out.append(weight_quad(rows, w, tol=tol).value if nj else np.empty(0))
    return out


def type1_condition_residuals(ts: TypeISystem, *, levels=10, order=32) -> np.ndarray:
    """Independent-quadrature check of integral x^k Q dx = delta_{k,n-1}.

    The linear form is integrated as a whole (never one A_j w_j term at a
    time, whose huge values cancel across j) on fixed graded panels over
    the union of supports.
    """
    return type1_check_integrals(ts, levels=levels, order=order)[0]


def type1_check_integrals(ts: TypeISystem, *, levels=10, order=32):
    """(``type1_condition_residuals``, integral |x^k Q| dx for k < n) on the
    same panels: the residuals and the scale they are measured against."""
    n = ts.nvec.n
    ws = ts.system
    res, size = -np.eye(1, n, n - 1)[0], np.zeros(n)
    for lo, hi in ws.support_segments():
        xs, wq = fixed_segment_nodes(lo, hi, ws.segment_exponents(lo, hi),
                                     levels=levels, order=order)
        qv = ts.q_values(xs)
        terms = [wq * xs ** k * qv for k in range(n)]
        res = res + np.asarray([np.sum(t) for t in terms])
        size = size + np.asarray([np.sum(np.abs(t)) for t in terms])
    return res, size

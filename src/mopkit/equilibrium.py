"""Vector logarithmic-energy equilibrium problems on fixed grids.

The continuous functional sum_jk c_jk I(mu_j, mu_k) + sum_j int V_j dmu_j is
discretized with masses on equispaced midpoint grids.  The diagonal of the
log kernel uses the half-cell distance floor h/2, the standard midpoint
correction that makes the discrete self-energy an O(h log h) quadrature of
the continuous one.  The discrete problem is a strictly convex quadratic
program on a product of simplices; it is solved exactly by a primal-dual
active-set (semismooth Newton) iteration on its KKT system (Hintermueller,
Ito & Kunisch, SIAM J. Optim. 13, 2002), which settles in one solve when
every grid point carries mass and in a few more when the support is a
proper subset of the interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericError, SingularEnergyError, ValidationError
from .quadrature import sorted_unique
from .specs import Interval, overlapping_pair


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative masses on a sorted grid."""

    grid: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        if g.ndim != 1 or g.shape != m.shape:
            raise ValidationError("grid and masses must be 1-D of equal length")
        if np.any(np.diff(g) < 0):
            raise ValidationError("grid must be sorted")
        if np.any(m < 0):
            raise ValidationError("masses must be nonnegative")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "masses", m)

    @property
    def total_mass(self):
        return float(self.masses.sum())

    @property
    def spacing(self):
        """Mean grid spacing (grids are equispaced in practice)."""
        if self.grid.size < 2:
            return 1.0
        return float((self.grid[-1] - self.grid[0]) / (self.grid.size - 1))

    def cdf(self, x, side="right"):
        """Cumulative mass, right- or left-continuous."""
        idx = np.searchsorted(self.grid, np.asarray(x, dtype=float), side=side)
        csum = np.concatenate([[0.0], np.cumsum(self.masses)])
        return csum[idx]


def interaction_matrix(kind: str, p: int) -> np.ndarray:
    """Angelesco (full, +1/2 off-diagonal) or Nikishin (tridiagonal, -1/2)."""
    if p < 1:
        raise ValidationError("p must be at least 1")
    if kind == "angelesco":
        return 0.5 * (np.eye(p) + np.ones((p, p)))
    if kind == "nikishin":
        c = np.eye(p)
        idx = np.arange(p - 1)
        c[idx, idx + 1] = -0.5
        c[idx + 1, idx] = -0.5
        return c
    raise ValidationError(f"unknown interaction kind {kind!r}")


def _check_interaction(c):
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValidationError("interaction matrix must be square")
    if not np.allclose(c, c.T, atol=1e-12):
        raise ValidationError("interaction matrix must be symmetric")
    if np.linalg.eigvalsh(c).min() <= 0:
        raise ValidationError("interaction matrix must be positive definite")
    return c


def _log_kernel(x, y, floor=None):
    d = np.abs(x[:, None] - y[None, :])
    if floor is not None:
        d = np.maximum(d, floor)
    with np.errstate(divide="ignore"):
        return -np.log(d)


def log_energy(mu: DiscreteMeasure, nu: DiscreteMeasure | None = None,
               exclude_diagonal: bool = False) -> float:
    """Discrete logarithmic energy sum log(1/|x - y|) m_x m_y.

    With ``nu`` omitted this is the self-energy of ``mu``: diagonal pairs
    (and coincident off-diagonal nodes) are separated by the h/2 floor, or
    skipped entirely with ``exclude_diagonal`` (the reduced energy I* of a
    point configuration).  For two distinct measures, coincident nodes with
    positive masses raise :class:`SingularEnergyError`.
    """
    if nu is None or nu is mu:
        x, m = mu.grid, mu.masses
        if exclude_diagonal:
            k = _log_kernel(x, x)
            np.fill_diagonal(k, 0.0)
            charged = np.outer(m, m) > 0
            np.fill_diagonal(charged, False)
            if np.any(~np.isfinite(k) & charged):
                raise SingularEnergyError("coincident charged nodes in I*")
            k[~np.isfinite(k)] = 0.0
            return float(m @ k @ m)
        k = _log_kernel(x, x, floor=0.5 * mu.spacing)
        return float(m @ k @ m)
    k = _log_kernel(mu.grid, nu.grid)
    charged = np.outer(mu.masses, nu.masses) > 0
    if np.any(~np.isfinite(k) & charged):
        raise SingularEnergyError(
            "coincident charged nodes across two measures have infinite energy"
        )
    k[~np.isfinite(k)] = 0.0  # uncharged coincidences contribute nothing
    return float(mu.masses @ k @ nu.masses)


def energy_functional(measures, c, fields=None) -> float:
    """sum_jk c_jk I(mu_j, mu_k) + sum_j int V_j dmu_j.

    The double sum expands exactly as the Angelesco form
    sum_j I(mu_j) + sum_{j<k} I(mu_j, mu_k) and the Nikishin form
    sum_j I(mu_j) - sum_j I(mu_j, mu_{j+1}) for the respective matrices.
    """
    measures = list(measures)
    c = np.asarray(c, dtype=float)
    p = len(measures)
    if c.shape != (p, p):
        raise ValidationError(f"interaction matrix shape {c.shape} != ({p}, {p})")
    total = 0.0
    for j in range(p):
        for k in range(p):
            if c[j, k] == 0.0:
                continue
            if j == k:
                total += c[j, k] * log_energy(measures[j])
            else:
                total += c[j, k] * log_energy(measures[j], measures[k])
    if fields is not None:
        for v_j, mu in zip(fields, measures):
            if v_j is None:
                continue
            total += float(np.sum(_field_values(v_j, mu.grid) * mu.masses))
    return total


def _field_values(v, x):
    if callable(v):
        return np.asarray(v(x), dtype=float)
    coeffs = np.asarray(v, dtype=float)  # polynomial coefficients, ascending
    return np.polynomial.polynomial.polyval(x, coeffs)


@dataclass(frozen=True)
class EquilibriumProblem:
    """Supports, mass constraints, interaction matrix, and external fields."""

    intervals: tuple
    masses: tuple
    matrix: np.ndarray
    fields: tuple = None
    grid_sizes: tuple = None

    def __post_init__(self):
        p = len(self.intervals)
        if len(self.masses) != p:
            raise ValidationError("one mass constraint per interval required")
        if any(m <= 0 for m in self.masses):
            raise ValidationError("component masses must be positive")
        object.__setattr__(self, "matrix", _check_interaction(self.matrix))
        if self.fields is None:
            object.__setattr__(self, "fields", tuple([None] * p))
        if self.grid_sizes is None:
            object.__setattr__(self, "grid_sizes", tuple([500] * p))

    @property
    def p(self):
        return len(self.intervals)

    @staticmethod
    def angelesco(intervals, ray, grid=500, fields=None):
        """Masses r_j on intervals with disjoint interiors (touching ends are
        allowed), with the full interaction matrix."""
        if pair := overlapping_pair(intervals):
            raise ValidationError("Angelesco intervals overlap: {} and {}".format(*pair))
        return _ray_problem("angelesco", intervals, ray, grid, fields)

    @staticmethod
    def nikishin(intervals, ray, grid=500, fields=None):
        """Masses sum_{i>=j} r_i on the interval chain, tridiagonal matrix."""
        return _ray_problem("nikishin", intervals, ray, grid, fields)


def _ray_problem(kind, intervals, ray, grid, fields):
    p = len(intervals)
    ray = tuple(float(r) for r in ray)
    if len(ray) != p or not all(r > 0 for r in ray) or not abs(sum(ray) - 1.0) <= 1e-9:
        raise ValidationError(f"ray must have {p} positive parts summing to 1, got {list(ray)}")
    masses = ray if kind == "angelesco" else tuple(float(sum(ray[j:])) for j in range(p))
    sizes = tuple([grid] * p) if np.isscalar(grid) else tuple(grid)
    return EquilibriumProblem(tuple(intervals), masses, interaction_matrix(kind, p),
                              None if fields is None else tuple(fields), sizes)


@dataclass(frozen=True)
class EquilibriumReport:
    energy: float
    iterations: int
    kkt_residual: float
    converged: bool
    energy_history: tuple = ()


def _midpoint_grid(iv: Interval, m: int):
    h = iv.length / m
    return iv.a + h * (np.arange(m) + 0.5), h


def _kkt_matrix(grids, spacings, c):
    """The symmetric saddle matrix [[A, E], [E^T, 0]] of the discrete problem.

    A's (j, k) block is 2 c_jk K_jk, the log kernel with the h/2 floor on
    the diagonal blocks; column N + j of E marks component j's grid points.
    Every block is filled in place, so the matrix is the only N x N array.
    """
    offsets = np.cumsum([0] + [g.size for g in grids])
    n, p = int(offsets[-1]), len(grids)
    mat = np.zeros((n + p, n + p))
    rows = [slice(offsets[j], offsets[j + 1]) for j in range(p)]
    for j in range(p):
        mat[rows[j], n + j] = mat[n + j, rows[j]] = 1.0
        for k in range(p):
            if c[j, k] == 0.0:
                continue
            block = mat[rows[j], rows[k]]
            np.subtract.outer(grids[j], grids[k], out=block)
            np.abs(block, out=block)
            if j == k:
                np.maximum(block, 0.5 * spacings[j], out=block)
            with np.errstate(divide="ignore"):
                np.log(block, out=block)
            block *= -2.0 * c[j, k]
    return mat, rows


def minimize_equilibrium(prob: EquilibriumProblem, *, max_iter=4000,
                         tol=1e-10) -> tuple:
    """Minimize the discretized functional over masses on fixed grids, exactly.

    Primal-dual active-set steps: solve the saddle system on the free points,
    then free the fixed points whose slack A m + f - lambda_j is negative and
    fix the free points with m <= 0, until the free set repeats.  ``max_iter``
    caps the solves and ``tol`` is the KKT target; missing either raises
    :class:`NumericError`.  Returns (measures, report) where the report
    carries the KKT residual: how far below the component's support level
    the effective potential dips anywhere.
    """
    p = prob.p
    grids, spacings = zip(*(_midpoint_grid(iv, int(m))
                            for iv, m in zip(prob.intervals, prob.grid_sizes)))
    mat, rows = _kkt_matrix(grids, spacings, prob.matrix)
    n = mat.shape[0] - p
    if not np.isfinite(mat.sum()):
        raise SingularEnergyError("coincident grid points across interacting components")
    a = mat[:n, :n]
    f = np.concatenate([_field_values(v, g) if v is not None else np.zeros_like(g)
                        for v, g in zip(prob.fields, grids)])
    rhs = np.concatenate([-f, prob.masses])
    component = np.repeat(np.arange(p), [g.size for g in grids])

    def energy_and_gradient(m):
        am = a @ m
        return 0.5 * float(m @ am) + float(f @ m), am + f

    m = np.concatenate([np.full(g.size, mj / g.size) for g, mj in zip(grids, prob.masses)])
    start_energy, grad = energy_and_gradient(m)
    free, settled, iterations = np.ones(n, dtype=bool), False, 0
    while not settled and iterations < max_iter:
        iterations += 1
        idx = np.concatenate([np.flatnonzero(free), np.arange(n, n + p)])
        try:
            sol = np.linalg.solve(mat if free.all() else mat[np.ix_(idx, idx)], rhs[idx])
        except np.linalg.LinAlgError as exc:
            raise SingularEnergyError(f"singular KKT system: {exc}") from exc
        if not np.all(np.isfinite(sol)):
            raise SingularEnergyError("KKT solve gave non-finite masses")
        m = np.zeros(n)
        m[free] = sol[:-p]
        energy, grad = energy_and_gradient(m)
        slack = grad + sol[-p:][component]  # the multipliers are lambda = -sol[-p:]
        next_free = np.where(free, m > 0.0, slack < 0.0)
        settled, free = np.array_equal(next_free, free), next_free

    kkt = 0.0
    for j, r in enumerate(rows):
        t, mj = grad[r], m[r]
        charged = mj > 1e-12 * prob.masses[j] / mj.size
        level = float(np.sum(t[charged] * mj[charged]) / mj[charged].sum())
        kkt = max(kkt, float(np.max(level - t)))
    if not (settled and kkt <= tol):
        raise NumericError(
            f"active set {'settled' if settled else 'still changing'} after {iterations} "
            f"solves with KKT residual {kkt:.3e} (target {tol:.1e})"
        )
    measures = tuple(DiscreteMeasure(g, m[r]) for g, r in zip(grids, rows))
    report = EquilibriumReport(energy, iterations, kkt, True, (start_energy, energy))
    return measures, report


def zero_counting_measure(roots, n: int, intervals, tol: float = 1e-8):
    """Per-interval atomic measures with mass 1/n at each root.

    Every root must lie in some interval (within ``tol`` of the endpoints);
    otherwise a :class:`ValidationError` names the stray root.
    """
    roots = np.sort(np.asarray(roots, dtype=float))
    buckets = [[] for _ in intervals]
    for r in roots:
        for j, iv in enumerate(intervals):
            if iv.contains(r, tol=tol):
                buckets[j].append(min(max(r, iv.a), iv.b))
                break
        else:
            raise ValidationError(f"root {r} lies outside every interval")
    out = []
    for pts in buckets:
        pts = np.asarray(pts)
        out.append(DiscreteMeasure(pts, np.full(pts.size, 1.0 / n)))
    return out


def kolmogorov_distance(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """sup over the merged grid of |CDF_mu - CDF_nu| (both one-sided limits)."""
    if abs(mu.total_mass - nu.total_mass) > 1e-9:
        raise ValidationError(
            f"total masses differ: {mu.total_mass} vs {nu.total_mass}"
        )
    pts = sorted_unique(np.concatenate([mu.grid, nu.grid], axis=None))
    right = np.abs(mu.cdf(pts, "right") - nu.cdf(pts, "right"))
    left = np.abs(mu.cdf(pts, "left") - nu.cdf(pts, "left"))
    return float(max(right.max(initial=0.0), left.max(initial=0.0)))

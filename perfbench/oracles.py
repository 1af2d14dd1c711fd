"""Independent reference computations used to check mopkit's outputs.

Nothing here calls mopkit: quadrature rules come from Golub-Welsch on the
Jacobi matrix (numpy.linalg.eigh), weights are evaluated from their
defining formulas, polynomials are evaluated in 80-bit Horner form, and the
effective sample size is estimated from the returned configurations alone.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

LD = np.longdouble


# ---------------------------------------------------------------------------
# Gauss rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def gauss_jacobi(m: int, alpha: float = 0.0, beta: float = 0.0):
    """m-point rule for (1 - t)^alpha (1 + t)^beta on [-1, 1] (Golub-Welsch)."""
    ab = alpha + beta
    k = np.arange(m, dtype=float)
    two_k = 2.0 * k + ab
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (beta * beta - alpha * alpha) / (two_k * (two_k + 2.0))
    diag[0] = (beta - alpha) / (ab + 2.0)
    kk = np.arange(1, m, dtype=float)
    t = 2.0 * kk + ab
    off = np.sqrt(4.0 * kk * (kk + alpha) * (kk + beta) * (kk + ab)
                  / (t * t * (t + 1.0) * (t - 1.0)))
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    mu0 = 2.0 ** (ab + 1.0) * math.exp(math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0)
                                       - math.lgamma(ab + 2.0))
    return nodes, mu0 * vecs[0, :] ** 2


def rule_on(a: float, b: float, m: int, alpha: float = 0.0, beta: float = 0.0):
    """Nodes and weights for (b - x)^alpha (x - a)^beta dx on [a, b]."""
    t, w = gauss_jacobi(m, alpha, beta)
    h = 0.5 * (b - a)
    return 0.5 * (a + b) + h * t, w * h ** (alpha + beta + 1.0)


# ---------------------------------------------------------------------------
# Weights from their definitions
# ---------------------------------------------------------------------------

class WeightDef:
    """A weight on [a, b]: constant, Jacobi (b-x)^alpha (x-a)^beta, or
    exp(-sum c_k x^k), optionally times the Markov ratio of a constant
    generator on [c, d] (the second weight of a Nikishin system).

    ``smooth(x)`` is the factor the Gauss rule does not absorb: the whole
    weight for Gauss-Legendre, the weight over the Jacobi factor otherwise.
    """

    def __init__(self, a, b, family="constant", alpha=0.0, beta=0.0, coeffs=(),
                 markov=None):
        self.a, self.b = float(a), float(b)
        self.family = family
        self.alpha, self.beta = (alpha, beta) if family == "jacobi" else (0.0, 0.0)
        self.coeffs = tuple(float(c) for c in coeffs)
        self.markov = markov

    def with_markov(self, c, d):
        return WeightDef(self.a, self.b, self.family, self.alpha, self.beta,
                         self.coeffs, markov=(float(c), float(d)))

    def smooth(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        if self.family == "exp_poly":
            out = np.exp(-np.polynomial.polynomial.polyval(x, self.coeffs))
        if self.markov is not None:
            c, d = self.markov
            # sign * integral_c^d dy / (x - y), positive on [a, b]
            out = out * np.abs(np.log(np.abs(x - c)) - np.log(np.abs(x - d)))
        return out

    def values(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            jac = np.power(self.b - x, self.alpha) * np.power(x - self.a, self.beta)
        return np.where((x >= self.a) & (x <= self.b), jac * self.smooth(x), 0.0)

    def rule(self, m):
        """Nodes and weights integrating f(x) w(x) dx as sum(wq * f(nodes))."""
        x, w = rule_on(self.a, self.b, m, self.alpha, self.beta)
        return x, w * self.smooth(x)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def horner_ld(coeffs, x):
    """Ascending-coefficient polynomial evaluated in 80-bit Horner form."""
    xl = np.asarray(x, dtype=LD)
    acc = np.zeros_like(xl)
    for c in np.asarray(coeffs, dtype=float)[::-1]:
        acc = acc * xl + LD(c)
    return acc


EPS = float(np.finfo(float).eps)
#: a residual within this many units of its rounding floor counts as exact
FLOOR_UNITS = 100.0


def type2_scaled_residuals(coeffs, nparts, wdefs, m=80):
    """Orthogonality residuals of the type II polynomial P with coefficients
    ``coeffs``: r = |int P x^k w_j| / int |P x^k| w_j for k < n_j.

    Returns (max r, max r / floor), where floor = eps * sum_i |c_i| int
    |x|^(i+k) w_j / int |P x^k| w_j is what rounding the coefficients to
    float64 alone can cause.  A correct polynomial has a ratio of order 1.
    """
    worst = ratio = 0.0
    c = np.abs(np.asarray(coeffs, dtype=LD))
    for nj, wd in zip(nparts, wdefs):
        x, wq = wd.rule(m)
        p = horner_ld(coeffs, x)
        xl = np.asarray(x, dtype=LD)
        wl = np.asarray(wq, dtype=LD)
        bound = horner_ld(c, np.abs(xl))  # sum_i |c_i| |x|^i
        for k in range(nj):
            f = p * xl ** k * wl
            scale = np.abs(f).sum()
            r = float(abs(f.sum()) / scale)
            floor = EPS * float((bound * np.abs(xl) ** k * np.abs(wl)).sum() / scale)
            worst, ratio = max(worst, r), max(ratio, r / floor)
    return worst, ratio


def root_errors(roots, reference, coeffs, floor=1e-11):
    """max |root - reference| / tolerance; at most 1 for correct roots.

    Each root's tolerance is ``floor`` or FLOOR_UNITS times its float64
    condition eps * sum |c_i| |r|^i / |P'(r)|, whichever is larger.
    """
    r = np.asarray(reference, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    dp = horner_ld(c[1:] * np.arange(1, c.size), r)
    cond = (EPS * horner_ld(np.abs(c), np.abs(r)) / np.abs(dp)).astype(float)
    return float(np.max(np.abs(np.asarray(roots) - r) / np.maximum(floor, FLOOR_UNITS * cond)))


def type1_scaled_residuals(q_over_w, n, wdefs, m=80):
    """Residuals of int x^k Q = delta_{k, n-1}, each scaled by int |x^k Q|.

    ``q_over_w(j, x)`` returns Q(x) / w_j(x) on the support of w_j, where
    the rule of ``wdefs[j]`` integrates against w_j.  For a Nikishin system
    pass a single definition (the first weight) and Q / w_1.
    """
    num = np.zeros(n)
    den = np.zeros(n)
    for j, wd in enumerate(wdefs):
        x, wq = wd.rule(m)
        q = np.asarray(q_over_w(j, x), dtype=float)
        for k in range(n):
            f = wq * x ** k * q
            num[k] += f.sum()
            den[k] += np.abs(f).sum()
    num[n - 1] -= 1.0
    return float(np.max(np.abs(num) / den))


def direct_kernel(parts, defs, xs, ys, m=40):
    """K(x, y) = f(x)^T M^-1 g(y) with M[r, c] = int x^r g_c from this module's rules.

    f is the monomial basis, g the basis x^i w_j(x) (i < n_j) in the order
    of the multi-index ``parts``.
    """
    n = sum(parts)
    cols = []
    for nj, wd in zip(parts, defs):
        x, wq = wd.rule(m)
        cols += [[np.sum(wq * x ** (r + i)) for r in range(n)] for i in range(nj)]
    G = np.asarray([ys ** i * wd.values(ys) for nj, wd in zip(parts, defs) for i in range(nj)])
    F = np.vander(xs, n, increasing=True).T
    return np.einsum("im,im->m", np.linalg.solve(np.asarray(cols).T, F), G)


def count_in(roots, a, b, tol=1e-12):
    r = np.asarray(roots)
    return int(np.sum((r >= a - tol) & (r <= b + tol)))


# ---------------------------------------------------------------------------
# Effective sample size
# ---------------------------------------------------------------------------

def ess_chains(series):
    """ESS of a (chains, draws) series: split-free rank-free Geyer estimate.

    Autocovariances are averaged over chains (FFT), combined with the
    between-chain variance, and summed in positive, monotone pairs.
    """
    s = np.asarray(series, dtype=float)
    chains, draws = s.shape
    if draws < 4:
        return float(chains * draws)
    means = s.mean(axis=1)
    centered = s - means[:, None]
    nfft = 1 << (2 * draws - 1).bit_length()
    spec = np.fft.rfft(centered, nfft, axis=1)
    acov = np.fft.irfft(spec * np.conj(spec), nfft, axis=1)[:, :draws] / draws
    within = acov[:, 0].mean() * draws / (draws - 1.0)
    between = means.var(ddof=1) if chains > 1 else 0.0
    var_plus = within * (draws - 1.0) / draws + between
    if var_plus <= 0.0:
        return float(chains * draws)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    tau = -1.0
    prev = math.inf
    for t in range(0, draws - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev)
        tau += 2.0 * pair
        prev = pair
    total = chains * draws
    return float(min(total / max(tau, 1e-12), total * math.log10(total)))


def chain_view(values, chains):
    """Reshape chain-major sampler output (N, ...) into (chains', draws, ...).

    ``sample_mcmc`` stores each chain's kept states contiguously; the last
    chain may be truncated, so only complete chains are kept.
    """
    v = np.asarray(values)
    n = v.shape[0]
    per = -(-n // chains)
    full = n // per
    return v[: full * per].reshape((full, per) + v.shape[1:])


def batch_ess(configs, chains):
    """min ESS over the power sums sum_k x_k and sum_k x_k^2."""
    x = chain_view(configs, chains)
    return min(ess_chains(x.sum(axis=2)), ess_chains((x * x).sum(axis=2)))


def ess_of_values(values, chains):
    """ESS of a real or complex per-configuration statistic (min of parts)."""
    v = chain_view(values, chains)
    if np.iscomplexobj(v):
        parts = [p for p in (v.real, v.imag) if np.ptp(p) > 0]
        return min(ess_chains(p) for p in parts)
    return ess_chains(v)


def mc_deviation(values, chains, target):
    """|mean - target| / stderr, with the stderr from this module's ESS."""
    v = np.asarray(values)
    if np.iscomplexobj(v):
        var = v.real.var(ddof=1) + v.imag.var(ddof=1)
    else:
        var = v.var(ddof=1)
    ess = ess_of_values(v, chains)
    stderr = math.sqrt(var / ess)
    return abs(v.mean() - target) / stderr, v.mean(), stderr


# ---------------------------------------------------------------------------
# Equilibrium references
# ---------------------------------------------------------------------------

def arcsine_cdf(x):
    return 0.5 + np.arcsin(np.clip(x, -1.0, 1.0)) / np.pi

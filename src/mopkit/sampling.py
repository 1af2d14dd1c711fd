"""Metropolis sampling of MOP ensembles.

Random-walk Metropolis over configurations, vectorized across many
independent chains.  Log densities are evaluated incrementally per
coordinate with sign-free log-absolute terms, which survives the hundreds of
orders of magnitude spanned by squared Vandermonde factors.  On the factored
and extended Nikishin targets a move tests a constant weight's support instead
of evaluating it (0 inside, -inf outside) and sums the Vandermonde change in
one matvec with the coupling row.

Three targets are supported:

* factored block form for Angelesco systems (and the p = 1 OP case), with
  the block assignment of coordinates to intervals held fixed,
* the extended (X, Y) density for Nikishin systems with two weights,
* the generic |det f * det g| via batched slogdet for other systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import f_matrix, g_matrix, sign_constancy_check
from .exceptions import NumericError, ValidationError
from .mop import as_multi_index
from .weights import WeightSystem


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the Metropolis sampler; same seed means identical stream."""

    samples: int = 100_000
    chains: int = 128
    burn_in: int = 10_000
    thinning: int = 10
    step_scale: float = 0.1
    step_sizes: tuple | None = None  # per-coordinate override
    seed: int = 0

    def __post_init__(self):
        for name in ("samples", "chains", "burn_in", "thinning"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        # a NaN, infinite or zero step freezes the chain at its start
        if not (np.isfinite(self.step_scale) and self.step_scale > 0):
            raise ValidationError("step_scale must be finite and positive")
        if self.step_sizes is not None and not all(
                np.isfinite(s) and s != 0 for s in self.step_sizes):
            raise ValidationError("step_sizes must be finite and nonzero")


@dataclass
class SampleBatch:
    """Kept configurations plus sampler diagnostics.

    ``configurations`` holds the ensemble points (N, n); for extended
    Nikishin runs ``extended`` holds the auxiliary block (N, n_2).
    ``step_sizes`` are the per-coordinate proposal scales frozen after burn-in.
    """

    configurations: np.ndarray
    extended: np.ndarray | None
    acceptance_rate: float
    ess: float
    seed: int
    kind: str
    step_sizes: tuple | None = None


class _Target:
    """Coordinate layout plus incremental log-density pieces."""

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
            self.intervals = []
            self.coord_weight = []
            block = np.empty(self.n, dtype=int)
            pos = 0
            for j, nj in enumerate(nvec.parts):
                for _ in range(nj):
                    self.intervals.append(ws.intervals[j])
                    self.coord_weight.append(ws.weights[j])
                    block[pos] = j
                    pos += 1
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
        C = state.shape[0]
        if self.kind == "general":
            X = state
            G = np.transpose(
                g_matrix(self.ws, self.nvec, X.ravel()).reshape(self.n, C, self.n),
                (1, 0, 2),
            )
            sg, lg = np.linalg.slogdet(G)
            F = np.transpose(
                f_matrix(self.n, X.ravel()).reshape(self.n, C, self.n), (1, 0, 2)
            )
            sf, lf = np.linalg.slogdet(F)
            out = np.where(sg * sf == 0, -np.inf, lg + lf)
            return out
        logp = np.zeros(C)
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


def _ess_estimate(series):
    """Effective sample size of a (kept, chains) statistic, Geyer-truncated."""
    kept, chains = series.shape
    total = kept * chains
    if kept < 8:
        return float(total)
    s = series - series.mean(axis=0, keepdims=True)
    var = np.mean(s * s)
    if var <= 0:
        return float(total)
    tau = 1.0
    for lag in range(1, min(kept // 3, 256)):
        rho = np.mean(s[:-lag] * s[lag:]) / var
        if rho <= 0.0:
            break
        tau += 2.0 * rho
    return float(np.clip(total / tau, 1.0, total))


def _sweep(target, state, logp, sigma, rng, accepts):
    """One Metropolis pass over the coordinates, updating ``state`` and the
    per-coordinate accept counts in place, and on the general target its log
    density ``logp``."""
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
            dlog = target.move(state, idx, prop)
        ok = np.log(rng.random(C)) < dlog
        np.copyto(state[:, idx], prop, where=ok)
        if general:
            np.copyto(logp, new, where=ok)
        accepts[idx] += np.count_nonzero(ok)


def sample_mcmc(ws: WeightSystem, nvec, cfg: SamplerConfig) -> SampleBatch:
    """Metropolis sample of the MOP ensemble density.

    Per-coordinate Gaussian proposals with scales 0.1 x interval length,
    retuned during burn-in toward 25-40% acceptance and frozen afterwards.
    Angelesco targets keep the block assignment fixed; Nikishin p=2 samples
    the extended (X, Y) space and returns the Y block separately.  Their moves
    update the log density incrementally (``_Target.move``); the full log
    density serves the general target, the starting state and a probe of the
    kept draws.
    """
    nvec = as_multi_index(nvec)
    target = _Target(ws, nvec)
    if target.kind == "general":
        report = sign_constancy_check(ws, nvec, trials=200, seed=cfg.seed + 1)
        if report.violations or report.nonzero == 0:
            raise ValidationError(
                "sign condition violated or degenerate: not a MOP ensemble"
            )
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    C = cfg.chains
    nc = target.ncoord

    state = np.empty((C, nc))
    for i in range(nc):
        iv = target.intervals[i]
        state[:, i] = iv.a + iv.length * rng.random(C)
    logp = target.log_density(state)
    for _ in range(100):
        bad = ~np.isfinite(logp)
        if not bad.any():
            break
        for i in range(nc):
            iv = target.intervals[i]
            state[bad, i] = iv.a + iv.length * rng.random(int(bad.sum()))
        logp = target.log_density(state)
    else:
        raise NumericError("could not find a positive-density starting state")

    if cfg.step_sizes is not None:
        if len(cfg.step_sizes) != nc:
            raise ValidationError(f"need {nc} step sizes")
        sigma = np.asarray(cfg.step_sizes, dtype=float)
    else:
        sigma = np.asarray([cfg.step_scale * iv.length for iv in target.intervals])

    accepts = np.zeros(nc, dtype=np.int64)
    kept_per_chain = -(-cfg.samples // C)  # ceil
    kept = np.empty((kept_per_chain, C, nc))
    with np.errstate(divide="ignore", invalid="ignore"):
        # burn-in with periodic step retuning
        for sweep_i in range(cfg.burn_in):
            _sweep(target, state, logp, sigma, rng, accepts)
            if (sweep_i + 1) % 250 == 0:
                rate = accepts / (250 * C)
                sigma = np.where(rate > 0.40, sigma * 1.35, sigma)
                sigma = np.where(rate < 0.25, sigma * 0.70, sigma)
                accepts[:] = 0
        accepts[:] = 0
        for k in range(kept_per_chain):
            for _ in range(cfg.thinning):
                _sweep(target, state, logp, sigma, rng, accepts)
            kept[k] = state
    rate = float(accepts.sum() / (nc * C * cfg.thinning * kept_per_chain))

    stat = kept[:, :, : target.n].sum(axis=2)
    ess = _ess_estimate(stat)
    flat = kept.transpose(1, 0, 2).reshape(C * kept_per_chain, nc)[: cfg.samples]
    configs = flat[:, : target.n]
    extended = flat[:, target.n :] if target.n_ext else None

    # spot-check the stored-positive-density invariant
    probe = flat[:: max(1, flat.shape[0] // 64)]
    if not np.all(np.isfinite(target.log_density(probe))):
        raise NumericError("sampler produced a zero-density configuration")

    return SampleBatch(configs, extended, rate, ess, cfg.seed, target.kind,
                       tuple(sigma.tolist()))

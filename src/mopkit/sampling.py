"""Metropolis sampling of MOP ensembles.

Random-walk Metropolis over configurations, vectorized across many
independent chains.  The target densities are those of ``ensemble._Target``,
the one implementation of each ensemble density form:

* factored block form for Angelesco systems (and the p = 1 OP case), with
  the block assignment of coordinates to intervals held fixed,
* the extended (X, Y) density for Nikishin systems with two weights,
* the generic |det f * det g| via batched slogdet for other systems.

This module only walks them.  A move on one coordinate draws its proposal
and log u, and ``_Target.accept`` answers with the accept mask: from the
incremental log-density change on the first two forms, from the full log
density on the general one.  The work arrays of the moves are allocated
once per ``sample_mcmc`` call; on the first two forms every step of a move
writes into them, so a move is a fixed, short list of numpy calls.  The
random stream is drawn in one order (per coordinate ``standard_normal(C)``
then ``random(C)``), so the same seed gives the same draws, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import _Target, sign_constancy_check
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
    seed: int = 0

    def __post_init__(self):
        for name in ("samples", "chains", "burn_in", "thinning"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        # a NaN, infinite or zero step freezes the chain at its start
        if not (np.isfinite(self.step_scale) and self.step_scale > 0):
            raise ValidationError("step_scale must be finite and positive")


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


def _sweep(target, state, logp, sigma, rng, accepts, work):
    """One Metropolis pass over the coordinates, updating ``state``, the
    per-coordinate accept counts and, on the general target, its log density
    ``logp`` in place.  Every step writes into the arrays of ``work``
    (``_Target.work_arrays``); per coordinate the stream gives
    ``standard_normal(C)`` for the proposal, then ``random(C)`` for log u."""
    prop, log_u = work.prop, work.log_u
    for idx in range(target.ncoord):
        rng.standard_normal(out=prop)
        np.multiply(sigma[idx], prop, out=prop)
        np.add(state[:, idx], prop, out=prop)
        rng.random(out=log_u)
        np.log(log_u, out=log_u)
        ok = target.accept(state, idx, prop, log_u, logp, work)
        np.copyto(state[:, idx], prop, where=ok)
        accepts[idx] += np.count_nonzero(ok)


def sample_mcmc(ws: WeightSystem, nvec, cfg: SamplerConfig) -> SampleBatch:
    """Metropolis sample of the MOP ensemble density.

    Per-coordinate Gaussian proposals with scales 0.1 x interval length,
    retuned during burn-in toward 25-40% acceptance and frozen afterwards.
    Angelesco targets keep the block assignment fixed; Nikishin p=2 samples
    the extended (X, Y) space and returns the Y block separately.  Their moves
    update the log density incrementally (``_Target.accept``); the full log
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

    sigma = np.asarray([cfg.step_scale * iv.length for iv in target.intervals])

    accepts = np.zeros(nc, dtype=np.int64)
    work = target.work_arrays(C)
    kept_per_chain = -(-cfg.samples // C)  # ceil
    kept = np.empty((kept_per_chain, C, nc))
    with np.errstate(divide="ignore", invalid="ignore"):
        # burn-in with periodic step retuning
        for sweep_i in range(cfg.burn_in):
            _sweep(target, state, logp, sigma, rng, accepts, work)
            if (sweep_i + 1) % 250 == 0:
                rate = accepts / (250 * C)
                sigma = np.where(rate > 0.40, sigma * 1.35, sigma)
                sigma = np.where(rate < 0.25, sigma * 0.70, sigma)
                accepts[:] = 0
        accepts[:] = 0
        for k in range(kept_per_chain):
            for _ in range(cfg.thinning):
                _sweep(target, state, logp, sigma, rng, accepts, work)
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

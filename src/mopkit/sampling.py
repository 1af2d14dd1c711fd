"""Metropolis sampling of MOP ensembles.

Random-walk Metropolis over configurations, vectorized across many
independent chains.  The target densities are those of ``ensemble._Target``,
the one implementation of each ensemble density form:

* factored block form for Angelesco systems (and the p = 1 OP case), with
  the block assignment of coordinates to intervals held fixed,
* the extended (X, Y) density for Nikishin systems with two weights,
* the generic |det f * det g| via batched slogdet for other systems.

This module only walks them.  A move on one coordinate draws its proposal
and log u and accepts where log u is below the change in log density: the
incremental change on the first two forms, the full log density's on the
general one.  Everything the moves touch (buffers, column views, coupling
rows, weights or constant supports, the general form's bound log density) is
bound once per ``sample_mcmc`` call by ``_work``, and ``_sweep`` runs the
moves of each form as one loop of numpy calls that write into those buffers,
with no per-move dispatch.  The random stream is drawn in one order (per
coordinate ``standard_normal(C)`` then ``random(C)``), so the same seed gives
the same draws, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .ensemble import _det_form, _Target, sign_constancy_check
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


def _work(target, state):
    """Everything the moves of one sampler run touch, bound once to ``state``
    (C, ncoord): the buffers of the proposal, log u, the change and the accept
    mask, and per coordinate the column view and what its move reads.  On the
    general target that is the candidate stack, its column and its bound log
    density (``ensemble._det_form``); on the others the column as a (C, 1)
    view, its column of the log-distance buffer ``near``, its coupling row, and
    the (a, b) support of a constant weight or else the weight itself."""
    C, nc = state.shape
    work = SimpleNamespace(prop=np.empty(C), log_u=np.empty(C), change=np.empty(C),
                           ok=np.empty(C, dtype=bool))
    if target.kind == "general":
        work.cand = np.empty_like(state)
        work.log_density = _det_form(target.ws, target.nvec, work.cand)
        work.moves = [(state[:, i], work.cand[:, i]) for i in range(nc)]
        return work
    work.near, work.far = np.empty((C, nc)), np.empty((C, nc))
    work.prop_col, work.inside = work.prop[:, None], np.empty(C, dtype=bool)
    work.stack = np.empty((2, C))  # a weight's proposal and current values, one call
    work.moves = [(state[:, i], state[:, i, None], work.near[:, i], target.mult[i],
                   None if iv is None else (iv.a, iv.b), w)
                  for i, (iv, w) in enumerate(zip(target.constant_support, target.coord_weight))]
    return work


def _sweep(target, state, logp, sigma, rng, accepts, work):
    """One Metropolis pass over the coordinates, updating ``state``, the
    per-coordinate accept counts and, on the general target, its log density
    ``logp`` in place.  ``work`` (``_work``) holds everything a move touches,
    bound once per run, and each target kind runs its moves as one loop with
    every step writing into those arrays.  Per coordinate the stream gives
    ``standard_normal(C)`` for the proposal, then ``random(C)`` for log u, and
    the move is accepted where log u < the change in log density (-inf and NaN
    changes reject).  On the general form the change is the candidate's full
    log density minus ``logp``, which takes the candidate's value where the
    move is accepted.  On the factored and Nikishin forms it is the matvec of
    the two log-distance rows' difference with the coupling row, plus the
    change of the weight's log values from one call on the stack of proposal
    and current column; a constant weight's support test is ANDed into the
    mask instead."""
    normal, uniform = rng.standard_normal, rng.random
    # numpy's functions as locals too: a move is about twenty calls on them
    add, sub, mul, log, absolute, less, less_equal, copyto, count = (
        np.add, np.subtract, np.multiply, np.log, np.abs, np.less, np.less_equal, np.copyto,
        np.count_nonzero)
    prop, log_u, change, ok = work.prop, work.log_u, work.change, work.ok
    if target.kind == "general":
        cand, log_density = work.cand, work.log_density
        for idx, ((col, cand_col), step) in enumerate(zip(work.moves, sigma)):
            normal(out=prop)
            mul(step, prop, out=prop)
            add(col, prop, out=prop)
            uniform(out=log_u)
            log(log_u, out=log_u)
            copyto(cand, state)
            copyto(cand_col, prop)
            new = log_density()
            less(log_u, sub(new, logp, out=change), out=ok)
            copyto(logp, new, where=ok)
            copyto(col, prop, where=ok)
            accepts[idx] += count(ok)
        return
    near, far, prop_col, inside, stack = work.near, work.far, work.prop_col, work.inside, work.stack
    matmul, (head, tail) = np.matmul, stack
    for idx, ((col, col_2d, near_col, mult, support, w), step) in enumerate(
            zip(work.moves, sigma)):
        normal(out=prop)
        mul(step, prop, out=prop)
        add(col, prop, out=prop)
        uniform(out=log_u)
        log(log_u, out=log_u)
        sub(prop_col, state, out=near)
        absolute(near, out=near)
        log(near, out=near)
        sub(col_2d, state, out=far)
        absolute(far, out=far)
        log(far, out=far)
        sub(near, far, out=near)
        near_col.fill(0.0)
        matmul(near, mult, out=change)
        if support is None:
            copyto(head, prop)
            copyto(tail, col)
            dlog = w.log_values(stack)
            add(sub(dlog[0], dlog[1], out=dlog[0]), change, out=change)
            less(log_u, change, out=ok)
        else:
            less(log_u, change, out=ok)
            ok &= less_equal(support[0], prop, out=inside)
            ok &= less_equal(prop, support[1], out=inside)
        copyto(col, prop, where=ok)
        accepts[idx] += count(ok)


def sample_mcmc(ws: WeightSystem, nvec, cfg: SamplerConfig) -> SampleBatch:
    """Metropolis sample of the MOP ensemble density.

    Per-coordinate Gaussian proposals with scales 0.1 x interval length,
    retuned during burn-in toward 25-40% acceptance and frozen afterwards.
    Angelesco targets keep the block assignment fixed; Nikishin p=2 samples
    the extended (X, Y) space and returns the Y block separately.  Their moves
    update the log density incrementally (``_sweep``); the full log density
    serves the general target, the starting state and a probe of the kept
    draws.  Divide and invalid floating-point errors are ignored around every
    sweep, so the general form's moves evaluate its log density without an
    errstate of their own.
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
    work = _work(target, state)
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

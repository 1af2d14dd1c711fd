"""Workload ``ensemble``: the sampled MOP ensemble and its kernels.

Each round draws Metropolis samples for the factored (Legendre, Angelesco),
extended-Nikishin and general targets, forms Monte Carlo estimates of both
expectation identities, and builds two biorthogonal kernels: Angelesco
(4, 4) on the float path and Nikishin (4, 4) on the mpmath path.  Sampler
seeds change every round; kernel evaluation points are fixed for the run.
"""

from __future__ import annotations

import numpy as np

import mopkit as mk
import oracles

C, E = mk.WeightSpec.constant, mk.WeightSpec.exp_poly

CHAINS = 64
BURN_IN = 1000
THINNING = 5
#: name -> (sampler kind, multi-index, samples, z points for E[prod(z - x)],
#: z points for E[prod(z - x)^-1])
TARGETS = {
    "legendre": ("factored", (3,), 12_800, (2.0, -2.0, 2.0j, 1.0 + 1.0j), (2.0j, 1.0 + 1.0j)),
    "angelesco": ("factored", (2, 2), 12_800, (2.0, -2.0, 2.0j, 1.0 + 1.0j),
                  (2.0j, 1.0 + 1.0j)),
    "nikishin": ("nikishin", (2, 2), 12_800, (3.0, 4.0, -1.0, 3.0 + 1.0j),
                 (1.5 + 1.0j, 3.0 + 1.0j)),
    "general": ("general", (1, 1), 6_400, (2.0, -2.0, 2.0j, 1.0 + 1.0j), (2.0j, 1.0 + 1.0j)),
}
FLOAT_POINTS = 200_000
MP_POINTS = 1_000
KERNEL_INDEX = (4, 4)

MC_MULTIPLE = 6.0     # allowed |mean - target| in units of the benchmark's stderr
KERNEL_TOL = 1e-9     # trace, reproducing property and direct evaluation
ESTIMATOR_RTOL = 1e-12


def systems():
    return {
        "legendre": mk.build_angelesco([C(-1.0, 1.0)]),
        "angelesco": mk.build_angelesco([C(-1.0, 0.0), C(0.0, 1.0)]),
        "nikishin": mk.build_nikishin(C(1.0, 2.0), [C(-1.0, 0.0)]),
        "general": mk.WeightSystem.general([mk.Weight.from_spec(C(-1.0, 1.0)),
                                            mk.Weight.from_spec(E(-1.0, 1.0, (0.0, 1.0)))]),
    }


#: independent weight definitions on the supports, per target
WEIGHT_DEFS = {
    "legendre": [oracles.WeightDef(-1.0, 1.0)],
    "angelesco": [oracles.WeightDef(-1.0, 0.0), oracles.WeightDef(0.0, 1.0)],
    "nikishin": [oracles.WeightDef(1.0, 2.0), oracles.WeightDef(1.0, 2.0).with_markov(-1.0, 0.0)],
    "general": [oracles.WeightDef(-1.0, 1.0), oracles.WeightDef(-1.0, 1.0, "exp_poly",
                                                                coeffs=(0.0, 1.0))],
}
#: segments carrying the linear form Q (and the kernel's y-dependence)
SEGMENTS = {"legendre": [(-1.0, 1.0)], "angelesco": [(-1.0, 0.0), (0.0, 1.0)],
            "nikishin": [(1.0, 2.0)], "general": [(-1.0, 1.0)]}


def setup(seed):
    return systems()


class Ensemble:
    def __init__(self, seed):
        self.seed = seed
        self.ws = systems()
        rng = np.random.default_rng([seed, 7002])
        self.float_xy = rng.uniform(-1.0, 1.0, (2, FLOAT_POINTS))
        self.mp_xy = rng.uniform(1.0, 2.0, (2, MP_POINTS))
        self.reference = None
        self.rounds = 0

    # -- one round ---------------------------------------------------------

    def round(self, sess):
        seeds = np.random.SeedSequence([self.seed, self.rounds]).generate_state(len(TARGETS))
        self.rounds += 1
        for (name, spec), s in zip(TARGETS.items(), seeds):
            self.sample_target(sess, name, spec, int(s))
        kernels = self.kernels(sess)
        if self.reference is None:
            self.reference = kernels
            self.check_kernels(sess, kernels)
        else:
            same = all(np.array_equal(a[1], b[1]) for a, b in zip(kernels, self.reference))
            sess.check(same, "ensemble: kernel values differ from the first round")

    def sample_target(self, sess, name, spec, seed):
        kind, nvec, samples, zs, zinv = spec
        ws = self.ws[name]
        cfg = mk.SamplerConfig(samples=samples, chains=CHAINS, burn_in=BURN_IN,
                               thinning=THINNING, seed=seed)
        batch = sess.call(f"sampling.{kind}.s", mk.sample_mcmc, ws, nvec, cfg)
        mt = sess.call("weights.moment_table_s", mk.moment_table, ws, 2 * sum(nvec))
        if mt is None or batch is None:
            return
        sess.count("weights.moment_entries", mt.raw.size)
        P = sess.call("mop.type2_s", mk.type2_mop, mt, nvec)
        ts = sess.call("mop.type1_s", mk.type1_mop, mt, nvec)
        if P is not None:
            sess.count("mop.type2_exact" if P.method == "exact" else "mop.type2_float")
        if ts is not None and ts.hp_coeffs is not None:
            sess.count("mop.type1_mp")
            sess.maximum("highprec.dps_max", ts.hp_dps)
        sess.check(batch.kind == kind, f"{name}: sampler took the {batch.kind} path")
        ess = oracles.batch_ess(batch.configurations, CHAINS)
        sess.count(f"sampling.{kind}.ess", ess)
        sess.count("sampling.draws", batch.configurations.shape[0])
        sess.count("sampling.accepted_draws", batch.acceptance_rate * batch.configurations.shape[0])
        X = batch.configurations
        for z in zs:
            est = sess.call("ensemble.estimators_s", mk.mc_char_poly, batch, z)
            if est is None or P is None:
                continue
            vals = np.prod(z - X, axis=1)
            self.check_mc(sess, f"{name} E[prod(z-x)] z={z}", est, vals,
                          np.polyval(P.coeffs[::-1], z))
        for z in zinv:
            est = sess.call("ensemble.estimators_s", mk.mc_inverse_char_poly, batch, z)
            if est is None or ts is None:
                continue
            target = sum(np.sum(wq * ts.q_values(x) / (z - x))
                         for x, wq in (oracles.rule_on(lo, hi, 80) for lo, hi in SEGMENTS[name]))
            self.check_mc(sess, f"{name} E[prod(z-x)^-1] z={z}", est,
                          1.0 / np.prod(z - X, axis=1), target)
        if self.reference is None and P is not None:
            r2, units = oracles.type2_scaled_residuals(P.coeffs, nvec, WEIGHT_DEFS[name])
            sess.maximum("mop.residual_max", r2)
            sess.check(units <= oracles.FLOOR_UNITS,
                       f"ensemble {name}: type II residual {r2:.2e} is {units:.1f} floors")

    def check_mc(self, sess, tag, est, vals, target):
        mine = vals.mean()
        sess.check(abs(est.value - mine) <= ESTIMATOR_RTOL * max(1.0, abs(mine)),
                   f"{tag}: estimator mean {est.value} vs {mine}")
        dev, _, stderr = oracles.mc_deviation(vals, CHAINS, target)
        sess.maximum("sampling.dev_max", dev)
        sess.check(dev <= MC_MULTIPLE, f"{tag}: |mean - target| = {dev:.2f} stderr "
                                       f"(stderr {stderr:.3e})")

    def kernels(self, sess):
        out = []
        for name, xy, tag in (("angelesco", self.float_xy, "float"),
                              ("nikishin", self.mp_xy, "mp")):
            ws = self.ws[name]
            mt = sess.call("weights.moment_table_s", mk.moment_table, ws, 2 * sum(KERNEL_INDEX))
            if mt is None:
                continue
            sess.count("weights.moment_entries", mt.raw.size)
            M = sess.call("ensemble.biorthogonalize_s", mk.block_hankel, mt, KERNEL_INDEX)
            K = sess.call("ensemble.biorthogonalize_s", mk.biorthogonalize, M, ws, KERNEL_INDEX)
            if K is None:
                continue
            if K.mp is not None:
                sess.maximum("highprec.dps_max", K.mp.dps)
            vals = sess.call(f"ensemble.kernel_{tag}_s", mk.kernel_eval, K, xy[0], xy[1])
            sess.count(f"ensemble.kernel_{tag}_points", xy.shape[1])
            trace = sess.call("ensemble.kernel_trace_s", mk.kernel_trace, K)
            out.append((name, vals, trace, K, tag))
        return out

    def check_kernels(self, sess, kernels):
        n = sum(KERNEL_INDEX)
        for name, vals, trace, K, tag in kernels:
            label = f"kernel {name} ({tag})"
            sess.check((K.mp is not None) == (tag == "mp"), f"{label}: wrong precision path")
            sess.check(trace is not None and abs(trace - n) <= 1e-8,
                       f"{label}: kernel_trace {trace} != {n}")
            nodes = [oracles.rule_on(lo, hi, 60) for lo, hi in SEGMENTS[name]]
            own = sum(np.sum(wq * mk.kernel_eval(K, x, x)) for x, wq in nodes)
            sess.check(abs(own - n) <= KERNEL_TOL, f"{label}: Gauss trace {own} != {n}")
            hull = (-1.0, 1.0) if name == "angelesco" else (1.0, 2.0)
            pairs = np.linspace(hull[0] + 0.1, hull[1] - 0.1, 6).reshape(3, 2)
            for x, z in pairs:
                rep = sum(np.sum(wq * mk.kernel_eval(K, np.full_like(y, x), y)
                                 * mk.kernel_eval(K, y, np.full_like(y, z)))
                          for y, wq in nodes)
                direct = mk.kernel_eval(K, x, z)
                sess.check(abs(rep - direct) <= KERNEL_TOL * max(1.0, abs(direct)),
                           f"{label}: reproducing property {rep} vs {direct} at ({x}, {z})")
            if tag == "float":
                err = direct_kernel_error(name, vals, self.float_xy)
                sess.check(err <= KERNEL_TOL, f"{label}: differs from f^T M^-1 g by {err:.2e}")


def direct_kernel_error(name, vals, xy, points=2000):
    """max |K - f^T M^-1 g| over the first ``points`` evaluation points."""
    x, y = xy[:, :points]
    direct = oracles.direct_kernel(KERNEL_INDEX, WEIGHT_DEFS[name], x, y)
    return float(np.max(np.abs(direct - vals[:points])))

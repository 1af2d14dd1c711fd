"""Traced runs only: rebind mopkit functions to time and count their calls.

``install`` replaces module attributes, so it reaches every caller that
looks the function up through its module at call time.  Layers reached
only through another layer (quadrature, linalg, highprec) are always
wrapped; with ``public=True`` the functions ``mopkit.cli`` calls are
wrapped too, for CLI subprocesses started through ``traced_cli.py``.
Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import time

import numpy as np

import oracles


def _wrap(module, name, sink, keys=(), after=None):
    orig = getattr(module, name)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = orig(*args, **kwargs)
        dt = time.perf_counter() - t0
        d = sink()
        for k in keys:
            d[k] += dt
        if after is not None:
            after(d, dt, out, args)
        return out

    setattr(module, name, wrapper)


def _maximum(d, key, value):
    d[key] = max(d.get(key, value), value)


def install(sink, public=False):
    """Wrap mopkit functions; ``sink()`` returns the mapping to add into."""
    from mopkit import ensemble, equilibrium, highprec, linalg, mop, quadrature, sampling, weights

    orig_quad = quadrature.adaptive_quad

    @functools.wraps(orig_quad)
    def adaptive_quad(f, a, b, **kwargs):
        d = sink()

        def counted(x):
            d["quadrature.points"] += len(x)
            return f(x)

        t0 = time.perf_counter()
        try:
            return orig_quad(counted, a, b, **kwargs)
        finally:
            d["quadrature.calls"] += 1
            d["quadrature.s"] += time.perf_counter() - t0

    quadrature.adaptive_quad = adaptive_quad
    def lu(d, dt, out, args):
        d["linalg.lu_calls"] += 1

    _wrap(linalg, "lu_factor", sink, after=lu)
    _wrap(linalg, "solve_fractions", sink, keys=("linalg.exact_solve_s",))
    _wrap(highprec, "moment_rows", sink, keys=("highprec.moment_rows_s",))
    if not public:
        return

    for name in ("build_angelesco", "build_nikishin"):
        _wrap(weights, name, sink, keys=("weights.build_s",))

    def table(d, dt, mt, args):
        d["weights.moment_entries"] += mt.raw.size

    _wrap(weights, "moment_table", sink, keys=("weights.moment_table_s",), after=table)

    def type2(d, dt, P, args):
        d["mop.type2_exact" if P.method == "exact" else "mop.type2_float"] += 1

    _wrap(mop, "type2_mop", sink, keys=("mop.type2_s",), after=type2)
    _wrap(mop, "poly_roots", sink, keys=("mop.roots_s",))

    def type1(d, dt, ts, args):
        if ts.hp_coeffs is not None:
            d["mop.type1_mp"] += 1
            _maximum(d, "highprec.dps_max", ts.hp_dps)

    _wrap(mop, "type1_mop", sink, keys=("mop.type1_s",), after=type1)

    def bio(d, dt, K, args):
        if K.mp is not None:
            _maximum(d, "highprec.dps_max", K.mp.dps)

    _wrap(ensemble, "biorthogonalize", sink, keys=("ensemble.biorthogonalize_s",),
          after=bio)

    def keval(d, dt, out, args):
        kind = "mp" if args[0].mp is not None else "float"
        d[f"ensemble.kernel_{kind}_s"] += dt
        d[f"ensemble.kernel_{kind}_points"] += np.size(out)

    _wrap(ensemble, "kernel_eval", sink, after=keval)
    _wrap(ensemble, "kernel_trace", sink, keys=("ensemble.kernel_trace_s",))
    for name in ("mc_char_poly", "mc_inverse_char_poly"):
        _wrap(ensemble, name, sink, keys=("ensemble.estimators_s",))

    def sampled(d, dt, batch, args):
        cfg = args[2]
        d[f"sampling.{batch.kind}.s"] += dt
        d[f"sampling.{batch.kind}.ess"] += oracles.batch_ess(batch.configurations,
                                                             cfg.chains)
        draws = batch.configurations.shape[0]
        d["sampling.draws"] += draws
        d["sampling.accepted_draws"] += batch.acceptance_rate * draws

    _wrap(sampling, "sample_mcmc", sink, after=sampled)

    def minimized(d, dt, out, args):
        report = out[1]
        d["equilibrium.iterations"] += report.iterations
        _maximum(d, "equilibrium.kkt_residual", report.kkt_residual)

    _wrap(equilibrium, "minimize_equilibrium", sink, keys=("equilibrium.minimize_s",),
          after=minimized)

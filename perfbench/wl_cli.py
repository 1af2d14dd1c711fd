"""Workload ``cli``: every valid command on the shipped configs, as a user runs it.

Each command is one ``python -m mopkit.cli`` subprocess, started one at a
time with single-threaded BLAS.  ``wall_s`` sums their wall times.  The
warm-up round runs ``validate`` on every config plus the cheap commands;
its output bodies must be byte-identical to the measured round's.  In a
traced run the subprocesses start through ``traced_cli.py`` instead, which
records per-layer figures into a file next to the outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"

MULTI = ("legendre", "angelesco11", "nikishin", "arcsine")
#: per-command flags on top of the config, keyed by (config, command)
FLAGS = {
    ("arcsine", "kernel"): ["--grid", "600"],
    ("arcsine", "sample"): ["--samples", "10000"],
    ("arcsine", "verify"): ["--samples", "10000"],
}
ROUND = ([(c, cmd) for c in MULTI for cmd in ("validate", "mop", "typeI", "kernel", "density",
                                              "sample", "verify", "equilibrium")]
         + [("angelesco_compare", cmd) for cmd in ("validate", "equilibrium", "compare")])
WARMUP = ([(c, "validate") for c in MULTI + ("angelesco_compare",)]
          + [(c, cmd) for c in MULTI for cmd in ("mop", "typeI", "density")]
          + [("legendre", "sample"), ("angelesco_compare", "compare")])

MC_MULTIPLE = 6.0
TOL = 1e-9


class Cli:
    def __init__(self, seed, root, env, trace):
        self.root = root
        self.env = env
        self.trace = trace
        self.sample_seed = int(np.random.SeedSequence([seed, 7003]).generate_state(1)[0] % 100000)
        self.rounds = 0
        self.peak_rss_mb = 0.0
        self.validate_s = []  # host-adjusted seconds
        shutil.rmtree(OUT, ignore_errors=True)

    def close(self):
        shutil.rmtree(OUT, ignore_errors=True)

    def round(self, sess):
        tag = f"r{self.rounds}"
        jobs = WARMUP if self.rounds == 0 else ROUND
        for cfg, cmd in jobs:
            self.run_one(sess, tag, cfg, cmd)
        self.check_outputs(sess, tag, jobs)
        if self.rounds > 0:
            for cfg, cmd in WARMUP:
                a, b = OUT / "r0" / f"{cfg}-{cmd}", OUT / tag / f"{cfg}-{cmd}"
                sess.check(_bodies(a) == _bodies(b),
                           f"cli {cfg} {cmd}: output bodies differ between repetitions")
            shutil.rmtree(OUT / tag)
        self.rounds += 1

    def argv(self, tag, cfg, cmd):
        out = OUT / tag / f"{cfg}-{cmd}"
        args = [cmd, str(self.root / "configs" / f"{cfg}.json"), "--out", str(out), "--quiet"]
        args += FLAGS.get((cfg, cmd), [])
        if cmd == "sample":
            args += ["--seed", str(self.sample_seed)]
        if self.trace:
            return [sys.executable, str(HERE / "traced_cli.py"), str(out / "trace.json")] + args
        return [sys.executable, "-m", "mopkit.cli"] + args

    def run_one(self, sess, tag, cfg, cmd):
        out = OUT / tag / f"{cfg}-{cmd}"
        out.mkdir(parents=True)
        with open(out.parent / f"{cfg}-{cmd}.log", "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.argv(tag, cfg, cmd), cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        failed = proc.returncode != 0
        adjusted = sess.add_op(dt, keys=(f"cli.{cmd}_s",), failed=failed)
        if failed:
            sess.failures.append(f"cli {cfg} {cmd}: exit code {proc.returncode}")
        if cmd == "validate" and adjusted is not None:
            self.validate_s.append(adjusted)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        sess.count("cli.bytes_written", sum(p.stat().st_size for p in out.iterdir()
                                            if p.name != "trace.json"))
        if self.trace and (out / "trace.json").exists():
            for k, v in json.loads((out / "trace.json").read_text()).items():
                if k.endswith(("_max", "kkt_residual")):
                    sess.maximum(k, v)
                else:
                    sess.count(k, v)

    # -- checks ------------------------------------------------------------

    def check_outputs(self, sess, tag, jobs):
        for cfg, cmd in jobs:
            out = OUT / tag / f"{cfg}-{cmd}"
            conf = json.loads((self.root / "configs" / f"{cfg}.json").read_text())
            label = f"cli {cfg} {cmd}"
            try:
                CHECKS[cmd](sess, label, cfg, conf, out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                sess.errors.append(f"{label}: unreadable output ({exc})")


def _bodies(d):
    return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())
            if p.name not in ("manifest.json", "trace.json")}


def _defs(conf):
    """Independent definitions of a config's weights (Nikishin: w_1 and w_1 times
    the Markov ratio of its constant generator)."""
    def one(e):
        p = e.get("params", {})
        return oracles.WeightDef(*e["interval"], e["family"], p.get("alpha", 0.0),
                                 p.get("beta", 0.0), p.get("coeffs", ()))

    base = [one(e) for e in conf["weights"]]
    if conf["kind"] == "nikishin":
        c, d = conf["generators"][0]["interval"]
        return [base[0], base[0].with_markov(c, d)]
    return base


def _direct_kernel(conf, xs, ys):
    return oracles.direct_kernel(conf["multi_index"], _defs(conf), xs, ys)


def _csv(path, max_rows=None):
    lines = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            lines.append(line)
            if max_rows is not None and len(lines) > max_rows:
                break
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def check_validate(sess, label, name, conf, out):
    log = (out.parent / f"{out.name}.log").read_text()
    sess.check(log == "", f"{label}: diagnostics for a shipped config: {log[:200]!r}")


def check_mop(sess, label, name, conf, out):
    rec = json.loads((out / "mop.json").read_text())
    parts = conf["multi_index"]
    defs = _defs(conf)
    roots = np.asarray(rec["roots"])
    sess.check(roots.size == sum(parts), f"{label}: {roots.size} of {sum(parts)} roots")
    if conf["kind"] == "nikishin":
        sess.check(oracles.count_in(roots, defs[0].a, defs[0].b) == roots.size,
                   f"{label}: roots outside Gamma_1")
    else:
        for nj, wd in zip(parts, defs):
            sess.check(oracles.count_in(roots, wd.a, wd.b) == nj,
                       f"{label}: wrong root count in [{wd.a}, {wd.b}]")
    r, units = oracles.type2_scaled_residuals(rec["coeffs"], parts, defs)
    sess.maximum("mop.residual_max", r)
    sess.check(units <= oracles.FLOOR_UNITS, f"{label}: type II residual {r:.2e} "
                                             f"is {units:.1f} rounding floors")


def check_typeI(sess, label, name, conf, out):
    rec = json.loads((out / "typeI.json").read_text())
    defs = _defs(conf)
    comps = rec["components"]
    n = sum(conf["multi_index"])
    if conf["kind"] == "nikishin":
        def q_over_w(j, x):
            return (oracles.horner_ld(comps[0], x) + oracles.horner_ld(comps[1], x)
                    * defs[1].smooth(x)).astype(float)
        r = oracles.type1_scaled_residuals(q_over_w, n, defs[:1])
    else:
        r = oracles.type1_scaled_residuals(
            lambda j, x: oracles.horner_ld(comps[j], x).astype(float), n, defs)
    sess.maximum("mop.residual_max", r)
    sess.check(r <= TOL, f"{label}: type I residual {r:.2e}")


def check_kernel(sess, label, name, conf, out):
    grid = int(FLAGS.get((name, "kernel"), ["--grid", conf.get("grid", 100)])[1])
    path = out / "kernel.csv"
    with open(path, "rb") as fh:
        rows = sum(1 for line in fh if not line.startswith(b"#")) - 1
    sess.check(rows == grid * grid, f"{label}: {rows} rows for a {grid}x{grid} grid")
    data = _csv(path, max_rows=3 * grid)
    err = np.max(np.abs(_direct_kernel(conf, data[:, 0], data[:, 1]) - data[:, 2]))
    sess.check(err <= TOL, f"{label}: kernel differs from f^T M^-1 g by {err:.2e}")


def check_density(sess, label, name, conf, out):
    data = _csv(out / "density.csv")
    n = sum(conf["multi_index"])
    err = np.max(np.abs(_direct_kernel(conf, data[:, 0], data[:, 0]) / n - data[:, 1]))
    sess.check(err <= TOL, f"{label}: density differs from K(x, x)/n by {err:.2e}")


def check_sample(sess, label, name, conf, out):
    data = _csv(out / "samples.csv")
    parts = conf["multi_index"]
    n = sum(parts)
    defs = _defs(conf)
    X = data[:, :n]
    chains = conf.get("sampler", {}).get("chains", 128)
    if conf["kind"] == "nikishin":
        inside = np.all((X >= defs[0].a) & (X <= defs[0].b))
        c, d = conf["generators"][0]["interval"]
        inside &= bool(np.all((data[:, n:] >= c) & (data[:, n:] <= d)))
    else:
        blocks = [wd for nj, wd in zip(parts, defs) for _ in range(nj)]
        inside = all(np.all((X[:, i] >= wd.a) & (X[:, i] <= wd.b)) for i, wd in enumerate(blocks))
    sess.check(bool(inside), f"{label}: points outside their supports")
    coeffs = json.loads((out.parent / f"{name}-mop" / "mop.json").read_text())["coeffs"]
    zs = (3.0, 4.0, 3.0 + 1.0j) if conf["kind"] == "nikishin" else (2.0, -2.0, 2.0j)
    for z in zs:
        dev, _, _ = oracles.mc_deviation(np.prod(z - X, axis=1), chains,
                                         np.polyval(coeffs[::-1], z))
        sess.maximum("sampling.dev_max", dev)
        sess.check(dev <= MC_MULTIPLE, f"{label}: E[prod(z-x)] off by {dev:.2f} stderr at {z}")


def check_verify(sess, label, name, conf, out):
    rec = json.loads((out / "verify.json").read_text())
    sess.check(rec["passed"] is True, f"{label}: verify reported failure")


def check_equilibrium(sess, label, name, conf, out):
    rec = json.loads((out / "equilibrium.json").read_text())
    sess.check(rec["converged"] is True, f"{label}: not converged")
    comps = [_csv(out / f"equilibrium_{j + 1}.csv") for j in range(len(rec["grid"]))]
    for data in comps:
        sess.check(bool(np.all(data[:, 1] >= 0.0)), f"{label}: negative masses")
    ivs = [tuple(e["interval"]) for e in conf["weights"]]
    if ivs == [(-1.0, 1.0)]:
        x, cdf = comps[0][:, 0], comps[0][:, 3]
        h = x[1] - x[0]
        err = float(np.max(np.abs(cdf - oracles.arcsine_cdf(x + 0.5 * h))))
        sess.check(err <= 1e-2, f"{label}: CDF differs from the arcsine law by {err:.3e}")
    if ivs == [(-1.0, 0.0), (0.0, 1.0)]:
        err = float(np.max(np.abs(comps[0][::-1, 1] - comps[1][:, 1])))
        sess.check(err <= 1e-9, f"{label}: components are not mirror images ({err:.2e})")


def check_compare(sess, label, name, conf, out):
    data = _csv(out / "compare.csv")
    for comp in np.unique(data[:, 1]):
        d = data[data[:, 1] == comp]
        d = d[np.argsort(d[:, 0])]
        sess.check(bool(np.all(np.diff(d[:, 2]) <= 0.0)),
                   f"{label}: distance grows with n for component {int(comp)}")


CHECKS = {"validate": check_validate, "mop": check_mop, "typeI": check_typeI,
          "kernel": check_kernel, "density": check_density, "sample": check_sample,
          "verify": check_verify, "equilibrium": check_equilibrium, "compare": check_compare}

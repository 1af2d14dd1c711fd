#!/usr/bin/env python3
"""mopkit benchmark.

    python3 perfbench/run.py --workload {zeros,ensemble,cli} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --selfcheck

Run from the root of a checkout; mopkit is imported from its ``src/``.  A run
measures set-up time in fresh processes, runs one warm-up round, then runs
whole rounds until S seconds have passed.  Human-readable lines go to
stderr; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  See README.md.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _v in THREAD_VARS:  # before numpy loads a BLAS in this process
    os.environ[_v] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("zeros", "ensemble", "cli")
SETUP_PROBES = 9

#: metric names and units, as declared in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
MAXIMA = ("mop.residual_max", "highprec.dps_max", "sampling.dev_max", "equilibrium.kkt_residual")
KINDS = ("factored", "nikishin", "general")


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
    return env


def measure_setup(workload, seed, env):
    """Median host-adjusted (import + build) and build time over fresh processes."""
    from harness import REF_NOMINAL_S, ref_loop

    totals, builds = [], []
    for _ in range(SETUP_PROBES):
        before = ref_loop()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        factor = 2.0 * REF_NOMINAL_S / (before + ref_loop())
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        totals.append((rec["import_s"] + rec["build_s"]) * factor)
        builds.append(rec["build_s"] * factor)
    return statistics.median(totals), statistics.median(builds)


def per_layer(sess, build_s):
    rounds = sess.measured
    out = {}
    for name in PER_LAYER:
        if name in MAXIMA:
            out[name] = max((r.layer.get(name, 0.0) for r in sess.rounds), default=0.0)
        else:
            out[name] = sess.layer_median(name)
    sampler_s = ess = 0.0
    for kind in KINDS:
        s = sum(r.layer.get(f"sampling.{kind}.s", 0.0) for r in rounds)
        e = sum(r.layer.get(f"sampling.{kind}.ess", 0.0) for r in rounds)
        out[f"sampling.{kind}.s_per_ess"] = s / e if e else 0.0
        sampler_s += s
        ess += e
    out["sampling.ess_per_s"] = ess / sampler_s if sampler_s else 0.0
    draws = sum(r.layer.get("sampling.draws", 0.0) for r in rounds)
    accepted = sum(r.layer.get("sampling.accepted_draws", 0.0) for r in rounds)
    out["sampling.acceptance"] = accepted / draws if draws else 0.0
    if build_s is not None:
        out["weights.build_s"] = build_s
    out["host.ref_loop_s"] = sess.ref_median()
    return out


def run(args):
    env = child_env()
    from harness import Session

    t_start = time.perf_counter()
    build_s = None
    if args.workload == "cli":
        from wl_cli import Cli
        work = Cli(args.seed, ROOT, env, args.trace)
    else:
        setup_s, build_s = measure_setup(args.workload, args.seed, env)
        if args.workload == "zeros":
            from wl_zeros import Zeros
            work = Zeros(args.seed)
        else:
            from wl_ensemble import Ensemble
            work = Ensemble(args.seed)

    sess = Session()
    if args.trace and args.workload != "cli":
        import tracing
        tracing.install(lambda: sess.cur.layer)
    try:
        t0 = None  # set after the warm-up round, whose outputs get the full checks
        while t0 is None or time.perf_counter() - t0 < args.seconds:
            sess.start_round()
            work.round(sess)
            sess.end_round()
            t0 = t0 or time.perf_counter()
    finally:
        if args.workload == "cli":
            work.close()

    if args.workload == "cli":
        setup_s = statistics.median(work.validate_s)
        peak = work.peak_rss_mb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = sess.median("adjusted")
    if args.trace:
        values = per_layer(sess, build_s)
        units = PER_LAYER
    else:
        values = {"wall_s": wall, "setup_s": setup_s, "peak_rss_mb": peak}
        units = END_TO_END

    log = sys.stderr
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(sess.rounds)} rounds (1 warm-up), {time.perf_counter() - t_start:.1f}s total, "
          f"wall_s={wall:.4f} raw_round_s={sess.median('raw'):.4f} "
          f"ref_loop_s={sess.ref_median():.4f}", file=log)
    print("  rounds (adjusted/raw s): " + " ".join(f"{r.adjusted:.3f}/{r.raw:.3f}"
                                                   for r in sess.rounds), file=log)
    for name, v in values.items():
        print(f"  {name} = {v:.6g} {units[name]}", file=log)
    for msg in sess.failures[:20]:
        print(f"  FAILED: {msg}", file=log)
    for msg in sess.errors[:20]:
        print(f"  WRONG: {msg}", file=log)
    result = {
        "correct": not sess.errors,
        "attempted": sess.attempted,
        "failed": sess.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check that every output check rejects a planted wrong answer")
    args = parser.parse_args()
    if not (SRC / "mopkit" / "__init__.py").is_file():
        print(f"perfbench: no mopkit sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selfcheck:
        import selfcheck
        return selfcheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

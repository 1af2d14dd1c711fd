"""Quick mode (``run.py --selfcheck``): every output check must reject a planted
wrong answer and accept the true one.

Each case builds a small true output with mopkit, runs the benchmark's own
check on it, then runs the same check on a corrupted copy: a truncated root
list, a perturbed coefficient, a shifted root, a shifted Monte Carlo mean,
a scaled kernel, a non-arcsine equilibrium CDF, a growing compare distance
and a changed output body.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import numpy as np

import mopkit as mk
import oracles
import wl_cli
import wl_ensemble
import wl_zeros
from harness import Session


def _errors(check):
    sess = Session()
    sess.start_round()
    check(sess)
    return sess.errors


def _zeros_case(name, parts, corrupt):
    z = wl_zeros.Zeros(0)
    ws = z.systems[name]
    mt = mk.moment_table(ws, 2 * sum(parts))
    P = mk.type2_mop(mt, parts)
    out = {(name, tuple(parts)): corrupt(P, mk.poly_roots(P), mk.type1_mop(mt, parts))}
    return lambda sess: z.check(sess, out)


def _perturbed(P, i, rel):
    c = P.coeffs.copy()
    c[i] *= 1.0 + rel
    return mk.Polynomial(c)


def _shift_root(roots, d):
    r = roots.copy()
    r[1] += d
    return r


def _scaled_type1(ts, rel):
    return dataclasses.replace(ts, polys=tuple(mk.Polynomial(a.coeffs * (1.0 + rel))
                                               if i == 0 else a
                                               for i, a in enumerate(ts.polys)))


def _mc_case(shift):
    ws = wl_ensemble.systems()["angelesco"]
    batch = mk.sample_mcmc(ws, (1, 1), mk.SamplerConfig(samples=6400, chains=64,
                                                         burn_in=500, thinning=5, seed=1))
    X = batch.configurations
    z = 2.0j
    vals = np.prod(z - X, axis=1)
    target = z * z - 1.0 / 3.0  # x^2 - 1/3 is the (1, 1) polynomial on [-1, 0], [0, 1]
    _, _, stderr = oracles.mc_deviation(vals, 64, target)
    est = mk.mc_char_poly(batch, z)
    shifted = vals + shift * stderr
    est = dataclasses.replace(est, value=est.value + shift * stderr)
    e = wl_ensemble.Ensemble(0)
    return lambda sess: e.check_mc(sess, "selfcheck", est, shifted, target)


def _kernel_case(rel):
    e = wl_ensemble.Ensemble(0)
    ws = e.ws["angelesco"]
    mt = mk.moment_table(ws, 16)
    K = mk.biorthogonalize(mk.block_hankel(mt, (4, 4)), ws, (4, 4))
    vals = mk.kernel_eval(K, e.float_xy[0, :2000], e.float_xy[1, :2000]) * (1.0 + rel)
    err = wl_ensemble.direct_kernel_error("angelesco", vals, e.float_xy)
    return lambda sess: sess.check(err <= wl_ensemble.KERNEL_TOL, f"kernel off by {err:.2e}")


def _cli_case(check, files):
    out = wl_cli.OUT / "selfcheck" / "arcsine-x"
    shutil.rmtree(out.parent, ignore_errors=True)
    out.mkdir(parents=True)
    for name, text in files.items():
        (out / name).write_text(text)
    conf = json.loads((wl_cli.HERE.parent / "configs" / "arcsine.json").read_text())
    return lambda sess: check(sess, "selfcheck", "arcsine", conf, out)


def _equilibrium_files(cdf):
    m = 400
    h = 2.0 / m
    x = -1.0 + h * (np.arange(m) + 0.5)
    c = cdf(x + 0.5 * h)
    masses = np.diff(np.concatenate([[0.0], c]))
    rows = "\n".join(",".join(repr(float(v)) for v in row)
                     for row in zip(x, masses, masses / h, c))
    return {"equilibrium.json": json.dumps({"converged": True, "grid": [m]}),
            "equilibrium_1.csv": "x,mass,density,cdf\n" + rows + "\n"}


def _bodies_case(second_body):
    """Two runs whose manifests differ (timestamps) and whose bodies may not."""
    base = wl_cli.OUT / "selfcheck"
    shutil.rmtree(base, ignore_errors=True)
    for run, body in (("a", "1.0\n"), ("b", second_body)):
        (base / run).mkdir(parents=True)
        (base / run / "density.csv").write_text(body)
        (base / run / "manifest.json").write_text(json.dumps({"started": run}))
    same = wl_cli._bodies(base / "a") == wl_cli._bodies(base / "b")
    return lambda sess: sess.check(same, "output bodies differ between repetitions")


def _compare_files(d):
    return {"compare.csv": "n,component,kolmogorov_distance\n"
                           f"5,1,0.14\n10,1,{d!r}\n"}


CASES = [
    # name, maker of the true output, maker of the planted wrong one
    ("truncated root list",
     lambda: _zeros_case("angelesco", (3, 3), lambda P, r, ts: (P, r, ts)),
     lambda: _zeros_case("angelesco", (3, 3), lambda P, r, ts: (P, r[:-1], ts))),
    ("perturbed type II coefficient",
     lambda: _zeros_case("nikishin", (2, 2), lambda P, r, ts: (P, r, ts)),
     lambda: _zeros_case("nikishin", (2, 2), lambda P, r, ts: (_perturbed(P, 1, 1e-9), r, ts))),
    ("shifted Legendre root",
     lambda: _zeros_case("legendre", (6,), lambda P, r, ts: (P, r, ts)),
     lambda: _zeros_case("legendre", (6,), lambda P, r, ts: (P, _shift_root(r, 1e-8), ts))),
    ("perturbed type I component",
     lambda: _zeros_case("angelesco", (1, 1), lambda P, r, ts: (P, r, ts)),
     lambda: _zeros_case("angelesco", (1, 1), lambda P, r, ts: (P, r, _scaled_type1(ts, 1e-6)))),
    ("shifted Monte Carlo mean", lambda: _mc_case(0.0), lambda: _mc_case(10.0)),
    ("scaled kernel values", lambda: _kernel_case(0.0), lambda: _kernel_case(1e-6)),
    ("non-arcsine equilibrium CDF",
     lambda: _cli_case(wl_cli.check_equilibrium, _equilibrium_files(oracles.arcsine_cdf)),
     lambda: _cli_case(wl_cli.check_equilibrium,
                       _equilibrium_files(lambda x: np.clip(0.5 + 0.5 * x, 0.0, 1.0)))),
    ("compare distance growing with n",
     lambda: _cli_case(wl_cli.check_compare, _compare_files(0.07)),
     lambda: _cli_case(wl_cli.check_compare, _compare_files(0.2))),
    ("changed output body", lambda: _bodies_case("1.0\n"), lambda: _bodies_case("1.0000001\n")),
]


def main():
    ok = True
    try:
        for name, good, bad in CASES:
            good_errors = _errors(good())
            bad_errors = _errors(bad())
            behaves = not good_errors and bool(bad_errors)
            ok &= behaves
            print(f"{'ok  ' if behaves else 'FAIL'} {name}: true output "
                  f"{'accepted' if not good_errors else 'rejected ' + str(good_errors[:2])}, "
                  f"planted one {'rejected' if bad_errors else 'accepted'}"
                  + (f" ({bad_errors[0]})" if bad_errors else ""))
    finally:
        shutil.rmtree(wl_cli.OUT, ignore_errors=True)
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

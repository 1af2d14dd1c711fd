"""Workload ``zeros``: zero studies along ray sequences.

Each system gets one moment table; at every degree of its ray sequence the
round runs ``type2_mop``, ``poly_roots`` and ``type1_mop``.  The degree
ranges stop below the multi-indices at which ``poly_roots`` drops roots
(see the benchmark README), so every operation here is expected to succeed.
"""

from __future__ import annotations

import numpy as np

import mopkit as mk
import oracles

C, J, E = mk.WeightSpec.constant, mk.WeightSpec.jacobi, mk.WeightSpec.exp_poly

#: (name, totals along the equal-split ray)
STUDIES = (
    ("legendre", (6, 10, 14, 18, 22, 26, 30)),
    ("angelesco", (6, 10, 14, 18, 22, 26, 30)),
    ("jacobi_angelesco", (4, 8, 12)),
    ("exp_angelesco", (4, 8, 12)),
    ("nikishin", (4, 5, 6, 7, 8)),
    ("exp_nikishin", (4, 5, 6, 7, 8)),
)

TYPE1_TOL = 1e-10  # scaled residual of the type I linear form


def inputs(seed):
    """Weight definitions for every study; exp_poly coefficients come from the seed."""
    rng = np.random.default_rng([seed, 7001])

    def exp_coeffs():
        return (0.0, float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.5, 1.5)))

    ea, eb, en = exp_coeffs(), exp_coeffs(), exp_coeffs()
    return {
        "legendre": ("angelesco", [("constant", -1.0, 1.0, ())]),
        "angelesco": ("angelesco", [("constant", -1.0, 0.0, ()),
                                    ("constant", 0.0, 1.0, ())]),
        "jacobi_angelesco": ("angelesco", [("jacobi", -1.0, 0.0, (0.5, 0.5)),
                                           ("jacobi", 0.0, 1.0, (0.5, 0.5))]),
        "exp_angelesco": ("angelesco", [("exp_poly", -1.0, 0.0, ea),
                                        ("exp_poly", 0.0, 1.0, eb)]),
        "nikishin": ("nikishin", [("constant", 1.0, 2.0, ()),
                                  ("constant", -1.0, 0.0, ())]),
        "exp_nikishin": ("nikishin", [("exp_poly", 1.0, 2.0, en),
                                      ("constant", -1.0, 0.0, ())]),
    }


def _spec(family, a, b, params):
    if family == "constant":
        return C(a, b)
    if family == "jacobi":
        return J(a, b, *params)
    return E(a, b, params)


def build(kind, entries):
    specs = [_spec(*e) for e in entries]
    if kind == "nikishin":
        return mk.build_nikishin(specs[0], specs[1:])
    return mk.build_angelesco(specs)


def weight_defs(kind, entries):
    """Independent definitions of the system's weights (oracles.WeightDef)."""
    defs = []
    for family, a, b, params in entries:
        if family == "jacobi":
            defs.append(oracles.WeightDef(a, b, "jacobi", *params))
        else:
            defs.append(oracles.WeightDef(a, b, family, coeffs=params))
    if kind == "nikishin":
        (_, c, d, _) = entries[1]
        return [defs[0], defs[0].with_markov(c, d)]
    return defs


class Zeros:
    def __init__(self, seed):
        self.inputs = inputs(seed)
        self.systems = {name: build(*self.inputs[name]) for name, _ in STUDIES}
        self.reference = None  # outputs of the first round

    def round(self, sess):
        outputs = {}
        for name, totals in STUDIES:
            ws = self.systems[name]
            nvecs = [mk.MultiIndex.from_ray([1.0 / ws.p] * ws.p, n) for n in totals]
            kmax = max(max(v.n + max(v.parts) - 1, 2 * v.n - 2) for v in nvecs)
            mt = sess.call("weights.moment_table_s", mk.moment_table, ws, kmax)
            if mt is None:
                continue
            sess.count("weights.moment_entries", mt.raw.size)
            for nvec in nvecs:
                P = sess.call("mop.type2_s", mk.type2_mop, mt, nvec)
                roots = None if P is None else sess.call("mop.roots_s", mk.poly_roots, P)
                ts = sess.call("mop.type1_s", mk.type1_mop, mt, nvec)
                if P is not None:
                    sess.count("mop.type2_exact" if P.method == "exact" else "mop.type2_float")
                if ts is not None and ts.hp_coeffs is not None:
                    sess.count("mop.type1_mp")
                    sess.maximum("highprec.dps_max", ts.hp_dps)
                outputs[(name, nvec.parts)] = (P, roots, ts)
        if self.reference is None:
            self.reference = outputs
            self.check(sess, outputs)
        else:
            sess.check(_signature(outputs) == _signature(self.reference),
                       "zeros: outputs differ from the first round")
            sess.maximum("mop.residual_max", self.residual_max)

    def check(self, sess, outputs):
        """Independent checks on the first round's outputs."""
        worst = 0.0
        for (name, parts), (P, roots, ts) in outputs.items():
            kind, entries = self.inputs[name]
            defs = weight_defs(kind, entries)
            n = sum(parts)
            tag = f"zeros {name} {parts}"
            if P is None or roots is None or ts is None:
                continue  # counted as a failed operation
            if not sess.check(len(roots) == n, f"{tag}: {len(roots)} of {n} roots"):
                continue
            if kind == "nikishin":
                sess.check(oracles.count_in(roots, defs[0].a, defs[0].b) == n,
                           f"{tag}: roots outside Gamma_1")
            else:
                for nj, wd in zip(parts, defs):
                    sess.check(oracles.count_in(roots, wd.a, wd.b) == nj,
                               f"{tag}: wrong number of roots in [{wd.a}, {wd.b}]")
            if name == "legendre":
                ref = np.sort(np.polynomial.legendre.legroots([0] * n + [1]))
                err = oracles.root_errors(roots, ref, P.coeffs)
                sess.check(err <= 1.0, f"{tag}: Legendre roots off by {err:.2f} tolerances")
            r2, units = oracles.type2_scaled_residuals(P.coeffs, parts, defs)
            sess.check(units <= oracles.FLOOR_UNITS,
                       f"{tag}: type II residual {r2:.2e} is {units:.1f} rounding floors")
            if kind == "nikishin":
                r1 = oracles.type1_scaled_residuals(
                    lambda j, x: ts.q_values(x) / defs[0].values(x), n, defs[:1])
            else:
                r1 = oracles.type1_scaled_residuals(
                    lambda j, x: ts.q_values(x) / defs[j].values(x), n, defs)
            sess.check(r1 <= TYPE1_TOL, f"{tag}: type I residual {r1:.2e}")
            worst = max(worst, r1, r2)
        self.residual_max = worst
        sess.maximum("mop.residual_max", worst)


def _signature(outputs):
    sig = {}
    for key, (P, roots, ts) in outputs.items():
        sig[key] = (None if P is None else P.coeffs.tobytes(),
                    None if roots is None else roots.tobytes(),
                    None if ts is None else tuple(a.coeffs.tobytes() for a in ts.polys))
    return sig


def setup(seed):
    """What ``setup_s`` times after the import: building every weight system."""
    ins = inputs(seed)
    return [build(*ins[name]) for name, _ in STUDIES]

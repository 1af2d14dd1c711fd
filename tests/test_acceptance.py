"""Acceptance gate: every criterion at its stated tolerance and runtime.

Each test prints one PASS/FAIL line (see conftest) and asserts its wall
time against the stated budget.  Expensive shared objects (sample batches,
equilibrium measures, wide moment tables) are built through the session
store inside the first test that needs them, so their cost is charged to a
measured criterion rather than hidden in fixture setup.
"""

import json
import time

import numpy as np
import pytest

import mopkit as mk
from helpers import (
    arcsine_cdf,
    arcsine_problem,
    bordered_type2_coeffs,
    build_batch,
    cached,
    cell_boundary_cdf_error,
    symmetric_angelesco_problem,
    tensor_cauchy_binet,
)
from mopkit import cli
from mopkit.equilibrium import (
    DiscreteMeasure,
    interaction_matrix,
    kolmogorov_distance,
    minimize_equilibrium,
    zero_counting_measure,
)
from mopkit.quadrature import adaptive_quad

ANGELESCO_INTERVALS = (mk.Interval(-1.0, 0.0), mk.Interval(0.0, 1.0))

LEGENDRE_SET = [(n,) for n in range(1, 11)]
ANGELESCO_SET = [(1, 1), (2, 1), (2, 2), (3, 3), (4, 3), (4, 4), (5, 5), (6, 5), (6, 6)]
NIKISHIN_SET = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 4)]

MC_CASES = {
    "legendre": ((3,), [2.0, -2.0, 3.0, 2.0j, 1.0 + 1.0j], 1),
    "angelesco": ((2, 2), [2.0, -2.0, 3.0, 2.0j, 1.0 + 1.0j], 11),
    "nikishin": ((2, 2), [3.0, 4.0, -1.0, 2.0j, 3.0 + 1.0j], 17),
}


class Timer:
    def __init__(self, limit):
        self.limit = limit
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeds {self.limit}s"
        return elapsed


def _systems(legendre_ws, angelesco_ws, nikishin_ws, legendre_mt, angelesco_mt,
             nikishin_mt):
    return {
        "legendre": (legendre_ws, legendre_mt, LEGENDRE_SET),
        "angelesco": (angelesco_ws, angelesco_mt, ANGELESCO_SET),
        "nikishin": (nikishin_ws, nikishin_mt, NIKISHIN_SET),
    }


def test_c01_orthogonality_suite(legendre_ws, angelesco_ws, nikishin_ws,
                                 legendre_mt, angelesco_mt, nikishin_mt):
    timer = Timer(30.0)
    for name, (ws, mt, nvecs) in _systems(legendre_ws, angelesco_ws, nikishin_ws,
                                          legendre_mt, angelesco_mt,
                                          nikishin_mt).items():
        for nvec in nvecs:
            P = mk.type2_mop(mt, nvec)
            res2 = mk.orthogonality_residuals(P, ws, nvec)
            worst2 = max((np.abs(r).max() for r in res2 if r.size), default=0.0)
            assert worst2 <= 1e-9, (name, nvec, worst2)
            ts = mk.type1_mop(mt, nvec)
            res1 = np.abs(mk.type1_condition_residuals(ts)).max()
            assert res1 <= 1e-9, (name, nvec, res1)
    timer.check()


def test_c02_determinant_formula_equivalence(legendre_mt, angelesco_mt,
                                             nikishin_mt):
    timer = Timer(5.0)
    cases = ([(legendre_mt, (n,)) for n in range(1, 5)]
             + [(angelesco_mt, nv) for nv in [(1, 1), (2, 1), (2, 2), (1, 2)]]
             + [(nikishin_mt, nv) for nv in [(1, 1), (2, 1), (2, 2), (3, 1)]])
    for mt, nvec in cases:
        P = mk.type2_mop(mt, nvec)
        expanded = bordered_type2_coeffs(mt, nvec)
        assert np.allclose(P.coeffs, expanded, atol=1e-8), (nvec, P.coeffs, expanded)
    timer.check()


def test_c03_cauchy_binet_oracle(legendre_ws, angelesco_ws, nikishin_ws,
                                 legendre_mt, angelesco_mt, nikishin_mt):
    timer = Timer(60.0)
    cases = ([(legendre_ws, legendre_mt, (n,)) for n in (1, 2, 3)]
             + [(angelesco_ws, angelesco_mt, nv) for nv in [(1, 1), (2, 1), (1, 2)]]
             + [(nikishin_ws, nikishin_mt, nv) for nv in [(1, 1), (2, 1)]])
    for ws, mt, nvec in cases:
        d = mk.normality_determinant(mk.block_hankel(mt, nvec)).det
        est = tensor_cauchy_binet(ws, nvec)
        assert est == pytest.approx(d, rel=1e-7), (nvec, est, d)
    timer.check()


def test_c04_expectation_identities(store, legendre_ws, angelesco_ws, nikishin_ws,
                                    legendre_mt, angelesco_mt, nikishin_mt):
    timer = Timer(120.0)
    tables = {"legendre": legendre_mt, "angelesco": angelesco_mt,
              "nikishin": nikishin_mt}
    systems = {"legendre": legendre_ws, "angelesco": angelesco_ws,
               "nikishin": nikishin_ws}
    for name, (nvec, zs, seed) in MC_CASES.items():
        ws = systems[name]
        batch = cached(store, f"batch:{name}",
                       lambda ws=ws, nvec=nvec, seed=seed: build_batch(ws, nvec, seed))
        assert batch.configurations.shape[0] == 100_000
        P = mk.type2_mop(tables[name], nvec)
        for z in zs:
            est = mk.mc_char_poly(batch, z)
            dev = abs(est.value - P(z))
            assert dev <= 3.0 * est.stderr, (name, z, dev, est.stderr)
    timer.check()


def test_c05_kernel_suite(legendre_ws, angelesco_ws, nikishin_ws, legendre_mt,
                          angelesco_mt, nikishin_mt):
    timer = Timer(30.0)
    rng = np.random.default_rng(2026)
    cases = [(legendre_ws, legendre_mt, (8,)),
             (angelesco_ws, angelesco_mt, (4, 4)),
             (nikishin_ws, nikishin_mt, (4, 4))]
    for ws, mt, nvec in cases:
        n = sum(nvec)
        M = mk.block_hankel(mt, nvec)
        K = mk.biorthogonalize(M, ws, nvec)
        # trace identity
        trace = mk.kernel_trace(K)
        assert abs(trace - n) <= 1e-8, (nvec, trace)
        # mean density integrates to one
        total = sum(adaptive_quad(lambda x: mk.mean_density(K, x), lo, hi, tol=1e-10)
                    for lo, hi in ws.support_segments())
        assert abs(total - 1.0) <= 1e-8
        # bordered determinant vs biorthogonal sum
        hull = ws.support_hull()
        xs = hull.a + hull.length * rng.random(100)
        ys = hull.a + hull.length * rng.random(100)
        worst = max(abs(mk.kernel_eval(K, x, y)
                        - mk.kernel_eval_bordered(K, x, y))
                    for x, y in zip(xs, ys))
        assert worst <= 1e-10, (nvec, worst)
        # reproducing property on a handful of random pairs
        pairs = hull.a + hull.length * rng.random((7, 2))
        for x, z in pairs:
            val = sum(
                adaptive_quad(
                    lambda y: mk.kernel_eval(K, np.full_like(y, x), y)
                    * mk.kernel_eval(K, y, np.full_like(y, z)),
                    lo, hi, tol=1e-10)
                for lo, hi in ws.support_segments()
            )
            assert val == pytest.approx(mk.kernel_eval(K, x, z), abs=1e-8)
    timer.check()


def test_c06_sign_condition(angelesco_ws, nikishin_ws):
    timer = Timer(10.0)
    rep_a = mk.sign_constancy_check(angelesco_ws, (2, 2), 10_000, seed=1)
    assert rep_a.violations == 0 and rep_a.sign != 0
    rep_n = mk.sign_constancy_check(nikishin_ws, (3, 2), 10_000, seed=2)
    assert rep_n.violations == 0 and rep_n.sign != 0 and rep_n.nonzero > 9000
    timer.check()


def test_c07_nikishin_marginalization(nikishin_ws):
    timer = Timer(60.0)
    for nvec in [(1, 1), (2, 1), (2, 2)]:
        rep = mk.marginalization_check(nikishin_ws, nvec)
        assert rep.max_rel_deviation <= 1e-7, (nvec, rep)
    timer.check()


def test_c08_equilibrium_recovery(store):
    timer = Timer(120.0)
    measures, report = cached(
        store, "eq:arcsine",
        lambda: minimize_equilibrium(arcsine_problem(), max_iter=8000))
    assert report.converged
    assert cell_boundary_cdf_error(measures[0], arcsine_cdf) <= 1e-2
    sym, _ = cached(
        store, "eq:angelesco",
        lambda: minimize_equilibrium(symmetric_angelesco_problem(), max_iter=8000))
    m1, m2 = sym
    refl = np.abs(np.cumsum(m1.masses[::-1]) - np.cumsum(m2.masses)).max()
    assert refl <= 1e-3
    for p in range(1, 11):
        for kind in ("angelesco", "nikishin"):
            assert np.linalg.eigvalsh(interaction_matrix(kind, p)).min() > 0.0
    timer.check()


def test_c09_zero_equilibrium_consistency(store, angelesco_ws, angelesco_mt):
    timer = Timer(120.0)
    measures, _ = cached(
        store, "eq:angelesco",
        lambda: minimize_equilibrium(symmetric_angelesco_problem(), max_iter=8000))
    distances = []
    for n in (5, 10, 20, 30):
        nvec = mk.MultiIndex.from_ray([0.5, 0.5], n)
        P = mk.type2_mop(angelesco_mt, nvec)
        roots = mk.poly_roots(P)
        nus = zero_counting_measure(roots, n, list(ANGELESCO_INTERVALS))
        worst = 0.0
        for nu, mu in zip(nus, measures):
            # component masses differ at odd n (largest-remainder rounding);
            # rescale the equilibrium component for a well-posed comparison
            scaled = DiscreteMeasure(mu.grid,
                                     mu.masses * (nu.total_mass / mu.total_mass))
            worst = max(worst, kolmogorov_distance(nu, scaled))
        distances.append(worst)
    assert distances[-1] <= 0.05, distances
    for earlier, later in zip(distances[:-1], distances[1:]):
        assert later <= earlier + 0.01, distances
    timer.check()


def test_c10_cli_determinism(tmp_path):
    sample_cfg = {
        "kind": "nikishin",
        "weights": [{"family": "constant", "interval": [1.0, 2.0]}],
        "generators": [{"family": "constant", "interval": [-1.0, 0.0]}],
        "multi_index": [2, 1],
        "seed": 5,
        "sampler": {"samples": 4000, "chains": 32, "burn_in": 500, "thinning": 2},
    }
    eq_cfg = {
        "kind": "angelesco",
        "weights": [{"family": "constant", "interval": [-1.0, 0.0]},
                    {"family": "constant", "interval": [0.0, 1.0]}],
        "seed": 9,
        "equilibrium": {"grid": 300, "max_iter": 1500},
    }
    mop_cfg = {
        "kind": "angelesco",
        "weights": [{"family": "constant", "interval": [-1.0, 1.0]}],
        "multi_index": [3],
        "seed": 1,
    }
    jobs = [("sample", sample_cfg), ("equilibrium", eq_cfg), ("mop", mop_cfg)]
    for command, cfg in jobs:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        outputs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{command}_{tag}"
            assert cli.main([command, str(path), "--out", str(out),
                             "--quiet"]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            bodies = {
                name: (out / name).read_bytes()
                for name in manifest["outputs"]
            }
            outputs.append(bodies)
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], (command, name)

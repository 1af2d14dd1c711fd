"""Command-line entry point: configs in, CSV/JSON artifacts out.

Commands: mop, typeI, kernel, density, sample, verify, equilibrium,
compare, validate.  Exit codes: 0 success; 1 invalid input: a config that
fails validation, cannot be read, is not UTF-8 JSON or nests too deeply,
an output directory that cannot be made or written (say, because a file
has its name), or an equilibrium problem on supports whose interiors
overlap; 2 numeric failure; 3 verification failure, a non-finite Monte
Carlo deviation included.  Each command writes its artifacts and a
``manifest.json`` that lists them.  Handlers import only what they run,
so ``validate`` loads neither numpy nor mpmath.

Config schema (JSON, one file per experiment)::

    {
      "kind": "angelesco" | "nikishin" | "general",
      "weights":    [{"family": "constant", "interval": [a, b]},
                     {"family": "jacobi", "interval": [a, b],
                      "params": {"alpha": 0.5, "beta": 0.5}},
                     {"family": "exp_poly", "interval": [a, b],
                      "params": {"coeffs": [0, 0, 1]}}],
      "generators": [...],                  # nikishin only (same shape)
      "multi_index": [2, 1],
      "schedule": {"ray": [0.5, 0.5], "totals": [5, 10, 20, 30]},
      "seed": 0,
      "output_dir": "out",
      "grid": 200,
      "sampler": {"samples": 100000, "chains": 128, "burn_in": 10000,
                  "thinning": 10, "step_scale": 0.1},
      "equilibrium": {"grid": 2000, "max_iter": 4000, "ray": [1.0],
                      "fields": [[0.0, 0.0, 1.0]]},
      "z_points": [2.0, [0.0, 2.0]],
      "verify": {"stderr_multiple": 3.0, "samples": 20000,
                 "sign_trials": 2000}
    }

Weight-system keys (kind / weights / generators) follow the weight-system
definition format; the rest parametrizes the individual commands.  A null
value counts as an absent key, and each size key has a cap (``SIZE_CAPS``).
CSV output is RFC-4180 style with '.' decimals and '#' comment lines; reruns
with the same config and seed give byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .exceptions import ConstructionError, MopkitError, ValidationError, VerificationFailure
from .specs import FAMILIES, MAX_TOTAL_DEGREE, WeightSpec, overlapping_pair

#: upper bounds of the size keys, each 10x or more the largest size that a
#: shipped config, a test or the benchmark uses; a larger size is a typo
#: that would ask numpy for more memory than a host has
SIZE_CAPS = {"grid": 10_000, "equilibrium.grid": 20_000, "sampler.samples": 1_000_000,
             "sampler.chains": 10_000, "sampler.burn_in": 100_000, "sampler.thinning": 100,
             "verify.samples": 1_000_000, "verify.sign_trials": 100_000}


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:  # a null reads as an absent key
            cfg = json.load(fh, object_pairs_hook=lambda kv: {k: v for k, v in kv if v is not None})
    except (OSError, UnicodeDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    return cfg


def _is_int(v, low):
    """True when ``v`` is a whole number (int or integral float) >= ``low``."""
    whole = isinstance(v, int) or (isinstance(v, float) and v.is_integer())
    return whole and v >= low


def _is_real(v):
    """True for a JSON number that converts to float (no bool, no huge int)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and not abs(v) > sys.float_info.max


def _is_z(v):
    """A z point: a real number or an [re, im] pair."""
    return _is_real(v) or (isinstance(v, list) and len(v) == 2 and all(map(_is_real, v)))


def _spec_from_entry(entry, where, diags):
    if not isinstance(entry, dict) or not isinstance(entry.get("params", {}), dict):
        diags.error(f"{where}: a weight and its params must be objects")
        return None
    fam = entry.get("family")
    iv = entry.get("interval")
    params = entry.get("params", {})
    if fam not in FAMILIES:
        diags.error(f"{where}: unknown family {fam!r}")
        return None
    if (not isinstance(iv, (list, tuple))) or len(iv) != 2:
        diags.error(f"{where}: interval must be [a, b]")
        return None
    if fam == "jacobi":
        nums = [params.get("alpha", 0.0), params.get("beta", 0.0)]
    else:
        nums = params.get("coeffs", []) if fam == "exp_poly" else []
    if not (isinstance(nums, list) and all(map(_is_real, [*iv, *nums]))):
        diags.error(f"{where}: interval ends and params must be numbers")
        return None
    a, b = float(iv[0]), float(iv[1])
    try:
        if fam == "constant":
            return WeightSpec.constant(a, b)
        if fam == "jacobi":
            return WeightSpec.jacobi(a, b, float(nums[0]), float(nums[1]))
        return WeightSpec.exp_poly(a, b, nums)
    except MopkitError as exc:
        diags.error(f"{where}: {exc}")
    return None


class Diagnostics:
    """Errors and warnings of a config, with its kind and the weight specs parsed from it."""

    def __init__(self):
        self.errors = []
        self.warnings = []
        self.kind, self.specs, self.generators = None, (), ()

    def error(self, msg):
        self.errors.append(msg)

    def warn(self, msg):
        self.warnings.append(msg)

    @property
    def ok(self):
        return not self.errors

    def lines(self):
        return [f"error: {m}" for m in self.errors] + \
               [f"warning: {m}" for m in self.warnings]


def _check_ray(diags, key, ray, p):
    if not (isinstance(ray, list) and ray and all(_is_real(r) and r > 0 for r in ray)
            and abs(sum(ray) - 1.0) <= 1e-9):
        diags.error(f"{key} must be positive and sum to 1")
    elif len(ray) != p:
        diags.error(f"{key} has {len(ray)} parts, system has {p}")


def validate_config(cfg) -> Diagnostics:
    """Schema and semantic checks; never runs any computation."""
    diags = Diagnostics()
    kind = diags.kind = cfg.get("kind")
    if kind not in ("angelesco", "nikishin", "general"):
        diags.error(f"kind must be angelesco/nikishin/general, got {kind!r}")
        return diags
    wlist, glist = cfg.get("weights"), cfg.get("generators", [])
    if not isinstance(wlist, list) or not wlist:
        diags.error("weights must be a non-empty list")
        return diags
    if not isinstance(glist, list):
        diags.error("generators must be a list")
        return diags
    specs = diags.specs = [_spec_from_entry(e, f"weights[{i}]", diags)
                           for i, e in enumerate(wlist)]
    gens = diags.generators = [_spec_from_entry(e, f"generators[{i}]", diags)
                               for i, e in enumerate(glist)]
    if not diags.ok:
        return diags

    p = len(specs)
    if kind == "angelesco" and (pair := overlapping_pair([s.interval for s in specs])):
        diags.error("angelesco intervals overlap: {} and {}".format(*pair))
    if kind == "nikishin":
        if len(specs) != 1:
            diags.error("nikishin config takes exactly one base weight")
        if not gens:
            diags.error("nikishin config needs at least one generator")
        chain = [s.interval for s in specs[:1] + gens]
        for left, right in zip(chain[:-1], chain[1:]):
            if left.gap_to(right) <= 0.0:
                diags.error(f"consecutive nikishin intervals intersect: {left} and {right}")
        p = 1 + len(gens)
    if kind != "nikishin" and cfg.get("generators"):
        diags.warn("generators are ignored for non-nikishin systems")

    nv = cfg.get("multi_index")
    if nv is not None:
        if (not isinstance(nv, list)) or not all(_is_int(v, 0) for v in nv):
            diags.error("multi_index must be a list of nonnegative integers")
        elif len(nv) != p:
            diags.error(f"multi_index has {len(nv)} parts, system has {p}")
        elif sum(nv) < 1:
            diags.error("multi_index must have |n| >= 1")
        elif sum(nv) > MAX_TOTAL_DEGREE:
            diags.error(f"|n| > {MAX_TOTAL_DEGREE} is not supported")
        elif kind == "nikishin":
            for j in range(len(nv) - 1):
                if nv[j] < nv[j + 1] - 1:
                    diags.warn(
                        f"multi_index violates the AT condition n_j >= n_j+1 - 1 "
                        f"at position {j + 1}: {nv}"
                    )
    sched = cfg.get("schedule")
    if sched is not None:
        sched = sched if isinstance(sched, dict) else {}
        ray = sched.get("ray", [])
        totals = sched.get("totals", [])
        _check_ray(diags, "schedule.ray", ray, p)
        if not (isinstance(totals, list) and totals and all(_is_int(t, 1) for t in totals)):
            diags.error("schedule.totals must be positive integers")
        elif max(totals) > MAX_TOTAL_DEGREE:
            diags.error(f"schedule totals exceed the cap {MAX_TOTAL_DEGREE}")
    if cfg.get("multi_index") is None and sched is None:
        diags.warn("no multi_index or schedule: only validate/equilibrium can run")

    zs = cfg.get("z_points", [])
    if not (isinstance(zs, list) and all(map(_is_z, zs))):
        diags.error("z_points must be a list of numbers and [re, im] pairs")
    blocks = {}
    for key in ("equilibrium", "sampler", "verify"):
        blocks[key] = cfg.get(key, {})
        if not isinstance(blocks[key], dict):
            diags.error(f"{key} must be an object")
            blocks[key] = {}
    eq, sc, vc = blocks.values()
    for key, v, low in (("seed", cfg.get("seed"), 0), ("grid", cfg.get("grid"), 2),
                        ("equilibrium.grid", eq.get("grid"), 2),
                        ("equilibrium.max_iter", eq.get("max_iter"), 1),
                        ("verify.samples", vc.get("samples"), 1),
                        ("verify.sign_trials", vc.get("sign_trials"), 1),
                        *((f"sampler.{k}", sc.get(k), 1)
                          for k in ("samples", "chains", "burn_in", "thinning"))):
        if v is not None and not _is_int(v, low):
            diags.error(f"{key} must be an integer >= {low}")
        elif v is not None and v > SIZE_CAPS.get(key, v):
            diags.error(f"{key} must be at most {SIZE_CAPS[key]}")
    step, multiple = sc.get("step_scale"), vc.get("stderr_multiple")
    if step is not None and not (_is_real(step) and step > 0):
        diags.error("sampler.step_scale must be a positive number")
    if multiple is not None and not _is_real(multiple):
        diags.error("verify.stderr_multiple must be a number")
    ray, fields = eq.get("ray"), eq.get("fields")
    if ray is not None:
        _check_ray(diags, "equilibrium.ray", ray, p)
    if fields is not None and not (
            isinstance(fields, list) and len(fields) == p
            and all(f is None or (isinstance(f, list) and f and all(map(_is_real, f)))
                    for f in fields)):
        diags.error(f"equilibrium.fields must hold {p} null or coefficient lists")
    return diags


def build_system(diags) -> weights.WeightSystem:
    """The weight system of a valid config, from what ``validate_config`` parsed."""
    from . import weights
    if diags.kind == "angelesco":
        return weights.build_angelesco(diags.specs)
    if diags.kind == "nikishin":
        return weights.build_nikishin(diags.specs[0], diags.generators)
    return weights.WeightSystem.general([weights.Weight.from_spec(s) for s in diags.specs])


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

def _cells(col):
    """One column as CSV cells: str of integers, repr of floats; text passes through."""
    import numpy as np
    if isinstance(col, list) and col and isinstance(col[0], str):
        return col
    col = np.asarray(col)
    if col.dtype.kind in "iu":
        return map(str, col.tolist())
    return map(repr, col.astype(float, copy=False).tolist())


def _write_csv(path, header, blocks, comments=()):
    """Write blocks of equal-length columns, one formatted string per block."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(header) + "\n")
        for cols in blocks:  # the closing "" ends the last row; an empty block writes ""
            fh.write("\n".join([*map(",".join, zip(*map(_cells, cols))), ""]))


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        # numpy scalars: np.float64 is a float; the rest become Python scalars
        json.dump(obj, fh, indent=2, sort_keys=True, default=lambda v: v.item())
        fh.write("\n")


class Manifest:
    """The run record: steps, and each artifact, which it writes into ``out_dir``."""

    def __init__(self, cfg, command, out_dir):
        blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
        self.data = {
            "command": command,
            "config_hash": hashlib.sha256(blob).hexdigest(),
            "version": __version__,
            "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "steps": [],
            "outputs": [],
        }
        self.out_dir = out_dir

    def step(self, name, detail=None):
        entry = {"name": name, "status": "ok"}
        if detail is not None:
            entry["detail"] = detail
        self.data["steps"].append(entry)

    def write(self, name, *content):
        """Write the artifact ``name`` into ``out_dir``, as JSON or CSV by its suffix,
        and list it under outputs; ``content`` is the JSON object, or the CSV
        header, blocks and comments."""
        (_write_json if name.endswith(".json") else _write_csv)(self.out_dir / name, *content)
        self.data["outputs"].append(name)

    def finish(self):
        self.data["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        _write_json(self.out_dir / "manifest.json", self.data)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _multi_index(cfg):
    from . import mop
    nv = cfg.get("multi_index")
    if nv is None:
        raise ValidationError("this command needs a multi_index in the config")
    return mop.as_multi_index(nv)


def _solve_setup(cfg, diags):
    """The system, the multi-index and a moment table deep enough to solve at it."""
    from . import weights
    ws, nvec = build_system(diags), _multi_index(cfg)
    return ws, nvec, weights.moment_table(ws, nvec.n + max(max(nvec.parts), nvec.n - 1) + 1)


def _moments_step(man, mt):
    """The moments step, with each weight's quadrature work: the most panels
    any of its rows accepted and its largest error estimate."""
    man.step("moments", detail={"weights": [
        {"panels_max": int(panels.max()), "error_max": float(errors.max())}
        for panels, errors in zip(mt.panels, mt.errors)]})


def cmd_mop(cfg, diags, man, quiet):
    from . import mop
    ws, nvec, mt = _solve_setup(cfg, diags)
    _moments_step(man, mt)
    P = mop.type2_mop(mt, nvec)
    det = mop.normality_determinant(mop.block_hankel(mt, nvec))
    res = mop.orthogonality_residuals(P, ws, nvec)
    rmax = float(max((abs(r).max() for r in res if r.size), default=0.0))
    detail = {"rung": P.method, "hp_dps": P.hp_dps, "condition_estimate": P.condition_estimate}
    if P.hp_dps:
        from . import highprec
        detail["mp_rows"] = mt.mp_quad[highprec.rung_of(P.hp_dps)]
    man.step("solve", detail=detail)
    man.write("mop.json", {
        "multi_index": list(nvec.parts),
        "coeffs": [float(c) for c in P.coeffs],
        "residual_max": rmax,
        "determinant": det.det,
        "condition_estimate": P.condition_estimate,
        "ill_conditioned": bool(P.ill_conditioned),
        "roots": [float(r) for r in mop.poly_roots(P)],
        "residuals": [[float(v) for v in r] for r in res],
    })
    if not quiet:
        print(f"type II MOP degree {nvec.n}: max residual {rmax:.3e}")


def cmd_typeI(cfg, diags, man, quiet):
    from . import mop
    _, nvec, mt = _solve_setup(cfg, diags)
    _moments_step(man, mt)
    ts = mop.type1_mop(mt, nvec)
    det = mop.normality_determinant(mop.block_hankel(mt, nvec))
    res, size = mop.type1_check_integrals(ts)
    detail = {"rung": "float" if ts.hp_coeffs is None else "mp",
              "hp_dps": ts.hp_dps, "rows_dps": ts.hp_rows_dps,
              "condition_estimate": ts.condition_estimate,
              "residual_relative_max": float((abs(res) / size).max()),
              "evaluation": ts.mp and ts.mp.proxy and ts.mp.proxy.records}
    if ts.hp_rows_dps:
        detail["mp_rows"] = mt.mp_quad[ts.hp_rows_dps]
    man.step("solve", detail=detail)
    rmax = float(abs(res).max())
    man.write("typeI.json", {
        "multi_index": list(nvec.parts),
        "components": [[float(c) for c in a.coeffs] for a in ts.polys],
        "residual_max": rmax,
        "determinant": det.det,
        "condition_estimate": ts.condition_estimate,
        "ill_conditioned": bool(ts.ill_conditioned),
        "high_precision": ts.hp_coeffs is not None,
    })
    if not quiet:
        print(f"type I system: max residual {rmax:.3e}")


def _kernel_on_grid(cfg, diags, default_grid):
    """The biorthogonalized kernel and the grid of ``cfg``'s ``grid`` points on the hull."""
    import numpy as np
    from . import ensemble, mop
    ws, nvec, mt = _solve_setup(cfg, diags)
    hull = ws.support_hull()
    return (ensemble.biorthogonalize(mop.block_hankel(mt, nvec), ws, nvec),
            np.linspace(hull.a, hull.b, int(cfg.get("grid", default_grid))))


def _biorthogonalized(man, K):
    """The biorthogonalize step, with how the kernel values were computed; it
    follows the evaluation, which builds an mpmath kernel's proxy."""
    mpk = K.mp
    man.step("biorthogonalize", detail={"rung": "mp" if mpk else "float",
                                        "hp_dps": mpk.dps if mpk else 0,
                                        "condition_estimate": K.condition_estimate,
                                        "gram_defect": K.gram_defect,
                                        "evaluation": mpk and mpk.proxy and mpk.proxy.records})


def cmd_kernel(cfg, diags, man, quiet):
    import numpy as np
    from . import ensemble
    K, xs = _kernel_on_grid(cfg, diags, 100)
    m = xs.size
    text = list(map(repr, xs.tolist()))  # the grid, formatted once for all m blocks
    blocks = (([text[i]] * m, text, ensemble.kernel_eval(K, np.full(m, x), xs))
              for i, x in enumerate(xs))
    man.write("kernel.csv", ["x", "y", "K"], blocks, [f"n = {K.n}"])
    _biorthogonalized(man, K)
    if not quiet:
        print(f"kernel grid {m}x{m} written")


def cmd_density(cfg, diags, man, quiet):
    from . import ensemble
    K, xs = _kernel_on_grid(cfg, diags, 400)
    dens = ensemble.mean_density(K, xs)
    _biorthogonalized(man, K)
    man.write("density.csv", ["x", "density"], [(xs, dens)], [f"n = {K.n}"])
    if not quiet:
        print(f"mean density on {xs.size} points written")


def _sampler_config(cfg, seed):
    """The config's sampler block over the ``SamplerConfig`` defaults."""
    from . import sampling
    sc = cfg.get("sampler", {})
    knobs = {k: int(sc[k]) for k in ("samples", "chains", "burn_in", "thinning")
             if sc.get(k) is not None}
    if sc.get("step_scale") is not None:
        knobs["step_scale"] = float(sc["step_scale"])
    return sampling.SamplerConfig(seed=seed, **knobs)


def cmd_sample(cfg, diags, man, quiet):
    import numpy as np
    from . import sampling
    ws, nvec = build_system(diags), _multi_index(cfg)
    seed = int(cfg.get("seed", 0))
    batch = sampling.sample_mcmc(ws, nvec, _sampler_config(cfg, seed))
    man.step("mcmc")
    header = [f"x_{i + 1}" for i in range(nvec.n)]
    data = batch.configurations
    if batch.extended is not None:
        header += [f"y_{i + 1}" for i in range(batch.extended.shape[1])]
        data = np.hstack([batch.configurations, batch.extended])
    blocks = (data[i:i + 8192].T for i in range(0, len(data), 8192))  # bounded text per block
    man.write("samples.csv", header, blocks,
              [f"seed: {seed}", f"acceptance: {batch.acceptance_rate!r}", f"ess: {batch.ess!r}"])
    if not quiet:
        print(f"{data.shape[0]} configurations written "
              f"(acceptance {batch.acceptance_rate:.2f})")


def _z_list(cfg):
    return [complex(*z) if isinstance(z, list) else float(z)
            for z in cfg.get("z_points", [2.0, -2.0, 3.0, [0.0, 2.0], [1.0, 1.0]])]


def cmd_verify(cfg, diags, man, quiet):
    import numpy as np
    from . import ensemble, mop, sampling
    ws, nvec, mt = _solve_setup(cfg, diags)
    vcfg = cfg.get("verify", {})
    seed = int(cfg.get("seed", 0))
    multiple = float(vcfg.get("stderr_multiple", 3.0))
    checks = []

    rep = ensemble.sign_constancy_check(ws, nvec, int(vcfg.get("sign_trials", 2000)),
                                        seed=seed)
    checks.append({"name": "sign_constancy", "passed": rep.violations == 0,
                   "detail": {"sign": rep.sign, "violations": rep.violations,
                              "nonzero": rep.nonzero}})
    man.step("sign_constancy")

    K = ensemble.biorthogonalize(mop.block_hankel(mt, nvec), ws, nvec)
    trace = ensemble.kernel_trace(K)
    checks.append({"name": "kernel_trace", "passed": abs(trace - nvec.n) < 1e-8,
                   "detail": {"trace": trace, "n": nvec.n}})
    checks.append({"name": "gram_identity", "passed": K.gram_defect < 1e-9,
                   "detail": {"defect": K.gram_defect}})
    man.step("kernel")

    if ws.kind == "nikishin" and ws.p == 2 and nvec.parts[1] <= 2 and nvec.n <= 4:
        mrep = ensemble.marginalization_check(ws, nvec, seed=seed)
        checks.append({"name": "nikishin_marginalization",
                       "passed": mrep.max_rel_deviation < 1e-7,
                       "detail": {"max_rel_deviation": mrep.max_rel_deviation,
                                  "sign": mrep.sign}})
        man.step("marginalization")

    scfg = dataclasses.replace(_sampler_config(cfg, seed),
                               samples=int(vcfg.get("samples", 20_000)))
    batch = sampling.sample_mcmc(ws, nvec, scfg)
    P = mop.type2_mop(mt, nvec)
    devs = []
    for z in _z_list(cfg):
        est = ensemble.mc_char_poly(batch, z)
        devs.append(abs(est.value - P(z)) / max(est.stderr, 1e-300))
    worst = float(np.max(devs, initial=0.0))  # unlike max(), keeps a NaN, which fails
    checks.append({"name": "mc_char_poly", "passed": worst <= multiple,
                   "detail": {"worst_dev_over_stderr": worst,
                              "allowed": multiple, "samples": scfg.samples}})
    man.step("monte_carlo")

    passed = all(c["passed"] for c in checks)
    man.write("verify.json", {"passed": passed, "checks": checks})
    if not quiet:
        for c in checks:
            print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}")
    if not passed:
        raise VerificationFailure("one or more verification checks failed")


def _equilibrium(cfg, ws):
    """The config's equilibrium problem of ``ws`` (Nikishin, else Angelesco), solved."""
    from . import equilibrium
    ecfg = cfg.get("equilibrium", {})
    ray = ecfg.get("ray")
    if ray is None:
        sched = cfg.get("schedule")
        ray = sched["ray"] if sched else [1.0 / ws.p] * ws.p
    make = getattr(equilibrium.EquilibriumProblem,
                   "nikishin" if ws.kind == "nikishin" else "angelesco")
    prob = make(ws.intervals, ray, grid=int(ecfg.get("grid", 1000)),  # not the kernel's grid
                fields=ecfg.get("fields"))
    return prob, *equilibrium.minimize_equilibrium(prob, max_iter=int(ecfg.get("max_iter", 4000)))


def cmd_equilibrium(cfg, diags, man, quiet):
    prob, measures, report = _equilibrium(cfg, build_system(diags))
    man.step("minimize")
    for j, mu in enumerate(measures):
        man.write(f"equilibrium_{j + 1}.csv", ["x", "mass", "density", "cdf"],
                  [(mu.grid, mu.masses, mu.masses / mu.spacing, mu.masses.cumsum())],
                  [f"component: {j + 1}", f"total_mass: {mu.total_mass!r}"])
    man.write("equilibrium.json", {"energy": report.energy, "iterations": report.iterations,
                                   "kkt_residual": report.kkt_residual,
                                   "converged": report.converged,
                                   "grid": list(prob.grid_sizes)})
    if not quiet:
        print(f"energy {report.energy:.6f} after {report.iterations} iterations")


def cmd_compare(cfg, diags, man, quiet):
    from . import equilibrium, mop, weights
    ws = build_system(diags)
    sched = cfg.get("schedule")
    if not sched:
        raise ValidationError("compare needs a schedule with ray and totals")
    ray = sched["ray"]
    totals = [int(t) for t in sched["totals"]]
    _, measures, _ = _equilibrium(cfg, ws)
    man.step("equilibrium")
    mt = weights.moment_table(ws, 2 * max(totals) + 2)
    _moments_step(man, mt)
    # a Nikishin system's type II zeros all lie on Gamma_1, so only component 1 compares
    components = 1 if ws.kind == "nikishin" else ws.p
    rows = []
    for n in totals:
        nvec = mop.MultiIndex.from_ray(ray, n)
        roots = mop.poly_roots(mop.type2_mop(mt, nvec))
        counting = equilibrium.zero_counting_measure(roots, n, ws.intervals)
        for j, (nu, mu) in enumerate(zip(counting[:components], measures)):
            scaled = equilibrium.DiscreteMeasure(
                mu.grid, mu.masses * (nu.total_mass / mu.total_mass))
            rows.append((n, j + 1, equilibrium.kolmogorov_distance(nu, scaled)))
        man.step(f"n={n}")
    man.write("compare.csv", ["n", "component", "kolmogorov_distance"], [zip(*rows)],
              [f"ray: {ray}"])
    if not quiet:
        for n, j, d in rows:
            print(f"n={n} component {j}: distance {d:.4f}")


def cmd_validate(cfg, diags, man, quiet):
    for line in diags.lines():
        print(line)
    if not diags.ok:
        raise ValidationError(f"{len(diags.errors)} validation error(s)")
    if not quiet and not diags.lines():
        print("config is valid")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {"mop": cmd_mop, "typeI": cmd_typeI, "kernel": cmd_kernel, "density": cmd_density,
            "sample": cmd_sample, "verify": cmd_verify, "equilibrium": cmd_equilibrium,
            "compare": cmd_compare, "validate": cmd_validate}


def run(command, config_path, *, out=None, seed=None, grid=None, samples=None,
        quiet=False) -> int:
    """Programmatic equivalent of the CLI; returns the exit code."""
    try:
        cfg = _load_config(config_path)
        if command not in COMMANDS:
            raise ValidationError(f"unknown command {command!r}")
        if seed is not None:
            cfg["seed"] = int(seed)
        if grid is not None:
            cfg["grid"] = int(grid)
        if samples is not None:
            for key in ("sampler", "verify"):
                block = cfg.setdefault(key, {})
                if isinstance(block, dict):  # a block of another type fails validation
                    block["samples"] = int(samples)
        diags = validate_config(cfg)
        if command != "validate" and not diags.ok:
            for line in diags.lines():
                print(line, file=sys.stderr)
            raise ValidationError("config failed validation")
        out_dir = out if out is not None else cfg.get("output_dir", "out")
        if not isinstance(out_dir, (str, Path)) or "\0" in str(out_dir):
            raise ValidationError("output_dir must be a string without NUL")
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        man = Manifest(cfg, command, out_dir)
        COMMANDS[command](cfg, diags, man, quiet)
        man.finish()
        return 0
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        man.finish()  # verify.json is written before the failure is raised
        return 3
    except (ValidationError, ConstructionError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # _load_config maps its own; these are the output directory's
        print(f"invalid input: cannot write output: {exc}", file=sys.stderr)
        return 1
    except MopkitError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mopkit",
        description="Multiple orthogonal polynomial ensembles toolkit",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="experiment config (JSON)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    return run(args.command, args.config, out=args.out, seed=args.seed,
               grid=args.grid, samples=args.samples, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())

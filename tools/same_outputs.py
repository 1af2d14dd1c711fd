"""Bit comparison of the ``zeros`` and ``ensemble`` workload outputs in two checkouts.

    python3 tools/same_outputs.py PARENT_DIR CHANGE_DIR [--seed S]

Runs, once in each checkout, on the checkout's own ``src`` and ``perfbench``
with single-threaded BLAS: the warm-up round of ``perfbench/wl_zeros.py``,
whose ``_signature`` holds the bytes of every type II polynomial, its roots
and the type I polynomials, with each study's moment table (the ``raw`` and
``scaled`` bytes) as an output of its own, so that a change of the moment
engine shows apart from a change of the solves, and the record of its
hull rows' passes (``errors`` and ``panels``, which the ``mop`` and ``typeI``
manifests report) as two more (``_table_outputs``), and the first round of
``perfbench/wl_ensemble.py``: per target the sampler batch at that round's
seeds (``configurations``, ``extended``, ``acceptance_rate``, ``ess`` and
``step_sizes``), and the two kernels at the workload's evaluation points
(values and trace).  Each output is reduced to a SHA-256 digest, and its
numbers (coefficients, roots, configurations, kernel values) are kept as
float64 next to it.  How each answer was computed is recorded field by
field (``_fields``): per ``zeros`` index the ``hp_dps``, ``hp_rows_dps`` and
``condition_estimate`` of type II and type I and the type I ``hp_coeffs``,
per kernel its ``rung`` and ``condition_estimate`` and on the mpmath rung
its ``dps`` and ``psi`` (``_kernel_fields``), each its own output, so a
change of rung, of precision or of an mpmath solve shows apart from a change
of values.
The mpmath moment rows that each ``zeros`` study reached are outputs too,
one per rung and weight (``zeros NAME mp rows RUNG wJ``), kept exactly
next to the rule that computed them (``MomentTable.mp_quad``, where the
checkout has it), and the rest of each row's record (``level``,
``error_max`` and ``open``) is an output of its own
(``... wJ record``), so a changed stopping level shows even where the
row's bits do not move.  The mpmath kernel also gives its bordered
determinant values at five fixed points and det M from ``K.factors``, at
the kernel's dps (``_bordered_fields``).  These, its ``psi`` and each type
I ``hp_coeffs`` are kept exactly with how to solve them again
(``_with_solves``).
The digest of an mpf covers its ``_mpf_`` tuple, since a repr rounds it to
the current precision; its value is kept as a float.  Prints every output
whose digest differs or that only one side has, a differing output with its
largest absolute deviation and its largest absolute value, a differing
mpmath row with its largest deviation relative to the row's largest entry,
and each side's deviation from a reference row computed at twice the rung's
digits by the change's ``moment_rows``; for a differing mpmath solve output
each side's deviation from the change's re-solve at twice the dps on the
same rows (``solves``), relative to the reference's largest entry and in
units of cond1 10^-dps.  Exits 1 on any difference.  The companion of
``tools/cli_bodies.py``.
"""

from __future__ import annotations

import argparse
import array
import base64
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else repr(data).encode()).hexdigest()


def _output(data, *arrays) -> list:
    """[digest of ``data``, the numbers of ``arrays`` (None skipped) as base64 float64]."""
    import numpy as np

    vals = [np.ravel(np.asarray(a, dtype=float)) for a in arrays if a is not None]
    flat = np.concatenate(vals) if vals else np.empty(0)
    return [_sha(data), base64.b64encode(flat.tobytes()).decode()]


def _nested(v) -> bool:
    return isinstance(v, (tuple, list)) or getattr(v, "ndim", 0) > 0


def _raw(v):
    """``v`` with each mpf, also inside tuples and arrays, as its ``_mpf_`` tuple."""
    return [_raw(e) for e in v] if _nested(v) else getattr(v, "_mpf_", v)


def _flat(v) -> list:
    """The scalars of ``v``, tuples and arrays flattened in order."""
    return [x for e in v for x in _flat(e)] if _nested(v) else [v]


def _fields(label, obj, names) -> dict:
    """{"<label> <name>": output} for each of ``names`` that ``obj`` has and
    that is not None, one output per field; the digest is over ``_raw``, and
    a string field keeps no numbers."""
    return {f"{label} {name}": _output(repr(_raw(v)), None if isinstance(v, str) else _flat(v))
            for name in names if (v := getattr(obj, name, None)) is not None}


def _exact(row) -> list:
    """The mpf (or float) entries of ``row`` as exact [m, e] pairs, value m 2^e."""
    from mpmath import mpf

    return [[-m if sign else m, e]
            for sign, m, e, _ in (getattr(v, "_mpf_", None) or mpf(v)._mpf_ for v in row)]


def _table_outputs(label, mt) -> dict:
    """Three outputs of the float moment table ``mt`` (None: its call
    failed): ``raw`` and ``scaled`` (``{label} moment table``), and the
    ``errors`` and the ``panels`` of its hull rows, each its own.  Records
    of shape (p, bases, k_max + 1), from a checkout whose pass also took the
    raw rows, give their last base, the hull rows' (p, k_max + 1)."""
    if mt is None:
        return {f"{label} moment table": _output(b"failed")}
    records = {name: getattr(mt, name) for name in ("errors", "panels")}
    records = {name: r[:, -1] if r.ndim == 3 else r for name, r in records.items()}
    return {f"{label} moment table": _output(mt.raw.tobytes() + mt.scaled.tobytes(),
                                             mt.raw, mt.scaled),
            **{f"{label} moment {name}": _output(r.tobytes(), r) for name, r in records.items()}}


def _row_outputs(label, mt) -> dict:
    """Two outputs per rung and weight of the table ``mt``'s mpmath rows:
    the row, ``_output`` plus {"exact": ``_exact``, "rule": how it was
    computed}, and its record's ``level``, ``error_max`` and ``open``
    (``... record``)."""
    out = {}
    for rung, rows in sorted(getattr(mt, "mp_rows", {}).items()):
        records = getattr(mt, "mp_quad", {}).get(rung) or [{}] * len(rows)
        for j, (row, record) in enumerate(zip(rows, records), 1):
            out[f"{label} mp rows {rung} w{j}"] = _output(repr(_raw(row)), list(row)) + [
                {"exact": _exact(row), "rule": record.get("rule")}]
            how = {name: record.get(name) for name in ("level", "error_max", "open")}
            out[f"{label} mp rows {rung} w{j} record"] = _output(
                repr(how), [how[name] for name in ("level", "error_max") if how[name] is not None])
    return out


#: (x, y) of the mpmath kernel's bordered values, inside the ``ensemble``
#: Nikishin hull [1, 2]
BORDERED_POINTS = ((1.1, 1.3), (1.25, 1.9), (1.5, 1.5), (1.7, 1.2), (1.95, 1.05))


def _bordered_fields(label, K) -> dict:
    """``_fields`` of the mpmath kernel ``K``'s bordered determinant: its
    ``kernel_eval_bordered`` values at ``BORDERED_POINTS`` and det M from
    the LU in ``K.factors``, at K's dps."""
    import mopkit
    from mopkit import linalg
    from mpmath import mp

    with mp.workdps(K.mp.dps):
        lu, _, parity = K.factors
        det_m = linalg.lu_det(lu, parity)
    how = SimpleNamespace(det_m=det_m, bordered=[mopkit.kernel_eval_bordered(K, x, y)
                                                 for x, y in BORDERED_POINTS])
    return _fields(label, how, ("bordered", "det_m"))


def _kernel_fields(label, K) -> dict:
    """``_fields`` of how the kernel ``K`` was computed: its rung ("float" or
    "mp") and ``condition_estimate``, and on the mpmath rung its ``dps`` and
    ``psi``."""
    how = SimpleNamespace(rung="float" if K.mp is None else "mp",
                          condition_estimate=K.condition_estimate)
    return {**_fields(label, how, ("rung", "condition_estimate")),
            **_fields(label, K.mp, ("dps",)), **_fields(label, K.mp and K, ("psi",))}


def _kernel_solves(out, label, name, K) -> None:
    """``_with_solves`` for the mpmath kernel ``K``'s ``psi``, ``det_m`` and
    ``bordered`` outputs in ``out``; ``name`` is its ``ensemble`` system,
    whose table has k_max 2 |n| there."""
    import mopkit
    from mopkit import linalg
    from mpmath import mp

    with mp.workdps(K.mp.dps):
        det_m = linalg.lu_det(K.factors[0], K.factors[2])
    bordered = [mopkit.kernel_eval_bordered(K, x, y) for x, y in BORDERED_POINTS]
    _with_solves(out, label, "kernel", name, K.nvec.parts, 2 * K.n, K.mp.dps,
                 K.condition_estimate, {"psi": list(K.psi.flat), "det_m": [det_m],
                                        "bordered": bordered})


def _with_solves(out, label, kind, name, parts, k_max, dps, cond, values) -> None:
    """Append to each mpmath-rung solve output ``{label} {what}`` of ``values``
    ({what: its values}) its record for ``solves``: the values exactly
    (``_exact``) and how to solve them again at twice the dps, ``kind`` "type
    I" (a ``zeros`` study) or "kernel" (an ``ensemble`` system), the index,
    the table's k_max, the dps and cond1 of the solve, and ``what``."""
    for what, vals in values.items():
        out[f"{label} {what}"].append({"exact": _exact(vals), "solve": [
            kind, name, list(parts), k_max, dps, float(cond), what]})


def digests(checkout: Path, seed: int) -> dict:
    """{output: [digest, values]} of this process's ``mopkit`` with
    ``checkout``'s perfbench (``_output``)."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import harness
    import wl_ensemble
    import wl_zeros

    import mopkit

    sess = harness.Session()
    sess.start_round()
    zeros, tables, table = wl_zeros.Zeros(seed), [], mopkit.moment_table

    def recorded_table(*args):  # a failed call leaves None in its study's place
        tables.append(None)
        tables[-1] = table(*args)
        return tables[-1]

    mopkit.moment_table = recorded_table
    zeros.round(sess)
    mopkit.moment_table = table
    out = {}
    studied = {name: mt for (name, _), mt in zip(wl_zeros.STUDIES, tables)}
    for name, mt in studied.items():
        out.update(_table_outputs(f"zeros {name}", mt))
        out.update(_row_outputs(f"zeros {name}", mt))
    for (name, parts), sig in wl_zeros._signature(zeros.reference).items():
        P, roots, ts = zeros.reference[name, parts]
        out[f"zeros {name} {parts}"] = _output(sig, None if P is None else P.coeffs, roots,
                                               *(() if ts is None else (a.coeffs for a in ts.polys)))
        for kind, obj in (("type II", P), ("type I", ts)):
            out.update(_fields(f"zeros {name} {parts} {kind}", obj,
                               ("hp_dps", "hp_rows_dps", "condition_estimate", "hp_coeffs")))
        if ts is not None and ts.hp_coeffs is not None:
            _with_solves(out, f"zeros {name} {parts} type I", "type I", name, parts,
                         studied[name].k_max, ts.hp_dps, ts.condition_estimate,
                         {"hp_coeffs": [v for blk in ts.hp_coeffs for v in blk]})
    batches, sample = [], mopkit.sample_mcmc

    def recorded(*args):  # a failed call leaves None in its target's place
        batches.append(None)
        batches[-1] = sample(*args)
        return batches[-1]

    mopkit.sample_mcmc = recorded
    ensemble = wl_ensemble.Ensemble(seed)
    ensemble.round(sess)
    mopkit.sample_mcmc = sample
    for name, b in zip(wl_ensemble.TARGETS, batches):
        out[f"ensemble sampler {name}"] = _output(b"failed") if b is None else _output(
            b.configurations.tobytes() + (b"" if b.extended is None else b.extended.tobytes())
            + repr((b.configurations.shape, b.acceptance_rate, b.ess, b.step_sizes)).encode(),
            b.configurations, b.extended)
    for name, vals, trace, K, tag in ensemble.reference or ():
        out[f"ensemble kernel {name} ({tag})"] = _output(vals.tobytes() + repr(trace).encode(),
                                                         vals, trace)
        out.update(_kernel_fields(f"ensemble kernel {name} ({tag})", K))
        if K.mp is not None:
            out.update(_bordered_fields(f"ensemble kernel {name} ({tag})", K))
            _kernel_solves(out, f"ensemble kernel {name} ({tag})", name, K)
    out["failed operations"] = _sha(sess.failures)
    return out


def references(checkout: Path, seed: int, rows: list) -> dict:
    """{key: exact row} for each [key, k_max] of ``rows`` (``zeros NAME mp
    rows RUNG wJ``): row J of ``checkout``'s ``moment_rows`` of the study's
    system at twice RUNG digits."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import mpmath
    import wl_zeros

    from mopkit import highprec

    systems, out = wl_zeros.Zeros(seed).systems, {}
    for key, k_max in rows:
        name, rung, j = key.split()[1], int(key.split()[-2]), int(key.split()[-1][1:])
        with mpmath.mp.workdps(2 * rung):
            out[key] = _exact(highprec.moment_rows(systems[name], k_max)[j - 1])
    return out


def solves(checkout: Path, seed: int, requests: list) -> dict:
    """{key: exact values} for each [key, "solve" record (``_with_solves``)] of
    ``requests``: the output solved again by ``checkout``'s ``linalg`` at
    twice its dps, on the moment rows at its dps of a fresh table of the
    study's (or the ``ensemble`` system's) weights."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import mpmath
    import numpy as np
    import wl_ensemble
    import wl_zeros

    import mopkit
    from mopkit import highprec, linalg
    from mopkit.mop import _affine_unscale, _hankel_from

    zeros, out = wl_zeros.Zeros(seed).systems, {}
    for key, (kind, name, parts, k_max, dps, _, what) in requests:
        ws = zeros[name] if kind == "type I" else wl_ensemble.systems()[name]
        mt, nvec = mopkit.moment_table(ws, k_max), mopkit.MultiIndex(tuple(parts))
        rows, n = highprec.table_rows(mt, dps)[1], nvec.n
        with mpmath.mp.workdps(2 * dps):
            lu, piv, parity = factors = linalg.lu_factor(_hankel_from(rows, nvec, n))
            if what == "hp_coeffs":
                sol = linalg.lu_solve(lu, piv, np.eye(1, n, n - 1, dtype=object)[0])
                values = [v for nj, e in zip(parts, np.cumsum(parts))
                          for v in _affine_unscale(sol[e - nj : e], mt, 1 - n, 2 * dps)]
            elif what == "psi":
                values = linalg.lu_solve(lu, piv, np.eye(n, dtype=object)).T.flat
            elif what == "det_m":
                values = [linalg.lu_det(lu, parity)]
            else:  # the bordered values, as floats, from a kernel at twice the dps
                K = mopkit.ensemble.Kernel(ws, nvec, _hankel_from(rows, nvec, n), factors, None,
                                           0.0, 0.0, mp=highprec.MPForm(ws, parts, None, 2 * dps))
                values = [mopkit.kernel_eval_bordered(K, x, y) for x, y in BORDERED_POINTS]
        out[key] = _exact(values)
    return out


def _run(checkout: Path, *args) -> dict:
    """The JSON that this script prints with ``args``, run in a subprocess
    on ``checkout``'s own ``src``."""
    from cli_bodies import THREAD_VARS

    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{v: "1" for v in THREAD_VARS})
    run = subprocess.run([sys.executable, __file__, *args], cwd=checkout, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def snapshot(checkout: Path, seed: int) -> dict:
    """``digests`` of ``checkout``, computed in a subprocess on its own ``src``."""
    return _run(checkout, "--digests", str(checkout), str(seed))


def _relative(row, ref) -> float:
    """max |row - ref| / max |ref| over two exact rows ([m, e] pairs)."""
    row, ref = ([Fraction(m) * Fraction(2) ** e for m, e in r] for r in (row, ref))
    scale = max(map(abs, ref), default=0)
    return float(max(abs(a - b) for a, b in zip(row, ref)) / scale) if scale else 0.0


def _units(name, output, ref) -> str:
    """``name``'s deviation of the exact values of ``output`` (a record of
    ``_with_solves``) from ``ref``, relative and in units of cond1 10^-dps of
    its own solve."""
    rel, (*_, dps, cond, _) = _relative(output["exact"], ref), output["solve"]
    return f"{name} {rel:.3g} ({rel / (cond * 10.0 ** -dps):.3g} cond1 10^-{dps})"


def _deviation(parent, change) -> str:
    """How far two outputs' values ([digest, values] each) lie apart."""
    p, c = (array.array("d", base64.b64decode(side[1])) for side in (parent, change))
    if len(p) != len(c):
        return f", {len(p)} values in the parent, {len(c)} in the change"
    if not p:
        return ""
    dev = max((abs(a - b) for a, b in zip(p, c)), default=0.0)
    out = f", max |deviation| {dev:.3g} of max |value| {max(map(abs, p + c), default=0.0):.3g}"
    if len(parent) > 2 and len(change) > 2 and "rule" in change[2]:  # an mpmath row
        rules = " -> ".join(str(side[2]["rule"]) for side in (parent, change))
        out += (f", relative deviation {_relative(change[2]['exact'], parent[2]['exact']):.3g}"
                f" ({rules})")
    return out


def differences(parent: dict, change: dict) -> list:
    """(output, reason) for every output whose digest differs or is on one side only.

    An output is a digest, or [digest, values] from ``digests``; a differing
    one with values on both sides gets its largest deviation (``_deviation``)."""
    out = []
    for key in sorted(set(parent) | set(change)):
        if key not in parent or key not in change:
            out.append((key, f"only in the {'parent' if key in parent else 'change'}"))
        elif parent[key] != change[key]:
            p, c = parent[key], change[key]
            both = isinstance(p, list) and isinstance(c, list)
            if not (both and p[:2] == c[:2]):  # an mpmath row's rule is no output
                out.append((key, "differs" + (_deviation(p, c) if both else "")))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--digests"]:
        print(json.dumps(digests(Path(argv[1]), int(argv[2]))))
        return 0
    if argv[:1] == ["--references"]:
        print(json.dumps(references(Path(argv[1]), int(argv[2]), json.loads(argv[3]))))
        return 0
    if argv[:1] == ["--solves"]:
        print(json.dumps(solves(Path(argv[1]), int(argv[2]), json.loads(argv[3]))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int, default=11, help="seed of both workloads' inputs")
    args = ap.parse_args(argv)
    sides = [snapshot(root.resolve(), args.seed) for root in (args.parent, args.change)]
    found = differences(*sides)
    for key, reason in found:
        print(f"{key}: {reason}")
    rows = [[key, len(sides[1][key][2]["exact"]) - 1] for key, _ in found
            if " mp rows " in key and not key.endswith(" record")
            and all(key in side for side in sides)]
    if rows:
        refs = _run(args.change.resolve(), "--references", str(args.change.resolve()),
                    str(args.seed), json.dumps(rows))
        for key, _ in rows:
            devs = (_relative(side[key][2]["exact"], refs[key]) for side in sides)
            print("{}: relative deviation from twice the rung's digits: parent {:.3g}, "
                  "change {:.3g}".format(key, *devs))
    solved = [[key, sides[1][key][2]["solve"]] for key, _ in found
              if all(len(side.get(key, ())) > 2 and "solve" in side[key][2] for side in sides)]
    if solved:
        refs = _run(args.change.resolve(), "--solves", str(args.change.resolve()),
                    str(args.seed), json.dumps(solved))
        for key, (_, _, _, _, dps, _, _) in solved:
            print(f"{key}: deviation from a re-solve at {2 * dps} digits, relative "
                  + ", ".join(_units(name, side[key][2], refs[key])
                              for name, side in zip(("parent", "change"), sides)))
    print(f"{len(found)} of {len(set(sides[0]) | set(sides[1]))} outputs differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

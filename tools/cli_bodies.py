"""Byte comparison of the ``cli`` workload's output bodies in two checkouts.

    python3 tools/cli_bodies.py PARENT_DIR CHANGE_DIR [--seed S]

Runs the measured round of ``perfbench/wl_cli.py`` (its ``ROUND``, with its
``FLAGS``) once in each checkout, one ``python -m mopkit.cli`` subprocess per
command, on the checkout's own ``src`` and ``configs`` with single-threaded
BLAS; ``sample`` runs at ``--seed S``.  Prints every command whose exit code
differs, or whose output files differ in name or bytes, and exits 1 on any
difference.  ``manifest.json`` is compared as JSON without its ``started``
and ``finished`` timestamps; the other files are read as the workload's own
repetition check reads them.  A differing CSV or JSON body is printed with
the number of its numeric cells that differ, their largest absolute
deviation and the largest absolute value on either side (``deviation``),
as ``tools/same_outputs.py`` prints a differing output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from wl_cli import FLAGS, ROUND, _bodies  # noqa: E402

#: as in ``perfbench/run.py``, whose import would set them in this process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_round(checkout: Path, out: Path, seed: int) -> dict:
    """Run ``ROUND`` in ``checkout``, each command into out/CONFIG-COMMAND;
    returns the exit code of each such job name."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **{v: "1" for v in THREAD_VARS})
    codes = {}
    for cfg, cmd in ROUND:
        job = out / f"{cfg}-{cmd}"
        job.mkdir(parents=True)
        argv = [sys.executable, "-m", "mopkit.cli", cmd, str(checkout / "configs" / f"{cfg}.json"),
                "--out", str(job), "--quiet", *FLAGS.get((cfg, cmd), [])]
        if cmd == "sample":
            argv += ["--seed", str(seed)]
        codes[job.name] = subprocess.run(argv, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                                         stderr=subprocess.DEVNULL).returncode
    return codes


def outputs(job: Path) -> dict:
    """The output files of a job by name: their bytes, and for ``manifest.json``
    its JSON object without the timestamps."""
    out = _bodies(job)
    manifest = job / "manifest.json"
    if manifest.exists():
        data = json.loads(manifest.read_text())
        out[manifest.name] = {k: v for k, v in data.items() if k not in ("started", "finished")}
    return out


def differences(parent: Path, change: Path, parent_codes: dict, change_codes: dict) -> list:
    """(job, reason) for every job whose exit code or output bodies differ."""
    out = []
    for job in sorted(set(parent_codes) | set(change_codes)):
        a, b = parent_codes.get(job), change_codes.get(job)
        if a != b:
            out.append((job, f"exit code {a} -> {b}"))
            continue
        pa, pb = outputs(parent / job), outputs(change / job)
        for name in sorted(set(pa) | set(pb)):
            if name not in pb or name not in pa:
                out.append((job, f"{name} only in the {'parent' if name in pa else 'change'}"))
            elif pa[name] != pb[name]:
                out.append((job, f"{name} differs"))
    return out


def _numbers(v) -> list:
    """The numbers of a JSON value in document order (booleans are not numbers)."""
    if isinstance(v, dict):
        return [x for e in v.values() for x in _numbers(e)]
    if isinstance(v, list):
        return [x for e in v for x in _numbers(e)]
    return [float(v)] if isinstance(v, (int, float)) and not isinstance(v, bool) else []


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def cells(name: str, body) -> list:
    """The numeric cells of the output file ``name``: the comma-separated
    fields of a CSV that read as floats, or else the numbers of a JSON body
    (bytes, or the manifest's object)."""
    if name.endswith(".csv"):
        fields = (f for line in body.decode().splitlines() for f in line.split(","))
        return [v for v in map(_float, fields) if v is not None]
    return _numbers(json.loads(body) if isinstance(body, bytes) else body)


def deviation(name: str, parent, change) -> str:
    """How far two bodies of the output file ``name`` lie apart, cell by cell
    (two NaNs are equal)."""
    p, c = cells(name, parent), cells(name, change)
    if len(p) != len(c):
        return f", {len(p)} numeric cells in the parent, {len(c)} in the change"
    devs = [abs(a - b) for a, b in zip(p, c) if a != b and not (math.isnan(a) and math.isnan(b))]
    return (f", {len(devs)} numeric cells differ, max |deviation| {max(devs, default=0.0):.3g}"
            f" of max |value| {max(map(abs, p + c), default=0.0):.3g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int, default=11, help="seed of every sample command")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / side for side in ("parent", "change")]
        codes = [run_round(root.resolve(), out, args.seed)
                 for root, out in zip((args.parent, args.change), outs)]
        found = differences(*outs, *codes)
        for job, reason in found:
            name = reason.removesuffix(" differs")
            detail = "" if name == reason else deviation(
                name, *(outputs(out / job)[name] for out in outs))
            print(f"{job}: {reason}{detail}")
    print(f"{len({job for job, _ in found})} of {len(ROUND)} commands differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

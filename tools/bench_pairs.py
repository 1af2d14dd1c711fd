"""Paired benchmark runs: a parent checkout against a change, run by run.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload ensemble \\
        --pairs 5 --seed 11 --seconds 20 --out BENCH_12.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, with the
same seed (``--seed`` plus the pair number), the parent first in even pairs
and the change first in odd ones, so that a slow drift of the host falls on
both sides.  The end-to-end metrics of every run go into the ``paired``
section of the BENCH file (created when missing, other sections kept):
``{"paired": {W: {"seeds": [...], "first": [...], "correct": {...},
"failed": {...}, "metrics": {M: {"better": ..., "parent": [...], "change":
[...], "parent_median": ..., "parent_quartiles": [q1, q3], "change_median":
..., "change_quartiles": [q1, q3], "wins": k, "pairs": n}}}}}``.  ``wins``
counts the pairs in which the change is better.  The file's ``parent`` and
``change`` sides get the ``src_lines`` of each checkout (the lines of
``src/mopkit/*.py``), which ``tools/bench_diff.py`` prints first.
``tools/bench_diff.py --paired`` prints the section.  Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values):
    """(q1, q3) of ``values`` by the inclusive method; both the value for one run."""
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs, seeds, first, spec):
    """The paired record of one workload from its runs: {side: [result, ...]}."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    metrics = {}
    for name, direction in better.items():
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in SIDES}
        sign = 1 if direction == "lower" else -1
        rec = {"better": direction}
        for s in SIDES:
            rec[s] = vals[s]
            rec[f"{s}_median"] = statistics.median(vals[s])
            rec[f"{s}_quartiles"] = quartiles(vals[s])
        rec["wins"] = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        rec["pairs"] = len(seeds)
        metrics[name] = rec
    return {"seeds": seeds, "first": first,
            "correct": {s: [r["correct"] for r in runs[s]] for s in SIDES},
            "failed": {s: [r["failed"] for r in runs[s]] for s in SIDES},
            "metrics": metrics}


def src_lines(root):
    """Lines of ``src/mopkit/*.py`` in a checkout."""
    return sum(len(p.read_text().splitlines())
               for p in sorted((Path(root) / "src" / "mopkit").glob("*.py")))


def run_once(root, workload, seed, seconds):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {workload} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True, help="repeatable")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", required=True, help="BENCH file to add the paired section to")
    args = ap.parse_args(argv)
    roots = dict(zip(SIDES, (Path(args.parent), Path(args.change))))
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    for side in SIDES:
        doc.setdefault(side, {})["src_lines"] = src_lines(roots[side])
    for workload in args.workload:
        runs = {s: [] for s in SIDES}
        seeds, first = [], []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(roots[side], workload, seed, args.seconds))
                wall = runs[side][-1]["metrics"]["wall_s"]["value"]
                print(f"{workload} pair {i} seed {seed} {side}: wall_s {wall:.4f}",
                      file=sys.stderr, flush=True)
            seeds.append(seed)
            first.append(order[0])
        doc.setdefault("paired", {})[workload] = summarize(runs, seeds, first, spec)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

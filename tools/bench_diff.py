"""Per-metric deltas between BENCH_*.json files.

A BENCH file holds the final JSON line of each perfbench workload, untraced
and traced, on a parent commit and on a change:
``{"parent": {"src_lines": ..., "workloads": {W: {"seed": ..., "untraced":
{...}, "traced": {...}}}}, "change": {...}}``.

    python3 tools/bench_diff.py BENCH_10.json             # parent -> change
    python3 tools/bench_diff.py BENCH_9.json BENCH_10.json  # change -> change
    python3 tools/bench_diff.py BENCH_10.json --workload zeros \\
        --metric wall_s --metric highprec.moment_rows_s

With one file, each row compares the file's parent side with its change
side; with two, the first file's change side with the second's.  Rows are
``workload mode metric old new delta ratio``; ``mode`` is ``untraced`` or
``traced``.  ``src_lines`` comes first, and each workload and mode starts
with its ``correct`` and ``failed`` fields.

    python3 tools/bench_diff.py BENCH_12.json --paired

prints the file's ``paired`` section instead (written by
``tools/bench_pairs.py``): per workload and end-to-end metric, the number of
pairs, the parent and change medians with their quartiles, the ratio of the
medians, the pairs the change wins and a verdict against the metric's
relative ``bound`` in the repository's ``BENCHMARK.json``:

* ``gain``: over at least 10 pairs, the change wins at least 9 of 10, and
  its median is better than the parent's by more than the parent's
  interquartile range;
* ``worse``: the change median is worse than the parent's by more than the
  bound, relative to the parent's median;
* ``unresolved``: the parent's interquartile range exceeds the bound,
  relative to its median, so the runs spread too widely to tell;
* ``same``: none of these.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MODES = ("untraced", "traced")
SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def sides(paths):
    """(label, old side, new side) for one or two BENCH files."""
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    if len(docs) == 1:
        return f"{paths[0]}: parent -> change", docs[0]["parent"], docs[0]["change"]
    return f"{paths[0]} change -> {paths[1]} change", docs[0]["change"], docs[1]["change"]


def _fmt(value):
    if value is None or isinstance(value, bool):
        return "-" if value is None else str(value)
    return f"{value:.6g}"


def rows(old, new, workloads=None, metrics=None):
    """(workload, mode, name, old, new): ``correct`` and ``failed``, then
    every metric present on either side."""
    for w in new.get("workloads", {}):
        if workloads and w not in workloads:
            continue
        for mode in MODES:
            a = old.get("workloads", {}).get(w, {}).get(mode, {})
            b = new["workloads"][w].get(mode, {})
            for f in ("correct", "failed"):
                yield w, mode, f, a.get(f), b.get(f)
            am, bm = a.get("metrics", {}), b.get("metrics", {})
            for m in list(am) + [m for m in bm if m not in am]:
                if not metrics or m in metrics:
                    yield w, mode, m, am.get(m, {}).get("value"), bm.get(m, {}).get("value")


def paired_rows(doc, workloads=None, metrics=None):
    """(workload, metric, record) for each entry of the ``paired`` section."""
    for w, rec in doc.get("paired", {}).items():
        if workloads and w not in workloads:
            continue
        for m, r in rec["metrics"].items():
            if not metrics or m in metrics:
                yield w, m, r


def verdict(rec, bound):
    """``gain``, ``worse``, ``unresolved`` or ``same`` for one paired record
    (see the module doc); ``-`` without a bound or with a zero parent median."""
    sign = 1 if rec["better"] == "lower" else -1
    old, new = rec["parent_median"], rec["change_median"]
    iqr = rec["parent_quartiles"][1] - rec["parent_quartiles"][0]
    if rec["pairs"] >= 10 and 10 * rec["wins"] >= 9 * rec["pairs"] and sign * (old - new) > iqr:
        return "gain"
    if bound is None or not old:
        return "-"
    if sign * (new - old) / abs(old) > bound:
        return "worse"
    return "unresolved" if iqr / abs(old) > bound else "same"


def print_paired(doc, workloads=None, metrics=None, spec=None):
    bounds = {m["name"]: m.get("bound") for m in (spec or {}).get("end_to_end", [])}
    print(f"{'workload':9} {'metric':12} {'pairs':>5} {'parent [q1, q3]':>32} "
          f"{'change [q1, q3]':>32} {'ratio':>7} {'wins':>5} {'verdict':>10}")
    for w, m, r in paired_rows(doc, workloads, metrics):
        cells = [f"{_fmt(r[f'{s}_median'])} [{_fmt(r[f'{s}_quartiles'][0])}, "
                 f"{_fmt(r[f'{s}_quartiles'][1])}]" for s in ("parent", "change")]
        ratio = (f"{r['change_median'] / r['parent_median']:.3f}x" if r["parent_median"]
                 else "-")
        print(f"{w:9} {m:12} {r['pairs']:>5} {cells[0]:>32} {cells[1]:>32} {ratio:>7} "
              f"{r['wins']:>5} {verdict(r, bounds.get(m)):>10}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="one BENCH file, or two to compare")
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    ap.add_argument("--metric", action="append", help="only this metric (repeatable)")
    ap.add_argument("--paired", action="store_true",
                    help="print the paired medians of one BENCH file")
    args = ap.parse_args(argv)
    if len(args.files) > 2 or (args.paired and len(args.files) != 1):
        ap.error("give one or two BENCH files, or one with --paired")
    if args.paired:
        with open(args.files[0]) as fh, open(SPEC) as spec:
            print_paired(json.load(fh), args.workload, args.metric, json.load(spec))
        return 0
    label, old, new = sides(args.files)
    print(label)
    print(f"src_lines {_fmt(old.get('src_lines'))} -> {_fmt(new.get('src_lines'))}")
    for w, mode, m, a, b in rows(old, new, args.workload, args.metric):
        delta = ratio = "-"
        if not (a is None or b is None or isinstance(a, bool) or isinstance(b, bool)):
            delta = f"{b - a:+.4g}"
            if a != 0:
                ratio = f"{b / a:.3f}x"
        print(f"{w:9} {mode:9} {m:24} {_fmt(a):>12} {_fmt(b):>12} {delta:>11} {ratio:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

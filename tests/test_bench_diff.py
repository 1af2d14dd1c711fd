"""tools/bench_diff.py: per-metric deltas between and within BENCH files, and
the paired medians that tools/bench_pairs.py records; tools/cli_bodies.py:
the comparison of two checkouts' CLI output bodies."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_diff
import bench_pairs
import cli_bodies


def _side(wall, rows_s, lines):
    def run(metrics):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}

    return {"src_lines": lines,
            "workloads": {"zeros": {"seed": 11, "untraced": run({"wall_s": wall}),
                                    "traced": run({"highprec.moment_rows_s": rows_s})}}}


def _write(path, parent, change):
    path.write_text(json.dumps({"about": "", "parent": parent, "change": change}))
    return str(path)


def _metric_lines(capsys):
    return [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("zeros") and ("wall_s" in line or "moment_rows" in line)]


def test_one_file_compares_parent_with_change(tmp_path, capsys):
    path = _write(tmp_path / "b.json", _side(1.0, 0.5, 100), _side(0.75, 0.25, 90))
    assert bench_diff.main([path]) == 0
    assert _metric_lines(capsys) == [
        ["zeros", "untraced", "wall_s", "1", "0.75", "-0.25", "0.750x"],
        ["zeros", "traced", "highprec.moment_rows_s", "0.5", "0.25", "-0.25", "0.500x"]]


def test_two_files_compare_change_sides(tmp_path, capsys):
    old = _write(tmp_path / "a.json", _side(9.0, 9.0, 1), _side(1.0, 0.5, 100))
    new = _write(tmp_path / "b.json", _side(9.0, 9.0, 1), _side(2.0, 0.5, 90))
    assert bench_diff.main([old, new, "--metric", "wall_s"]) == 0
    out = capsys.readouterr().out
    assert "src_lines 100 -> 90" in out
    assert [line.split() for line in out.splitlines() if "wall_s" in line] == [
        ["zeros", "untraced", "wall_s", "1", "2", "+1", "2.000x"]]


def test_paired_prints_medians_quartiles_and_wins(tmp_path, capsys):
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower"}]}

    def result(wall):
        return {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": wall}}}

    runs = {"parent": [result(v) for v in (2.0, 1.8, 2.2, 1.9, 2.1)],
            "change": [result(v) for v in (1.6, 1.5, 1.9, 1.95, 1.7)]}
    rec = bench_pairs.summarize(runs, [11, 12, 13, 14, 15], ["parent", "change"] * 2 + ["parent"],
                                spec)
    wall = rec["metrics"]["wall_s"]
    assert wall["parent_median"] == 2.0 and wall["change_median"] == 1.7
    assert wall["parent_quartiles"] == [1.9, 2.1] and wall["change_quartiles"] == [1.6, 1.9]
    assert wall["wins"] == 4 and wall["pairs"] == 5
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"paired": {"ensemble": rec}}))
    assert bench_diff.main([str(path), "--paired"]) == 0
    [row] = [line.split() for line in capsys.readouterr().out.splitlines()
             if line.startswith("ensemble")]
    assert row == ["ensemble", "wall_s", "5", "2", "[1.9,", "2.1]", "1.7", "[1.6,", "1.9]",
                   "0.850x", "4", "same"]


def _record(parent, change, better="lower"):
    """The paired record of one metric "m" from its parent and change runs."""
    spec = {"end_to_end": [{"name": "m", "better": better}]}
    runs = {s: [{"correct": True, "failed": 0, "metrics": {"m": {"value": v}}} for v in vals]
            for s, vals in (("parent", parent), ("change", change))}
    return bench_pairs.summarize(runs, list(range(len(parent))), ["parent"] * len(parent),
                                 spec)["metrics"]["m"]


def test_paired_verdicts(tmp_path, capsys):
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    gain = _record(parent, [v - 0.1 for v in parent[:9]] + [1.2])
    assert (gain["wins"], gain["pairs"]) == (9, 10)
    assert bench_diff.verdict(gain, 0.25) == "gain"
    # 5 of 5 wins are too few pairs, 8 of 10 too few wins, however large the drop
    assert bench_diff.verdict(_record(parent[:5], [0.5] * 5), 0.25) == "same"
    assert bench_diff.verdict(_record(parent, [0.5] * 8 + [1.5] * 2), 0.25) == "same"
    # 9 wins but a drop inside the parent's quartiles is not a gain either
    assert bench_diff.verdict(_record(parent, [v - 0.005 for v in parent[:9]] + [1.2]),
                              0.25) == "same"
    assert bench_diff.verdict(_record(parent, [1.3] * 10), 0.25) == "worse"
    assert bench_diff.verdict(_record(parent, [1.2] * 10), 0.25) == "same"
    wide = _record([0.6, 0.8, 1.0, 1.2, 1.4], [1.0] * 5)
    assert bench_diff.verdict(wide, 0.25) == "unresolved"
    # a metric where higher is better
    assert bench_diff.verdict(_record(parent, [v + 0.1 for v in parent], "higher"),
                              0.25) == "gain"
    assert bench_diff.verdict(_record(parent, [0.7] * 10, "higher"), 0.25) == "worse"
    # main takes the bound from BENCHMARK.json: 0.25 for wall_s
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"paired": {"zeros": {"metrics": {
        "wall_s": _record(parent, [1.3] * 10), "setup_s": _record(parent, [1.2] * 10)}}}}))
    assert bench_diff.main([str(path), "--paired"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("zeros")]
    assert [(row[1], row[-1]) for row in rows] == [("wall_s", "worse"), ("setup_s", "same")]


def test_pairs_record_src_lines_of_both_checkouts(tmp_path, monkeypatch, capsys):
    for side, lines in (("parent", 5), ("change", 3)):
        pkg = tmp_path / side / "src" / "mopkit"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\n" * (lines - 1))
        (pkg / "b.py").write_text("y = 2\n")
        (pkg / "notes.txt").write_text("not counted\n")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}]}))

    def run_once(root, workload, seed, seconds):
        return {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "zeros", "--pairs", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["parent"]["src_lines"], doc["change"]["src_lines"]) == (5, 3)
    assert doc["paired"]["zeros"]["metrics"]["wall_s"]["pairs"] == 2
    capsys.readouterr()
    assert bench_diff.main([str(out)]) == 0
    assert "src_lines 5 -> 3" in capsys.readouterr().out


#: output files of two CLI jobs, as both checkouts would write them
BODIES = {"legendre-mop": {"mop.json": "{}", "manifest.json": '{"wall_s": 1}'},
          "legendre-kernel": {"kernel.csv": "x,y,K\n", "manifest.json": '{"wall_s": 2}'}}


def _jobs(out, bodies=BODIES):
    for job, files in bodies.items():
        (out / job).mkdir(parents=True)
        for name, text in files.items():
            (out / job / name).write_text(text)
    return {job: 0 for job in bodies}


@pytest.mark.parametrize("edit,expected", [
    (lambda d: None, []),
    (lambda d: (d / "legendre-kernel" / "kernel.csv").write_text("x,y,K\n1,1,0\n"),
     [("legendre-kernel", "kernel.csv differs")]),
    (lambda d: (d / "legendre-mop" / "manifest.json").write_text('{"wall_s": 9}'), []),
    (lambda d: (d / "legendre-mop" / "mop.json").unlink(),
     [("legendre-mop", "mop.json only in the parent")]),
])
def test_cli_bodies_compare_every_file_but_the_manifest(tmp_path, edit, expected):
    codes = [_jobs(tmp_path / side) for side in ("parent", "change")]
    edit(tmp_path / "change")
    assert cli_bodies.differences(tmp_path / "parent", tmp_path / "change", *codes) == expected


def test_cli_bodies_exit_1_on_an_exit_code_difference(tmp_path, monkeypatch, capsys):
    def run_round(root, out, seed):
        codes = _jobs(out)
        return codes if root.name == "parent" else dict(codes, **{"legendre-mop": 2})

    monkeypatch.setattr(cli_bodies, "run_round", run_round)
    args = [str(tmp_path / "parent"), str(tmp_path / "change")]
    assert cli_bodies.main(args) == 1
    assert "legendre-mop: exit code 0 -> 2" in capsys.readouterr().out
    monkeypatch.setattr(cli_bodies, "run_round", lambda root, out, seed: _jobs(out))
    assert cli_bodies.main(args) == 0

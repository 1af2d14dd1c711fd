"""tools/bench_diff.py: per-metric deltas between and within BENCH files."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_diff


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

"""tools/bench_diff.py: per-metric deltas between and within BENCH files, and
the paired medians that tools/bench_pairs.py records; tools/cli_bodies.py
and tools/same_outputs.py: the comparisons of two checkouts' CLI output
bodies and workload outputs."""

import array
import base64
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_diff
import bench_pairs
import cli_bodies
import same_outputs


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


#: every output file is compared; manifest.json as JSON without started and finished
@pytest.mark.parametrize("edit,expected", [
    (lambda d: None, []),
    (lambda d: (d / "legendre-kernel" / "kernel.csv").write_text("x,y,K\n1,1,0\n"),
     [("legendre-kernel", "kernel.csv differs")]),
    (lambda d: (d / "legendre-mop" / "manifest.json").write_text(
        '{"wall_s": 1, "started": "t0", "finished": "t1"}'), []),
    (lambda d: (d / "legendre-mop" / "mop.json").unlink(),
     [("legendre-mop", "mop.json only in the parent")]),
    (lambda d: (d / "legendre-kernel" / "manifest.json").write_text('{"wall_s": 9}'),
     [("legendre-kernel", "manifest.json differs")]),
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


def test_cli_bodies_print_the_deviation_of_differing_cells(tmp_path, monkeypatch, capsys):
    changed = {"legendre-kernel": {"kernel.csv": "# n = 2\nx,y,K\n0.5,0.5,1.25\n1.0,nan,-3.0\n",
                                   "manifest.json": '{"wall_s": 2, "ok": true}'},
               "legendre-mop": {"mop.json": '{"roots": [0.5, -0.5], "n": 2}',
                                "manifest.json": '{"wall_s": 1, "ok": true}'}}
    edited = {"legendre-kernel": {"kernel.csv": "# n = 2\nx,y,K\n0.5,0.5,1.25\n1.0,nan,-3.5\n",
                                  "manifest.json": '{"wall_s": 2, "ok": false, "defect": 1}'},
              "legendre-mop": {"mop.json": '{"roots": [0.5, -0.75], "n": 2}',
                               "manifest.json": '{"wall_s": 1, "ok": true}'}}
    monkeypatch.setattr(cli_bodies, "run_round", lambda root, out, seed: _jobs(
        out, changed if root.name == "parent" else edited))
    assert cli_bodies.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    assert capsys.readouterr().out.splitlines()[:3] == [
        "legendre-kernel: kernel.csv differs, 1 numeric cells differ, "
        "max |deviation| 0.5 of max |value| 3.5",
        "legendre-kernel: manifest.json differs, 1 numeric cells in the parent, 2 in the change",
        "legendre-mop: mop.json differs, 1 numeric cells differ, "
        "max |deviation| 0.25 of max |value| 2"]


def test_same_outputs_compare_digests():
    parent = {"zeros legendre (6,)": "a1", "zeros legendre (10,)": "b1",
              "ensemble kernel angelesco (float)": "c1", "failed operations": "d1"}
    assert same_outputs.differences(parent, dict(parent)) == []
    change = dict(parent, **{"zeros legendre (6,)": "a2", "zeros nikishin (2, 2)": "e1"})
    del change["failed operations"]
    assert same_outputs.differences(parent, change) == [
        ("failed operations", "only in the parent"),
        ("zeros legendre (6,)", "differs"),
        ("zeros nikishin (2, 2)", "only in the change"),
    ]


def test_same_outputs_exit_1_on_a_difference(tmp_path, monkeypatch, capsys):
    args = [str(tmp_path / "parent"), str(tmp_path / "change")]
    monkeypatch.setattr(same_outputs, "snapshot", lambda root, seed: {"k": root.name, "s": "0"})
    assert same_outputs.main(args) == 1
    assert capsys.readouterr().out.splitlines() == ["k: differs", "1 of 2 outputs differ"]
    monkeypatch.setattr(same_outputs, "snapshot", lambda root, seed: {"k": "0", "s": "0"})
    assert same_outputs.main(args) == 0
    assert "0 of 2 outputs differ" in capsys.readouterr().out


def test_same_outputs_print_the_deviation_of_differing_values():
    def entry(digest, *vals):
        return [digest, base64.b64encode(array.array("d", vals).tobytes()).decode()]

    parent = {"zeros angelesco (5, 5)": entry("a1", 1.0, -4.0, 0.0),
              "ensemble kernel nikishin (mp)": entry("b1", 0.5, 0.25)}
    change = {"zeros angelesco (5, 5)": entry("a2", 1.0, -4.0, 2e-30),
              "ensemble kernel nikishin (mp)": entry("b2", 0.5)}
    assert same_outputs.differences(parent, change) == [
        ("ensemble kernel nikishin (mp)", "differs, 2 values in the parent, 1 in the change"),
        ("zeros angelesco (5, 5)", "differs, max |deviation| 2e-30 of max |value| 4"),
    ]


def test_same_outputs_record_each_field_apart():
    from types import SimpleNamespace

    import mpmath
    import numpy as np

    third = mpmath.mpf(1) / 3
    with mpmath.workdps(40):
        finer = third + mpmath.mpf(2) ** -70  # the same float and repr, more bits

    def fields(dps, c=third):
        ts = SimpleNamespace(hp_dps=dps, hp_rows_dps=48, condition_estimate=2.5e9,
                             hp_coeffs=((c, mpmath.mpf(2)), ()))
        K = SimpleNamespace(psi=np.array([[c, c * 0], [c, c]], dtype=object))
        return {**same_outputs._fields("zeros nikishin (3, 3) type I", ts,
                                       ("hp_dps", "hp_rows_dps", "condition_estimate",
                                        "hp_coeffs")),
                **same_outputs._fields("ensemble kernel angelesco (float)", None, ("dps",)),
                **same_outputs._fields("ensemble kernel nikishin (mp)", K, ("psi",))}

    parent = fields(41)
    assert sorted(parent) == ["ensemble kernel nikishin (mp) psi",
                              "zeros nikishin (3, 3) type I condition_estimate",
                              "zeros nikishin (3, 3) type I hp_coeffs",
                              "zeros nikishin (3, 3) type I hp_dps",
                              "zeros nikishin (3, 3) type I hp_rows_dps"]
    assert same_outputs.differences(parent, fields(40)) == [
        ("zeros nikishin (3, 3) type I hp_dps", "differs, max |deviation| 1 of max |value| 41"),
    ]
    assert repr(finer) == repr(third) and float(finer) == float(third)
    assert same_outputs.differences(parent, fields(41, finer)) == [
        ("ensemble kernel nikishin (mp) psi", "differs, max |deviation| 0 of max |value| 0.333"),
        ("zeros nikishin (3, 3) type I hp_coeffs", "differs, max |deviation| 0 of max |value| 2"),
    ]


def test_same_outputs_record_each_kernels_rung_and_condition():
    from types import SimpleNamespace

    import mpmath
    import numpy as np

    def kernel(cond, dps=0):
        psi = np.array([[mpmath.mpf(2), mpmath.mpf(-1)]], dtype=object)
        return SimpleNamespace(condition_estimate=cond, psi=psi,
                               mp=SimpleNamespace(dps=dps) if dps else None)

    label = "ensemble kernel nikishin (mp)"
    on_float, on_mp = (same_outputs._kernel_fields(label, K)
                       for K in (kernel(4.5e5), kernel(2.5e14, dps=45)))
    assert sorted(on_float) == [f"{label} condition_estimate", f"{label} rung"]
    assert sorted(on_mp) == sorted([*on_float, f"{label} dps", f"{label} psi"])
    # a kernel that changes rung shows as its own output
    assert same_outputs.differences(on_float, on_mp) == [
        (f"{label} condition_estimate", "differs, max |deviation| 2.5e+14 of max |value| 2.5e+14"),
        (f"{label} dps", "only in the change"),
        (f"{label} psi", "only in the change"),
        (f"{label} rung", "differs"),
    ]
    again = same_outputs._kernel_fields(label, kernel(2.5e14, dps=45))
    assert same_outputs.differences(on_mp, again) == []


def test_same_outputs_record_each_mp_row_with_its_rule():
    from types import SimpleNamespace

    import mpmath

    third = mpmath.mpf(1) / 3
    with mpmath.workdps(40):
        finer = third + mpmath.mpf(2) ** -70  # the same float, more bits

    def table(row, rule=None):
        mt = SimpleNamespace(mp_rows={48: [[mpmath.mpf(2), third], row]})
        if rule:  # a checkout that records how each row was computed
            mt.mp_quad = {48: [{"rule": "closed form"}, {"rule": rule}]}
        return same_outputs._row_outputs("zeros nikishin", mt)

    parent = table([third, mpmath.mpf(-1)])
    assert sorted(parent) == ["zeros nikishin mp rows 48 w1", "zeros nikishin mp rows 48 w1 record",
                              "zeros nikishin mp rows 48 w2", "zeros nikishin mp rows 48 w2 record"]
    assert parent["zeros nikishin mp rows 48 w2"][2] == {
        "exact": same_outputs._exact([third, mpmath.mpf(-1)]), "rule": None}
    # the same bits from another rule are the same output
    assert same_outputs.differences(parent, table([third, mpmath.mpf(-1)], "gauss-legendre")) == []
    [(key, reason)] = same_outputs.differences(parent, table([finer, mpmath.mpf(-1)], "tanh-sinh"))
    assert key == "zeros nikishin mp rows 48 w2"
    assert reason.startswith("differs, max |deviation| 0 of max |value| 1, relative deviation ")
    assert reason.endswith(" (None -> tanh-sinh)")
    assert float(reason.split()[-4]) == pytest.approx(2.0 ** -70)


def test_same_outputs_report_a_changed_level_and_bordered_value(monkeypatch):
    from types import SimpleNamespace

    import mpmath

    import mopkit as mk

    def table(level):
        record = {"rule": "gauss-legendre", "level": level, "error_max": 1e-50, "open": []}
        mt = SimpleNamespace(mp_rows={48: [[mpmath.mpf(1) / 3]]}, mp_quad={48: [record]})
        return same_outputs._row_outputs("zeros nikishin", mt)

    # the same row from a pass that stopped one level later
    assert same_outputs.differences(table(5), table(6)) == [
        ("zeros nikishin mp rows 48 w1 record", "differs, max |deviation| 1 of max |value| 6")]
    C, parts = mk.WeightSpec.constant, (4, 4)
    ws = mk.build_nikishin(C(1.0, 2.0), [C(-1.0, 0.0)])
    K = mk.biorthogonalize(mk.block_hankel(mk.moment_table(ws, 16), parts), ws, parts)
    assert K.mp is not None
    label = "ensemble kernel nikishin (mp)"
    parent = same_outputs._bordered_fields(label, K)
    assert sorted(parent) == [f"{label} bordered", f"{label} det_m"]
    assert same_outputs.differences(parent, same_outputs._bordered_fields(label, K)) == []
    plain = mk.kernel_eval_bordered
    monkeypatch.setattr(mk, "kernel_eval_bordered", lambda K, x, y: plain(K, x, y) + (x == 1.5))
    [(key, reason)] = same_outputs.differences(parent, same_outputs._bordered_fields(label, K))
    assert key == f"{label} bordered" and reason.startswith("differs, max |deviation| 1 of ")


def test_same_outputs_report_a_solve_against_a_re_solve_at_twice_the_dps(tmp_path, monkeypatch,
                                                                         capsys):
    # a planted deviation of 2^-100 in the change's type I coefficients,
    # cond1 1e10 at 40 digits: 7.89e-31 relative, 0.789 units of cond1 10^-40
    key = "zeros nikishin (5, 5) type I hp_coeffs"
    record = ["type I", "nikishin", [5, 5], 18, 40, 1e10, "hp_coeffs"]
    ref = [[1, 0], [3, -2]]  # 1 and 0.75
    sides = {"parent": {key: ["a1", "", {"exact": ref, "solve": record}]},
             "change": {key: ["a2", "", {"exact": [[2 ** 100 + 1, -100], [3, -2]],
                                         "solve": record}]}}
    runs = []

    def run(checkout, *args):
        runs.append(args[0])
        return {key: ref}

    monkeypatch.setattr(same_outputs, "snapshot", lambda root, seed: sides[root.name])
    monkeypatch.setattr(same_outputs, "_run", run)
    assert same_outputs.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    assert runs == ["--solves"]
    assert capsys.readouterr().out.splitlines() == [
        f"{key}: differs",
        f"{key}: deviation from a re-solve at 80 digits, relative parent 0 (0 cond1 10^-40), "
        "change 7.89e-31 (0.789 cond1 10^-40)",
        "1 of 1 outputs differ"]


def test_same_outputs_report_a_changed_moment_pass_record():
    from types import SimpleNamespace

    import numpy as np

    def table(panels):
        return SimpleNamespace(raw=np.ones((1, 3)), scaled=np.zeros((1, 3)),
                               errors=np.full((1, 2, 3), 1e-15), panels=panels)

    label = "zeros legendre"
    parent = same_outputs._table_outputs(label, table(np.ones((1, 2, 3), dtype=int)))
    assert sorted(parent) == [f"{label} moment errors", f"{label} moment panels",
                              f"{label} moment table"]
    planted = np.ones((1, 2, 3), dtype=int)
    planted[0, 1, 2] = 3  # one row of the scaled pass accepted two more panels
    assert same_outputs.differences(parent, same_outputs._table_outputs(label, table(planted))) \
        == [(f"{label} moment panels", "differs, max |deviation| 2 of max |value| 3")]
    assert same_outputs._table_outputs(label, None) == {
        f"{label} moment table": same_outputs._output(b"failed")}


def test_same_outputs_compare_the_hull_rows_records_across_record_shapes():
    from types import SimpleNamespace

    import numpy as np

    def table(errors, panels):
        return SimpleNamespace(raw=np.ones((2, 3)), scaled=np.zeros((2, 3)),
                               errors=errors, panels=panels)

    # a (p, 2, k_max + 1) record of raw then hull rows against the hull rows alone
    errors, panels = np.arange(12.0).reshape(2, 2, 3) * 1e-16, np.arange(12).reshape(2, 2, 3)
    label = "zeros angelesco"
    parent = same_outputs._table_outputs(label, table(errors, panels))
    hull = same_outputs._table_outputs(label, table(errors[:, 1].copy(), panels[:, 1].copy()))
    assert same_outputs.differences(parent, hull) == []
    raw_only = same_outputs._table_outputs(label, table(errors[:, 0].copy(), panels[:, 0].copy()))
    assert [name for name, _ in same_outputs.differences(parent, raw_only)] == [
        f"{label} moment errors", f"{label} moment panels"]

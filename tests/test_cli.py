import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mopkit import cli

CONFIGS = Path(__file__).parent.parent / "configs"


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


LEGENDRE = {
    "kind": "angelesco",
    "weights": [{"family": "constant", "interval": [-1.0, 1.0]}],
    "multi_index": [2],
    "seed": 7,
}

#: configs that every command must reject with exit 1, by test id
MALFORMED = {
    "multi_index_str": dict(LEGENDRE, multi_index=["a"]),
    "seed_str": dict(LEGENDRE, seed="x"),
    "top_level_list": [LEGENDRE],
    "nan_jacobi": dict(LEGENDRE, weights=[{"family": "jacobi", "interval": [-1.0, 1.0],
                                           "params": {"alpha": float("nan"), "beta": 0.0}}]),
    "interval_str": dict(LEGENDRE, weights=[{"family": "constant", "interval": ["a", 1.0]}]),
    "ray_str": dict(LEGENDRE, schedule={"ray": ["a"], "totals": [2]}),
    "jacobi_alpha_str": dict(LEGENDRE, weights=[{"family": "jacobi", "interval": [-1.0, 1.0],
                                                 "params": {"alpha": "x", "beta": 0.0}}]),
    "exp_poly_coeff_str": dict(LEGENDRE, weights=[{"family": "exp_poly",
                                                   "interval": [-1.0, 1.0],
                                                   "params": {"coeffs": ["a"]}}]),
    "jacobi_params_bool_and_str": dict(LEGENDRE, weights=[{
        "family": "jacobi", "interval": [-1.0, 1.0], "params": {"alpha": True, "beta": "0.5"}}]),
    "exp_poly_coeffs_not_list": dict(LEGENDRE, weights=[{"family": "exp_poly",
                                                         "interval": [-1.0, 1.0],
                                                         "params": {"coeffs": "12"}}]),
    "interval_bool": dict(LEGENDRE, weights=[{"family": "constant", "interval": [True, 2.0]}]),
    "params_list": dict(LEGENDRE, weights=[{"family": "constant", "interval": [-1.0, 1.0],
                                            "params": [1]}]),
    "weight_not_object": dict(LEGENDRE, weights=[1]),
    "z_point_str": dict(LEGENDRE, z_points=["a"]),
    "equilibrium_grid_str": dict(LEGENDRE, equilibrium={"grid": "a"}),
    "generators_not_list": dict(LEGENDRE, generators=5),
}

ANGELESCO = {
    "kind": "angelesco",
    "weights": [{"family": "constant", "interval": [-1.0, 0.0]},
                {"family": "constant", "interval": [0.0, 1.0]}],
    "multi_index": [1, 1],
    "seed": 3,
}


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        code = cli.main(["validate", write_config(tmp_path, LEGENDRE),
                         "--out", str(tmp_path / "o")])
        assert code == 0
        assert "valid" in capsys.readouterr().out

    def test_overlap_names_both_intervals(self, tmp_path, capsys):
        bad = dict(ANGELESCO)
        bad["weights"] = [{"family": "constant", "interval": [-1.0, 0.5]},
                          {"family": "constant", "interval": [0.0, 1.0]}]
        code = cli.main(["validate", write_config(tmp_path, bad),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        out = capsys.readouterr().out
        assert "[-1.0, 0.5]" in out and "[0.0, 1.0]" in out

    def test_nikishin_at_condition_warning(self, tmp_path, capsys):
        cfg = {
            "kind": "nikishin",
            "weights": [{"family": "constant", "interval": [1.0, 2.0]}],
            "generators": [{"family": "constant", "interval": [-1.0, 0.0]}],
            "multi_index": [1, 3],
        }
        code = cli.main(["validate", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 0  # warnings do not fail validation
        assert "AT condition" in capsys.readouterr().out

    def test_weight_params_name_the_weight(self, tmp_path, capsys):
        cfg = dict(NIKISHIN_CFG, generators=[{"family": "jacobi", "interval": [-1.0, 0.0],
                                              "params": {"alpha": True, "beta": "0.5"}}])
        code = cli.main(["mop", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "generators[0]: interval ends and params must be numbers" in \
            capsys.readouterr().err

    def test_unreadable_file(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("cfg,command", [
        pytest.param(cfg, command, id=f"{name}-{command}")
        for name, cfg in MALFORMED.items()
        for command in ("equilibrium", "mop", "validate", "verify")
    ] + [
        pytest.param(dict(LEGENDRE, sampler={"samples": "a"}), "sample",
                     id="sampler_samples_str-sample"),
        pytest.param(dict(LEGENDRE, verify={"sign_trials": "a"}), "verify",
                     id="verify_sign_trials_str-verify"),
        pytest.param(dict(LEGENDRE, equilibrium={"ray": ["a"]}), "equilibrium",
                     id="equilibrium_ray_str-equilibrium"),
        pytest.param(dict(LEGENDRE, equilibrium={"fields": "a"}), "equilibrium",
                     id="equilibrium_fields_str-equilibrium"),
    ])
    def test_malformed_config_exit_1(self, tmp_path, capsys, command, cfg):
        code = cli.main([command, write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert "invalid input" in capsys.readouterr().err


class TestRunCommands:
    def test_mop_emits_expected_coeffs(self, tmp_path):
        code = cli.main(["mop", write_config(tmp_path, LEGENDRE),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0
        rec = json.loads((tmp_path / "o" / "mop.json").read_text())
        assert np.allclose(rec["coeffs"], [-1.0 / 3.0, 0.0, 1.0], atol=1e-12)
        assert rec["residual_max"] < 1e-10
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert "mop.json" in manifest["outputs"]
        for name in manifest["outputs"]:
            target = tmp_path / "o" / name
            assert target.exists() and target.stat().st_size > 0

    def test_typeI(self, tmp_path):
        code = cli.main(["typeI", write_config(tmp_path, ANGELESCO),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0
        rec = json.loads((tmp_path / "o" / "typeI.json").read_text())
        assert np.allclose(rec["components"], [[-1.0], [1.0]], atol=1e-10)

    @pytest.mark.parametrize("config,multi_index,rung", [
        ("nikishin.json", [4, 4], "mp"), ("legendre.json", None, "float")])
    def test_typeI_manifest_records_rung(self, tmp_path, config, multi_index, rung):
        cfg = json.loads((CONFIGS / config).read_text())
        if multi_index is not None:
            cfg["multi_index"] = multi_index
        code = cli.main(["typeI", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        detail = {s["name"]: s for s in manifest["steps"]}["solve"]["detail"]
        assert detail["rung"] == rung
        assert detail["condition_estimate"] > 0
        if rung == "mp":
            assert detail["hp_dps"] >= 30

    @pytest.mark.parametrize("config,multi_index", [
        ("nikishin.json", [4, 4]), ("legendre.json", None)])
    def test_typeI_manifest_records_rows_dps(self, tmp_path, config, multi_index):
        cfg = json.loads((CONFIGS / config).read_text())
        if multi_index is not None:
            cfg["multi_index"] = multi_index
        code = cli.main(["typeI", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        detail = {s["name"]: s for s in manifest["steps"]}["solve"]["detail"]
        if multi_index is None:
            assert detail["rows_dps"] == 0
        else:
            assert detail["rows_dps"] >= detail["hp_dps"] >= 30
            assert detail["rows_dps"] % 16 == 0

    def test_density_and_kernel(self, tmp_path):
        code = cli.main(["density", write_config(tmp_path, LEGENDRE),
                         "--out", str(tmp_path / "d"), "--grid", "64", "--quiet"])
        assert code == 0
        lines = (tmp_path / "d" / "density.csv").read_text().splitlines()
        assert lines[1] == "x,density" and len(lines) == 66
        code = cli.main(["kernel", write_config(tmp_path, LEGENDRE),
                         "--out", str(tmp_path / "k"), "--grid", "8", "--quiet"])
        assert code == 0
        body = (tmp_path / "k" / "kernel.csv").read_text().splitlines()
        assert len(body) == 2 + 64

    def test_non_normal_gives_exit_2(self, tmp_path):
        cfg = {
            "kind": "general",
            "weights": [{"family": "constant", "interval": [-1.0, 1.0]},
                        {"family": "constant", "interval": [-1.0, 1.0]}],
            "multi_index": [1, 1],
        }
        code = cli.main(["mop", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2

    def test_equilibrium_arcsine_density(self, tmp_path):
        cfg = dict(LEGENDRE)
        cfg["equilibrium"] = {"grid": 2000, "max_iter": 8000, "ray": [1.0]}
        code = cli.main(["equilibrium", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "e"), "--quiet"])
        assert code == 0
        lines = (tmp_path / "e" / "equilibrium_1.csv").read_text().splitlines()
        assert lines[2] == "x,mass,density,cdf"
        data = np.asarray([[float(v) for v in ln.split(",")] for ln in lines[3:]])
        mid = np.argmin(np.abs(data[:, 0]))
        assert abs(data[mid, 2] - 1.0 / np.pi) <= 0.01
        report = json.loads((tmp_path / "e" / "equilibrium.json").read_text())
        assert report["converged"]

    def test_verify_passes_and_fails(self, tmp_path):
        cfg = dict(ANGELESCO)
        cfg["sampler"] = {"samples": 8000, "chains": 64, "burn_in": 1500,
                          "thinning": 5}
        cfg["verify"] = {"samples": 8000, "stderr_multiple": 4.0,
                         "sign_trials": 500}
        code = cli.main(["verify", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "v"), "--quiet"])
        assert code == 0
        # absurdly tight tolerance forces a verification failure
        cfg["verify"]["stderr_multiple"] = 1e-6
        code = cli.main(["verify", write_config(tmp_path, cfg, "bad.json"),
                         "--out", str(tmp_path / "vb"), "--quiet"])
        assert code == 3
        rec = json.loads((tmp_path / "vb" / "verify.json").read_text())
        assert not rec["passed"]

    def test_compare_schedule(self, tmp_path):
        cfg = {
            "kind": "angelesco",
            "weights": ANGELESCO["weights"],
            "schedule": {"ray": [0.5, 0.5], "totals": [4, 8]},
            "equilibrium": {"grid": 300, "max_iter": 2000},
        }
        code = cli.main(["compare", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "c"), "--quiet"])
        assert code == 0
        lines = (tmp_path / "c" / "compare.csv").read_text().splitlines()
        assert lines[1] == "n,component,kolmogorov_distance"
        assert len(lines) == 2 + 4  # two totals x two components


class TestDeterminism:
    def test_sample_rerun_byte_identical(self, tmp_path):
        cfg = dict(ANGELESCO)
        cfg["sampler"] = {"samples": 3000, "chains": 32, "burn_in": 500,
                          "thinning": 2}
        path = write_config(tmp_path, cfg)
        for d in ("r1", "r2"):
            assert cli.main(["sample", path, "--out", str(tmp_path / d),
                             "--quiet"]) == 0
        b1 = (tmp_path / "r1" / "samples.csv").read_bytes()
        b2 = (tmp_path / "r2" / "samples.csv").read_bytes()
        assert b1 == b2

    def test_seed_override_changes_output(self, tmp_path):
        cfg = dict(ANGELESCO)
        cfg["sampler"] = {"samples": 1000, "chains": 32, "burn_in": 200,
                          "thinning": 2}
        path = write_config(tmp_path, cfg)
        assert cli.main(["sample", path, "--out", str(tmp_path / "a"),
                         "--quiet"]) == 0
        assert cli.main(["sample", path, "--out", str(tmp_path / "b"),
                         "--seed", "99", "--quiet"]) == 0
        assert (tmp_path / "a" / "samples.csv").read_bytes() != \
            (tmp_path / "b" / "samples.csv").read_bytes()


def test_shipped_configs_are_valid(tmp_path):
    for name in ("legendre.json", "angelesco11.json", "nikishin.json",
                 "arcsine.json", "angelesco_compare.json"):
        assert cli.main(["validate", str(CONFIGS / name),
                         "--out", str(tmp_path / "o"), "--quiet"]) == 0


def _leaves(obj, path=()):
    """Key paths to every scalar in a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path]
    return [leaf for k, v in items for leaf in _leaves(v, path + (k,))]


SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}

JSON_VALUES = st.one_of(
    st.text(max_size=4), st.just(float("nan")), st.floats(), st.booleans(), st.none(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(SHIPPED)), data=st.data())
def test_validate_fuzzed_config_exit_code(fuzz_dir, name, data):
    # one leaf of a shipped config replaced by an arbitrary JSON value
    cfg = json.loads(json.dumps(SHIPPED[name]))
    *head, last = data.draw(st.sampled_from(_leaves(cfg)))
    parent = cfg
    for key in head:
        parent = parent[key]
    parent[last] = data.draw(JSON_VALUES)
    code = cli.main(["validate", write_config(fuzz_dir, cfg), "--out", str(fuzz_dir / "o"),
                     "--quiet"])
    assert code in (0, 1, 2, 3)


#: shipped configs with a multi-index, for the commands that solve at it
SOLVED = sorted(name for name, cfg in SHIPPED.items() if "multi_index" in cfg)
#: (command, shipped config) pairs for every command
FUZZED_RUNS = ([(cmd, name) for cmd in ("mop", "typeI", "kernel", "density", "sample", "verify")
                for name in SOLVED]
               + [("equilibrium", name) for name in sorted(SHIPPED)]
               + [("compare", name) for name, cfg in sorted(SHIPPED.items())
                  if "schedule" in cfg])

#: sizes that the solve fuzz lowers, to these bounds, to stay cheap
SMALL_SIZES = {"equilibrium.grid": 64, "sampler.samples": 512, "sampler.chains": 16,
               "sampler.burn_in": 50, "sampler.thinning": 2, "verify.samples": 512,
               "verify.sign_trials": 100}


def _shrink_sizes(cfg):
    """Lower every numeric size above its ``SMALL_SIZES`` bound to that bound,
    unless it passes the CLI's cap, which the fuzz must reach; an absent or
    null size (the CLI's default) gets the bound too."""
    for key, small in SMALL_SIZES.items():
        block, name = key.split(".")
        sub = cfg.setdefault(block, {})
        v = sub.get(name) if isinstance(sub, dict) else small
        if v is None or isinstance(v, (int, float)) and small < v <= cli.SIZE_CAPS[key]:
            sub[name] = small


@settings(max_examples=300)
@given(run=st.sampled_from(FUZZED_RUNS), data=st.data())
def test_solve_fuzzed_config_exit_code(fuzz_dir, run, data):
    command, name = run
    cfg = json.loads(json.dumps(SHIPPED[name]))
    *head, last = data.draw(st.sampled_from(_leaves(cfg)))
    parent = cfg
    for key in head:
        parent = parent[key]
    parent[last] = data.draw(JSON_VALUES)
    _shrink_sizes(cfg)
    code = cli.main([command, write_config(fuzz_dir, cfg), "--out", str(fuzz_dir / "o"),
                     "--quiet", "--grid", "16"])
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("command,extra,flags,key", [
    ("equilibrium", {"equilibrium": {"grid": 1e300}}, [], "equilibrium.grid"),
    ("sample", {"sampler": {"samples": 1e300}}, [], "sampler.samples"),
    ("kernel", {}, ["--grid", "100000000000"], "grid"),
])
def test_oversized_sizes_are_rejected(tmp_path, capsys, command, extra, flags, key):
    cfg = dict(SHIPPED["legendre.json"], **extra)
    code = cli.main([command, write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                     *flags])
    assert code == 1
    assert f"error: {key} must be at most {cli.SIZE_CAPS[key]}" in capsys.readouterr().err


@pytest.mark.parametrize("block", ["sampler", "verify"])
def test_samples_flag_on_a_block_that_is_not_an_object(tmp_path, capsys, block):
    cfg = dict(LEGENDRE, **{block: 5})
    code = cli.main(["sample", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                     "--samples", "100"])
    assert code == 1
    assert f"error: {block} must be an object" in capsys.readouterr().err


def test_null_reads_as_an_absent_key(tmp_path):
    # a null size passed validation and then failed in int(None)
    cfg = dict(LEGENDRE, seed=None, equilibrium={"grid": None, "ray": [1.0]})
    loaded = cli._load_config(write_config(tmp_path, cfg))
    assert "seed" not in loaded and loaded["equilibrium"] == {"ray": [1.0]}
    assert cli.main(["equilibrium", write_config(tmp_path, dict(cfg, seed=1)), "--out",
                     str(tmp_path / "o"), "--quiet"]) == 0


#: top-level keys the CLI reads
KNOWN_KEYS = {"kind", "weights", "generators", "multi_index", "schedule", "seed",
              "output_dir", "grid", "sampler", "equilibrium", "z_points", "verify"}


@settings(max_examples=60)
@given(command=st.sampled_from(["validate", "mop"]),
       key=st.just("moment_tol") | st.text(max_size=6).filter(lambda k: k not in KNOWN_KEYS),
       value=JSON_VALUES)
def test_unknown_top_level_key_is_ignored(fuzz_dir, command, key, value):
    cfg = dict(LEGENDRE, **{key: value})
    code = cli.main([command, write_config(fuzz_dir, cfg), "--out", str(fuzz_dir / "o"),
                     "--quiet"])
    assert code == 0


NIKISHIN_CFG = json.loads((CONFIGS / "nikishin.json").read_text())


@pytest.mark.parametrize("multi_index,rung", [([4, 4], "mp"), ([2, 1], "float")])
def test_mop_manifest_records_rung(tmp_path, multi_index, rung):
    cfg = dict(NIKISHIN_CFG, multi_index=multi_index)
    code = cli.main(["mop", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                     "--quiet"])
    assert code == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    detail = {s["name"]: s for s in manifest["steps"]}["solve"]["detail"]
    assert detail["rung"] == rung
    assert (detail["hp_dps"] >= 30) if rung == "mp" else (detail["hp_dps"] == 0)


@pytest.mark.parametrize("command", ["kernel", "density"])
def test_kernel_manifest_records_the_proxy(tmp_path, command):
    cfg = dict(NIKISHIN_CFG, multi_index=[4, 4])
    code = cli.main([command, write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                     "--grid", "12", "--quiet"])
    assert code == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    detail = {s["name"]: s for s in manifest["steps"]}["biorthogonalize"]["detail"]
    assert detail["rung"] == "mp" and detail["hp_dps"] >= 30
    [record] = detail["evaluation"]
    assert record["segment"] == [1.0, 2.0] and "direct" not in record
    assert record["nodes"] >= 16 and record["tail"] <= 1e-13


def test_typeI_manifest_records_the_proxy(tmp_path):
    cfg = dict(NIKISHIN_CFG, multi_index=[4, 4])
    code = cli.main(["typeI", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                     "--quiet"])
    assert code == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    [record] = {s["name"]: s for s in manifest["steps"]}["solve"]["detail"]["evaluation"]
    assert record["tail"] <= 1e-13 and "direct" not in record


def test_precision_exhausted_exit_2(tmp_path, capsys):
    cfg = dict(NIKISHIN_CFG, multi_index=[14, 14])
    code = cli.main(["mop", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                     "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "numeric failure" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "equilibrium"])
@pytest.mark.parametrize("ray", [[-0.5, 1.5], [0.5, 0.5, 0.0]], ids=["negative", "extra_part"])
def test_equilibrium_ray_rejected(tmp_path, capsys, command, ray):
    cfg = dict(NIKISHIN_CFG, equilibrium={"ray": ray})
    code = cli.main([command, write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                     "--quiet"])
    assert code == 1
    captured = capsys.readouterr()
    assert "equilibrium.ray" in captured.out + captured.err


def test_unsettled_equilibrium_exit_2(tmp_path, capsys):
    cfg = dict(LEGENDRE, weights=[{"family": "constant", "interval": [-2.0, 2.0]}],
               equilibrium={"grid": 200, "max_iter": 1, "fields": [[0, 0, 8.0]]})
    code = cli.main(["equilibrium", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                     "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "numeric failure" in err and "Traceback" not in err


def test_write_csv_matches_per_cell_reference(tmp_path):
    def cell(v):
        return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))

    ints = np.array([0, -3, 2 ** 53 + 1], dtype=np.int64)
    floats = [-0.0, 5e-324, 1e300]
    scalars = [np.float64(0.1), np.float64(-2.5e-7), np.float64(1.0 / 3.0)]
    blocks = [(ints, floats, scalars),
              ([np.int64(7), 8, 9], np.array([1e16, -1e-5, 123456789.125]), [1.5, 2.0, -0.0]),
              (np.array([], dtype=np.int64), [], np.array([])),  # writes nothing
              (np.array([4], dtype=np.int32), [np.float64(5e-324)], np.array([-1e300]))]
    path = tmp_path / "t.csv"
    cli._write_csv(path, ["a", "b", "c"], blocks, ["note"])
    ref = "# note\na,b,c\n" + "".join(",".join(map(cell, row)) + "\n"
                                     for cols in blocks for row in zip(*cols))
    assert path.read_bytes() == ref.encode()


def test_kernel_writes_grid_squared_rows(tmp_path):
    m = 7
    code = cli.main(["kernel", write_config(tmp_path, LEGENDRE), "--out", str(tmp_path / "k"),
                     "--grid", str(m), "--quiet"])
    assert code == 0
    rows = [ln.split(",") for ln in
            (tmp_path / "k" / "kernel.csv").read_text().splitlines()[2:]]
    assert len(rows) == m * m
    grid = [repr(x) for x in np.linspace(-1.0, 1.0, m).tolist()]
    assert [r[0] for r in rows] == [x for x in grid for _ in range(m)]
    assert [r[1] for r in rows] == grid * m
    assert all(np.isfinite(float(r[2])) for r in rows)


def test_equilibrium_grid_ignores_top_level_grid(tmp_path):
    cfg = dict(LEGENDRE, grid=50, equilibrium={"grid": 300})
    for flags, sub in (([], "a"), (["--grid", "20"], "b")):
        code = cli.main(["equilibrium", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / sub), "--quiet", *flags])
        assert code == 0
        rec = json.loads((tmp_path / sub / "equilibrium.json").read_text())
        assert rec["grid"] == [300]


#: the shipped config that each command's manifest test runs on
MANIFEST_RUNS = [("mop", "legendre.json"), ("typeI", "nikishin.json"),
                 ("kernel", "angelesco11.json"), ("density", "arcsine.json"),
                 ("sample", "nikishin.json"), ("verify", "legendre.json"),
                 ("equilibrium", "nikishin.json"), ("compare", "angelesco_compare.json"),
                 ("validate", "legendre.json")]


@pytest.mark.parametrize("command,name", MANIFEST_RUNS)
def test_manifest_lists_exactly_the_written_files(tmp_path, command, name):
    cfg = json.loads(json.dumps(SHIPPED[name]))
    _shrink_sizes(cfg)
    out = tmp_path / "o"
    code = cli.main([command, write_config(tmp_path, cfg), "--out", str(out), "--quiet",
                     "--grid", "16"])
    assert code == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert sorted(outputs) == written and len(set(outputs)) == len(outputs)
    assert (written == []) == (command == "validate")


@pytest.mark.parametrize("config,block,message", [
    (json.dumps(LEGENDRE).encode(), lambda out: out.write_text(""), "cannot write output"),
    (json.dumps(LEGENDRE).encode(), lambda out: (out / "manifest.json").mkdir(parents=True),
     "cannot write output"),
    (json.dumps(dict(LEGENDRE, output_dir="o\0")).encode(), None, "output_dir"),
    ('{"kind": "é"}'.encode("latin-1"), None, "cannot read config"),
    (b'{"kind": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", None, "cannot read config"),
], ids=["out_is_a_file", "manifest_is_a_directory", "nul_in_output_dir", "not_utf8",
        "nested_too_deeply"])
def test_unusable_files_exit_1(tmp_path, capsys, config, block, message):
    (tmp_path / "cfg.json").write_bytes(config)
    args = ["validate", str(tmp_path / "cfg.json")]
    if block is not None:
        block(tmp_path / "o")
        args += ["--out", str(tmp_path / "o")]
    assert cli.main(args) == 1
    assert f"invalid input: {message}" in capsys.readouterr().err


def test_verify_fails_on_a_non_finite_deviation(tmp_path):
    # P(z) and the Monte Carlo estimate both overflow, and their difference is NaN
    cfg = dict(LEGENDRE, multi_index=[3], z_points=[[1e308, 1e308]])
    with pytest.warns(RuntimeWarning):
        code = cli.main(["verify", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                         "--samples", "2000", "--quiet"])
    assert code == 3
    rec = json.loads((tmp_path / "o" / "verify.json").read_text())
    [check] = [c for c in rec["checks"] if c["name"] == "mc_char_poly"]
    assert not rec["passed"] and not check["passed"]
    assert not np.isfinite(check["detail"]["worst_dev_over_stderr"])


@pytest.mark.parametrize("intervals", [[[-1.0, 0.5], [0.0, 1.0]], [[-1.0, 1.0], [-1.0, 1.0]]],
                         ids=["overlapping", "identical"])
def test_equilibrium_rejects_overlapping_supports(tmp_path, capsys, intervals):
    cfg = {"kind": "general",
           "weights": [{"family": "constant", "interval": iv} for iv in intervals]}
    code = cli.main(["equilibrium", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"),
                     "--quiet"])
    assert code == 1
    assert "invalid input: Angelesco intervals overlap" in capsys.readouterr().err


def test_nikishin_compare_writes_component_1_only(tmp_path):
    cfg = dict(NIKISHIN_CFG, schedule={"ray": [0.5, 0.5], "totals": [4, 8]},
               equilibrium={"grid": 200})
    code = cli.main(["compare", write_config(tmp_path, cfg), "--out", str(tmp_path / "c"),
                     "--quiet"])
    assert code == 0
    rows = (tmp_path / "c" / "compare.csv").read_text().splitlines()[2:]
    assert [r.split(",")[:2] for r in rows] == [["4", "1"], ["8", "1"]]
    assert all(float(r.split(",")[2]) > 0.0 for r in rows)

"""The package's exports, and which modules each CLI command loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mopkit as mk

ROOT = Path(__file__).parent.parent

#: module -> the names ``mopkit`` exported from it when every module was imported
#: eagerly; each must still resolve, to that module's own object
EXPORTS = {
    "ensemble": ("Kernel", "MCEstimate", "MarginalizationReport", "SignReport",
                 "angelesco_density", "basis_f", "basis_g", "biorthogonalize",
                 "cauchy_transform_type1", "cauchy_vandermonde_det", "delta_cross",
                 "g_determinant", "joint_density", "kernel_eval", "kernel_eval_bordered",
                 "kernel_trace", "marginalization_check", "mc_char_poly",
                 "mc_inverse_char_poly", "mean_density", "nikishin_extended_density",
                 "sign_constancy_check", "vandermonde"),
    "equilibrium": ("DiscreteMeasure", "EquilibriumProblem", "EquilibriumReport",
                    "energy_functional", "interaction_matrix", "kolmogorov_distance",
                    "log_energy", "minimize_equilibrium", "zero_counting_measure"),
    "exceptions": ("ConstructionError", "DomainError", "MopkitError", "NonNormalIndexError",
                   "NumericError", "PrecisionExhausted", "QuadratureError",
                   "SingularEnergyError", "ValidationError", "VerificationFailure"),
    "mop": ("DetReport", "HankelBlockMatrix", "MultiIndex", "Polynomial", "TypeISystem",
            "block_hankel", "normality_determinant", "orthogonality_residuals", "poly_roots",
            "type1_condition_residuals", "type1_mop", "type2_mop"),
    "sampling": ("SampleBatch", "SamplerConfig", "sample_mcmc"),
    "weights": ("Interval", "MomentTable", "Weight", "WeightSpec", "WeightSystem",
                "build_angelesco", "build_nikishin", "moment_table", "moments",
                "stieltjes_transform"),
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_resolves_to_its_module_object(module):
    mod = importlib.import_module(f"mopkit.{module}")
    for name in EXPORTS[module]:
        assert getattr(mk, name) is getattr(mod, name), name
        assert name in vars(mk) and name in dir(mk), name  # bound on first use


def test_all_lists_exactly_the_exports():
    assert sorted(mk.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert mk.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mk.no_such_name


def loaded_after(tmp_path, command, config, modules):
    """Which of ``modules`` a fresh process holds after ``cli.main`` runs ``command``."""
    code = ("import sys; from mopkit import cli; code = cli.main(sys.argv[2:]); "
            "print(code, *[m for m in sys.argv[1].split(',') if m in sys.modules])")
    argv = [",".join(modules), command, str(ROOT / "configs" / f"{config}.json"),
            "--out", str(tmp_path), "--quiet"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                         capture_output=True, text=True)
    code, *loaded = run.stdout.split()
    assert code == "0", run.stdout + run.stderr
    return set(loaded)


@pytest.mark.parametrize("command, config, unloaded", [
    ("validate", "legendre", ("numpy", "mpmath", "mopkit.weights", "mopkit.mop")),
    ("mop", "legendre", ("mpmath", "mopkit.highprec")),
    ("typeI", "legendre", ("mpmath", "mopkit.highprec")),
    ("kernel", "legendre", ("mpmath", "mopkit.highprec")),
    ("density", "legendre", ("mpmath", "mopkit.highprec")),
    ("verify", "legendre", ("mpmath", "mopkit.highprec")),
])
def test_command_leaves_what_it_does_not_run_unloaded(tmp_path, command, config, unloaded):
    assert loaded_after(tmp_path, command, config, unloaded) == set()


def test_float_kernel_bordered_value_leaves_mpmath_unloaded():
    code = ("import sys; import mopkit as mk; C = mk.WeightSpec.constant; "
            "ws = mk.build_angelesco([C(-1.0, 0.0), C(0.0, 1.0)]); "
            "K = mk.biorthogonalize(mk.block_hankel(mk.moment_table(ws, 6), (2, 2)), ws, (2, 2)); "
            "mk.kernel_eval_bordered(K, 0.3, -0.4); print(K.mp is None, 'mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.split() == ["True", "False"], run.stdout  # float rung, no mpmath


def test_compare_on_the_mpmath_rung_loads_it(tmp_path):
    modules = ("numpy", "mpmath", "mopkit.highprec")
    assert loaded_after(tmp_path, "compare", "angelesco_compare", modules) == set(modules)


def test_unique_points_leave_numpy_ma_unloaded():
    # np.unique and np.union1d import numpy.ma (about 8 ms) on first use:
    # the Markov panels' and the type I check's breakpoints, g_determinant's
    # repeated points and kolmogorov_distance's merged grid sort instead
    code = ("import sys; import mopkit as mk; C = mk.WeightSpec.constant; "
            "ws = mk.build_nikishin(C(1.0, 2.0), [C(-1.0, 0.0)]); "
            "ts = mk.type1_mop(mk.moment_table(ws, 8), (2, 2)); "
            "mk.type1_condition_residuals(ts); "
            "zero = mk.g_determinant(ws, (2, 2), [1.1, 1.2, 1.2, 1.4]); "
            "mu = mk.DiscreteMeasure([1.2, 1.5], [0.5, 0.5]); "
            "nu = mk.DiscreteMeasure([1.3, 1.5], [0.5, 0.5]); "
            "print(zero, mk.kolmogorov_distance(mu, nu), 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.split() == ["0.0", "0.5", "False"], run.stdout


def test_compare_leaves_numpy_ma_unloaded(tmp_path):
    assert loaded_after(tmp_path, "compare", "angelesco_compare", ("numpy.ma",)) == set()


#: private mpmath names whose meaning any mpmath release may change, while
#: ``pyproject.toml`` accepts every ``mpmath>=1.3``
PRIVATE_MPMATH = ("mp._", "guess_degree", "get_nodes", "estimate_error", "_prec_rounding")


def test_source_names_no_private_mpmath_name():
    found = {path.name: [name for name in PRIVATE_MPMATH if name in path.read_text()]
             for path in (ROOT / "src" / "mopkit").glob("*.py")}
    assert {name: hits for name, hits in found.items() if hits} == {}

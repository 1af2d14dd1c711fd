"""mopkit: multiple orthogonal polynomial ensembles.

Construction of type I / type II multiple orthogonal polynomials for
configurable weight systems, the associated determinantal ensembles
(densities, correlation kernels, Metropolis samplers, Monte Carlo checks of
the expectation identities), and vector logarithmic-energy equilibrium
problems for Angelesco and Nikishin systems.

Each exported name is imported from its module on first use (PEP 562), so
``import mopkit`` loads neither numpy nor mpmath.
"""

import importlib

__version__ = "0.1.0"

#: module -> the names the package exports from it
_EXPORTS = {
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
    "specs": ("Interval", "WeightSpec"),
    "weights": ("MomentTable", "Weight", "WeightSystem", "build_angelesco", "build_nikishin",
                "moment_table", "moments", "stieltjes_transform"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

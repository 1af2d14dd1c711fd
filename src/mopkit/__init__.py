"""mopkit: multiple orthogonal polynomial ensembles.

Construction of type I / type II multiple orthogonal polynomials for
configurable weight systems, the associated determinantal ensembles
(densities, correlation kernels, Metropolis samplers, Monte Carlo checks of
the expectation identities), and vector logarithmic-energy equilibrium
problems for Angelesco and Nikishin systems.
"""

from .ensemble import (
    Kernel,
    MCEstimate,
    MarginalizationReport,
    SignReport,
    angelesco_density,
    basis_f,
    basis_g,
    biorthogonalize,
    cauchy_transform_type1,
    cauchy_vandermonde_det,
    delta_cross,
    g_determinant,
    joint_density,
    kernel_eval,
    kernel_eval_bordered,
    kernel_trace,
    marginalization_check,
    mc_char_poly,
    mc_inverse_char_poly,
    mean_density,
    nikishin_extended_density,
    sign_constancy_check,
    vandermonde,
)
from .equilibrium import (
    DiscreteMeasure,
    EquilibriumProblem,
    EquilibriumReport,
    energy_functional,
    interaction_matrix,
    kolmogorov_distance,
    log_energy,
    minimize_equilibrium,
    zero_counting_measure,
)
from .exceptions import (
    ConstructionError,
    DomainError,
    MopkitError,
    NonNormalIndexError,
    NumericError,
    PrecisionExhausted,
    QuadratureError,
    SingularEnergyError,
    ValidationError,
    VerificationFailure,
)
from .mop import (
    DetReport,
    HankelBlockMatrix,
    MultiIndex,
    Polynomial,
    TypeISystem,
    block_hankel,
    normality_determinant,
    orthogonality_residuals,
    poly_roots,
    type1_condition_residuals,
    type1_mop,
    type2_mop,
)
from .sampling import SampleBatch, SamplerConfig, sample_mcmc
from .weights import (
    Interval,
    MomentTable,
    Weight,
    WeightSpec,
    WeightSystem,
    build_angelesco,
    build_nikishin,
    moment_table,
    moments,
    stieltjes_transform,
)

__version__ = "0.1.0"

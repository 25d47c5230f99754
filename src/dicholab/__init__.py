"""Numerical laboratory for weighted dichotomies of linear difference equations.

The package measures contraction and expansion against a general growth
sequence rather than a fixed exponential: systems are stored with per-step
log scales so doubly-exponential regimes stay representable, certificates
are fitted from decay data and re-verified, admissible solutions come from
a Green-kernel convolution cross-checked against a sparse direct solve, and
splittings are recovered from the dynamics alone and stress-tested under
budget-saturating perturbations.
"""

from .errors import (
    AnalysisError,
    ConfigError,
    DicholabError,
    FitError,
    KernelSingularError,
    NoGapError,
    OracleMismatchError,
    RepresentabilityError,
    SplittingDegenerateError,
)
from .linalg import (
    max_principal_angle,
    principal_angles,
    spectral_norm,
)
from .rates import (
    MAX_WINDOW,
    GrowthRate,
    NuSequence,
    WeightedNormSpec,
    compute_n0,
    log_norm,
    make_abs_spec,
    make_nu,
    make_rate,
    norm,
)
from .system import (
    LinearSystem,
    PlantedModel,
    evolution_scaled,
    make_planted_model,
    system_from_json,
    system_to_json,
)
from .dichotomy import (
    DichotomyCertificate,
    ProjectionFamily,
    VerifyReport,
    beta_range,
    fit_certificate,
    verify_dichotomy,
)
from .admissibility import (
    BoundaryCondition,
    SolveReport,
    one_sided_boundary,
    operator_norm_sup,
    operator_norm_T,
    oracle_solve,
    run_counterexample,
    solve_admissibility,
    two_sided_boundary,
    uniqueness_probe,
)
from .splitting import (
    CharacterizeResult,
    SplittingReport,
    SubspaceBasis,
    SZeroBetaCheck,
    build_projections,
    characterize,
    classify_directions,
    s_beta_zero_check,
)
from .robustness import (
    PersistenceReport,
    PerturbationSpec,
    perturbation_radii,
    geometric_gamma,
    make_perturbation,
    perturbed_system,
    smallness_margin,
    verify_persistence,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError", "ConfigError", "DicholabError", "FitError",
    "KernelSingularError", "NoGapError", "OracleMismatchError",
    "RepresentabilityError", "SplittingDegenerateError",
    "GrowthRate", "MAX_WINDOW", "NuSequence", "WeightedNormSpec",
    "compute_n0", "log_norm", "make_abs_spec", "make_nu", "make_rate",
    "norm", "max_principal_angle", "principal_angles", "spectral_norm",
    "LinearSystem", "PlantedModel",
    "evolution_scaled", "make_planted_model",
    "system_from_json", "system_to_json",
    "DichotomyCertificate", "ProjectionFamily", "VerifyReport",
    "beta_range", "fit_certificate", "verify_dichotomy",
    "BoundaryCondition", "SolveReport",
    "one_sided_boundary", "operator_norm_sup", "operator_norm_T", "oracle_solve",
    "run_counterexample", "solve_admissibility", "two_sided_boundary",
    "uniqueness_probe",
    "CharacterizeResult", "SplittingReport", "SubspaceBasis",
    "SZeroBetaCheck", "build_projections", "characterize",
    "classify_directions", "s_beta_zero_check",
    "PersistenceReport", "PerturbationSpec", "geometric_gamma",
    "make_perturbation", "perturbation_radii",
    "perturbed_system",
    "smallness_margin", "verify_persistence",
    "__version__",
]

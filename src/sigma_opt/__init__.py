"""Multilevel (Galerkin/Nystrom) randomized Newton solver for self-concordant
GLM objectives, with classical baselines, synthetic data generation, and a
benchmark CLI."""

from .baselines import BaselineConfig, baseline_solve, newsamp_hessian
from .coarse import (
    CoarseOperator,
    GalerkinSystem,
    build_operator,
    coarse_direction,
    full_operator,
    galerkin_system,
    newton_direction,
    nystrom_approximation,
    prolong,
    restrict,
)
from .core import (
    DECREMENT_SQ_LIMIT,
    omega,
    omega_star,
    sample_without_replacement,
    spd_solve,
)
from .data import (
    LabelSpec,
    SvdGapSpec,
    load_csv,
    load_libsvm,
    standardize,
    svd_gap_matrix,
    synth_labels,
    write_libsvm,
)
from .objectives import (
    Dataset,
    DomainStatus,
    ObjectiveModel,
    Regularization,
    feasible_start,
    make_objective,
    poisson_scale,
    positive_margin_start,
)
from .rng import RngState
from .solver import (
    SigmaConfig,
    SolveResult,
    TraceRecord,
    armijo_search,
    damped_initial_step,
    direction_select,
    eta_region,
    poisson_feasible_step,
    sigma_solve,
    stopping_check,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineConfig",
    "CoarseOperator",
    "Dataset",
    "DomainStatus",
    "DECREMENT_SQ_LIMIT",
    "GalerkinSystem",
    "LabelSpec",
    "ObjectiveModel",
    "Regularization",
    "RngState",
    "SigmaConfig",
    "SolveResult",
    "SvdGapSpec",
    "TraceRecord",
    "armijo_search",
    "baseline_solve",
    "build_operator",
    "coarse_direction",
    "damped_initial_step",
    "direction_select",
    "eta_region",
    "feasible_start",
    "full_operator",
    "galerkin_system",
    "load_csv",
    "load_libsvm",
    "make_objective",
    "newsamp_hessian",
    "newton_direction",
    "nystrom_approximation",
    "omega",
    "omega_star",
    "poisson_feasible_step",
    "poisson_scale",
    "positive_margin_start",
    "prolong",
    "restrict",
    "sample_without_replacement",
    "sigma_solve",
    "spd_solve",
    "standardize",
    "stopping_check",
    "svd_gap_matrix",
    "synth_labels",
    "write_libsvm",
]

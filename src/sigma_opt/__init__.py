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
    ObjectiveModel,
    Regularization,
    feasible_start,
    make_objective,
    poisson_scale,
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

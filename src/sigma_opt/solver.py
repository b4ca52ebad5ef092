"""The multilevel randomized Newton solver and the solve loop it shares with
the baselines.

Each SIGMA iteration draws a fresh coordinate operator, solves the reduced
system for the coarse direction, and optionally falls back to the full Newton
(fine) direction per the configured check mode.

One driver, :func:`drive`, runs the iterations of SIGMA and of every baseline;
a solver only supplies a direction function. The driver evaluates each iterate
once (:meth:`ObjectiveModel.point` at margins ``A x`` carried along the steps),
records the trace row, applies the stop tests, picks the step length on one
:class:`Ray` along the direction and updates. The Newton-type steps are
globalized by an Armijo backtracking search from the unit step.
Self-concordance guarantees the damped step ``1/(1 + decrement)`` always
passes the descent test, so the search never returns less than ``beta``
times that value. For the Poisson model the search instead starts
from the damped step grown while the trial point stays inside the open domain.

The run stops when the squared decrement of the computed direction falls to
``epsilon`` (inclusive), which bounds the sub-optimality gap by ``epsilon``
for tolerances below ``0.68^2``.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .coarse import (
    build_operator,
    coarse_direction,
    galerkin_system,
    newton_direction,
)
from .core import DECREMENT_SQ_LIMIT, sample_without_replacement
from .errors import (
    DomainError,
    InvalidDimensions,
    LineSearchFailed,
    MissingNewtonDecrement,
    NotPositiveDefinite,
    OutOfDomain,
)
from .objectives import ObjectiveModel, Point, Ray
from .rng import RngState

COARSE = "coarse"
FINE = "fine"

# direction-selection modes
FULL_DECREMENT = "full_decrement"
EUCLIDEAN_PROXY = "euclidean_proxy"
NU_ONLY = "nu_only"
ALWAYS_COARSE = "always_coarse"
CHECK_MODES = (FULL_DECREMENT, EUCLIDEAN_PROXY, NU_ONLY, ALWAYS_COARSE)

CONVERGED = "converged"
MAX_ITER = "max_iter"
TIMEOUT = "timeout"
ERROR = "error"


# how the driver picks the step length along a direction
DAMPED = "damped"  # Armijo from 1, or from the feasibility-grown damped step on Poisson
UNIT = "unit"  # Armijo from 1
SCHEDULED = "scheduled"  # the direction's own t0, halved until feasible; no search

# Iterates k = 0, 32, 64, ... form A x exactly. On the c09 Poisson instance
# (2,093 iterations) the final exact gradient norm is then 4.9e-7; it is
# 5.2e-7 with A x formed every iterate and 3.7e-6 with no refresh.
EXACT_MARGINS_EVERY = 32


@dataclass(kw_only=True)
class SolveConfig:
    """Parameters of the shared solve loop; ranges are validated at construction."""

    alpha: float = 0.25
    beta: float = 0.5
    epsilon: float = 1e-8
    zeta: float = 2.0  # Poisson feasible-step growth factor
    max_iter: int = 200
    max_seconds: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < DECREMENT_SQ_LIMIT:
            raise ValueError(f"epsilon must be in (0, 0.68^2), got {self.epsilon}")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must be in (0, 0.5), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0,1), got {self.beta}")
        if not self.zeta > 1.0:
            raise ValueError(f"zeta must be > 1, got {self.zeta}")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive")


@dataclass
class SigmaConfig(SolveConfig):
    """SIGMA parameters on top of the shared :class:`SolveConfig`.

    ``check_mode`` selects how coarse vs fine directions are chosen:

    * ``full_decrement``: coarse iff ``lambda_hat > mu * lambda`` and
      ``lambda_hat > nu`` (computes the Newton decrement every iteration).
    * ``euclidean_proxy``: the cheap variant using gradient norms,
      coarse iff ``||g_H|| > mu ||g||`` and ``||g_H|| > nu``.
    * ``nu_only``: coarse iff ``lambda_hat > nu``.
    * ``always_coarse`` (default): never compute the fine direction, whose
      Newton system is N x N unless ``A`` has fewer rows than columns and a
      regularizer is set (then it is the m x m capacitance system).
    """

    n: int
    mu: float = 0.5
    nu: float = 1e-4
    check_mode: str = ALWAYS_COARSE
    row_sample: Optional[int] = None
    freeze_operator: bool = False  # ablation: one operator for the whole run

    def __post_init__(self):
        super().__post_init__()
        if self.n < 1:
            raise ValueError(f"coarse dimension n must be >= 1, got {self.n}")
        if not 0.0 < self.mu < 1.0:
            raise ValueError(f"mu must be in (0,1), got {self.mu}")
        if not 0.0 < self.nu < DECREMENT_SQ_LIMIT:
            raise ValueError(f"nu must be in (0, 0.68^2), got {self.nu}")
        if self.check_mode not in CHECK_MODES:
            raise ValueError(f"check_mode must be one of {CHECK_MODES}, got {self.check_mode!r}")
        if self.row_sample is not None and self.row_sample < 1:
            raise ValueError(f"row_sample must be >= 1, got {self.row_sample}")


@dataclass
class TraceRecord:
    """One per-iterate log row; ``step == 0`` marks the terminal row."""

    iter: int
    elapsed_s: float
    f: float
    grad_norm: float
    lambda_hat: float
    lam: Optional[float]
    step: float
    direction: str
    backtracks: int


@dataclass
class SolveResult:
    x_final: np.ndarray
    trace: list[TraceRecord] = field(default_factory=list)
    status: str = MAX_ITER
    final_decrement_sq: float = np.inf
    message: str = ""

    @property
    def iterations(self) -> int:
        return max(len(self.trace) - 1, 0)


class Direction(NamedTuple):
    """A direction function's answer for one iterate."""

    d: np.ndarray
    dec_sq: float  # the run stops once this is <= epsilon
    lambda_hat: float  # trace columns
    lam: Optional[float]
    label: str
    rule: str = DAMPED  # how the step length is picked: DAMPED, UNIT or SCHEDULED
    t0: float = 1.0  # the SCHEDULED step
    dz: Optional[np.ndarray] = None  # A d if the direction has it; else the Ray forms it
    slope: Optional[float] = None  # g^T d if the direction has it; else read from point.g


def damped_initial_step(lam_hat: float) -> float:
    """The Armijo start ``1/(1 + decrement)``, which always passes the descent
    test for self-concordant objectives."""
    return 1.0 / (1.0 + lam_hat)


def stopping_check(decrement_sq: float, epsilon: float) -> bool:
    """Inclusive test ``decrement_sq <= epsilon``."""
    if decrement_sq < 0:
        raise DomainError("decrement_sq must be nonnegative")
    return decrement_sq <= epsilon


def eta_region(e: float) -> float:
    """Super-linear region threshold ``(3 - sqrt(5 + 4e))/2`` for ``e in [0,1]``.

    Decreasing in ``e``; at ``e = 0`` it equals ``(3 - sqrt(5))/2``, the root of
    ``x/(1-x)^2 = 1``.
    """
    if not 0.0 <= e <= 1.0:
        raise DomainError(f"e must be in [0,1], got {e}")
    return 0.5 * (3.0 - np.sqrt(5.0 + 4.0 * e))


def direction_select(
    lam_hat: float,
    lam: Optional[float],
    g: Optional[np.ndarray],
    g_reduced: np.ndarray,
    cfg: SigmaConfig,
) -> str:
    """Choose between the coarse and the fine direction for this iteration.

    The full gradient ``g`` is read only by ``euclidean_proxy``; the other
    modes accept ``None`` for it.
    """
    if cfg.check_mode == ALWAYS_COARSE:
        return COARSE
    if cfg.check_mode == NU_ONLY:
        return COARSE if lam_hat > cfg.nu else FINE
    if cfg.check_mode == EUCLIDEAN_PROXY:
        gn = float(np.linalg.norm(g))
        grn = float(np.linalg.norm(g_reduced))
        return COARSE if (grn > cfg.mu * gn and grn > cfg.nu) else FINE
    # full decrement
    if lam is None:
        raise MissingNewtonDecrement("full_decrement mode needs the Newton decrement")
    return COARSE if (lam_hat > cfg.mu * lam and lam_hat > cfg.nu) else FINE


def armijo_search(ray: Ray, dir_deriv: float, t0: float, alpha: float,
                  beta: float) -> tuple[float, int]:
    """Backtrack from ``t0`` until ``f(x + t d) <= f(x) + alpha t dir_deriv``
    along ``ray``, the objective restricted to ``x + t d``.

    The descent test is evaluated through the ray's stable difference
    ``f(x + t d) - f(x)``, so it keeps resolving decreases far below the
    rounding noise of the absolute objective value. Candidate points outside
    the objective's domain are rejected like failed descent tests. Fails after
    60 reductions, which signals a non-descent direction or a domain pathology,
    and at once unless ``t0 > 0``: the zero step passes the test trivially.
    """
    if not dir_deriv < 0:
        raise LineSearchFailed(f"directional derivative must be negative, got {dir_deriv}")
    if not t0 > 0:
        raise LineSearchFailed(f"initial step must be positive, got {t0}")
    t = t0
    for backtracks in range(61):
        try:
            if ray.delta(t) <= alpha * t * dir_deriv:
                return t, backtracks
        except OutOfDomain:
            pass
        t *= beta
    raise LineSearchFailed("no acceptable step after 60 reductions")


def _halve_until_feasible(ray: Ray, t: float) -> float:
    # x itself is feasible, so some positive step always exists; after 200
    # halvings keep the floor value and let the Armijo search reject it
    for _ in range(200):
        if ray.feasible(t):
            break
        t *= 0.5
    return t


def poisson_feasible_step(ray: Ray, lam_hat: float, zeta: float) -> float:
    """Initial step along ``ray``: start at the damped step, grow by ``zeta``
    while the trial point stays feasible, and cap at 1.

    If the damped start itself is infeasible it is halved first (the damped
    value comes from a curvature bound, not from feasibility). The returned
    ``t`` is feasible and zeta-maximal: either ``t == 1`` or ``zeta * t`` leaves
    the domain. Only the Poisson domain is bounded; on the other GLMs every
    step is feasible and the result is exactly 1. Raises :class:`DomainError`
    unless ``zeta > 1``, without which the growth loop would never end.
    """
    if not zeta > 1.0:
        raise DomainError(f"zeta must be > 1, got {zeta}")
    t = _halve_until_feasible(ray, damped_initial_step(lam_hat))
    # the domain is an interval around 0, so an infeasible t never grows; a
    # zero t (infinite decrement) would grow forever
    while 0.0 < t < 1.0 and ray.feasible(zeta * t):
        t *= zeta
    return min(t, 1.0)


def _step_length(ray: Ray, point: Point, step: Direction, cfg: SolveConfig) -> tuple[float, int]:
    """``(t, backtracks)`` along ``ray`` by the direction's rule."""
    if step.rule == SCHEDULED:
        # no line search: halve the direction's own step until feasible
        return _halve_until_feasible(ray, step.t0), 0
    # sqrt(v * v) == v exactly in binary floating point unless v * v
    # underflows, so a direction that squared its decrement gets it back
    t0 = 1.0 if step.rule == UNIT else poisson_feasible_step(
        ray, float(np.sqrt(step.dec_sq)), cfg.zeta)
    slope = float(point.g @ step.d) if step.slope is None else step.slope
    return armijo_search(ray, slope, t0, cfg.alpha, cfg.beta)


def drive(
    model: ObjectiveModel,
    x0: np.ndarray,
    cfg: SolveConfig,
    direction: Callable[[np.ndarray, Point, int], Direction],
    error_label: str,
) -> SolveResult:
    """The solve loop of SIGMA and of every baseline.

    ``direction(x, point, k)`` returns the :class:`Direction` at iterate ``k``,
    where ``point`` is ``model.point(x, z)``, the only evaluation of the
    iterate. Each step then builds one :class:`Ray` along the direction,
    which every step rule searches on. ``z`` is the previous
    ``point.z + t * ray.dz``, with ``ray.dz`` the ``A d`` the direction
    supplied or the ray formed, or ``A x`` formed exactly at every
    ``EXACT_MARGINS_EVERY``-th iterate. If ``direction`` raises
    :class:`NotPositiveDefinite` the run ends with ``status == "error"``
    and a last trace row labelled ``error_label``. If ``point`` finds a later
    iterate outside the domain (its exact margins at a refresh, where the
    carried ones were inside), the run ends with ``status == "error"`` at the
    last iterate it accepted, whose row keeps the step that was taken from it.
    It ends so too, with every row kept, when the last iterate's exact
    margins, formed for the terminal row's gradient norm, leave the domain.

    The trace has one row per iterate including the starting point; row ``k``
    holds the objective and decrement at iterate ``k`` together with the step
    length taken from it (0 on the terminal row). Its gradient norm is
    ``||point.g||`` where the full gradient is formed: on the refresh
    iterates, wherever the direction reads it (every baseline, SIGMA's fine
    steps and its ``full_decrement`` and ``euclidean_proxy`` modes) and for
    a direction without its own ``slope``, whose step search reads it. It is
    NaN on the other coarse rows, which touch only the sampled columns of
    ``A``, unless ``n = N``: that coarse system is the Newton system, which
    reads ``point.g``. The terminal and error rows' gradient norm is exact:
    it is recomputed from ``A x`` when the last iterate's margins were carried.

    Raises :class:`OutOfDomain` if ``x0`` is infeasible.
    """
    x = np.array(x0, dtype=np.float64, copy=True)
    result = SolveResult(x_final=x, trace=[])
    started = time.monotonic()
    k = 0
    z = None
    while True:
        elapsed = time.monotonic() - started
        try:
            point = model.point(x, z)
        except OutOfDomain as exc:
            if k == 0:
                raise
            result.status, result.message = ERROR, str(exc)
            return result
        result.x_final = x
        exact = z is None  # A x formed afresh: the row gets the exact gradient norm
        try:
            step = direction(x, point, k)
        except NotPositiveDefinite as exc:
            result.trace.append(TraceRecord(k, elapsed, point.f, point.grad_norm(exact), np.nan,
                                            None, 0.0, error_label, 0))
            result.status, result.message = ERROR, str(exc)
            return _finish(result, model, x, z)
        # a step without its own slope reads point.g in the step search
        record = TraceRecord(k, elapsed, point.f, point.grad_norm(exact or step.slope is None),
                             step.lambda_hat, step.lam, 0.0, step.label, 0)
        result.trace.append(record)
        if stopping_check(step.dec_sq, cfg.epsilon):
            result.status = CONVERGED
            break
        if k >= cfg.max_iter:
            result.status = MAX_ITER
            break
        if elapsed > cfg.max_seconds:
            result.status = TIMEOUT
            break
        ray = Ray(point, step.d, dz=step.dz)
        record.step, record.backtracks = _step_length(ray, point, step, cfg)
        x = x + record.step * step.d
        k += 1
        z = None if k % EXACT_MARGINS_EVERY == 0 else point.z + record.step * ray.dz
        # this iterate's arrays go before the next one is evaluated
        del point, step, ray

    result.final_decrement_sq = step.dec_sq
    return _finish(result, model, x, z)


def _finish(result: SolveResult, model: ObjectiveModel, x: np.ndarray,
            z: Optional[np.ndarray]) -> SolveResult:
    """End the run at ``x``. If its margins ``z`` were carried, ``x`` is
    evaluated once more with ``A x`` formed, for the terminal row's exact
    gradient norm; its ``f`` is kept, so the objective column stays the one
    the steps were accepted on. If those exact margins leave the Poisson
    domain, the run ends with ``status == "error"`` and keeps its trace."""
    result.x_final = x
    if z is not None:
        try:
            result.trace[-1].grad_norm = float(np.linalg.norm(model.point(x).g))
        except OutOfDomain as exc:
            result.status, result.message = ERROR, result.message or str(exc)
    return result


def sigma_solve(model: ObjectiveModel, x0: np.ndarray, cfg: SigmaConfig) -> SolveResult:
    """Run the multilevel solver from ``x0`` through :func:`drive`.

    Identical configs (including the seed) produce bit-identical traces except
    for the wall-clock column. Raises :class:`OutOfDomain` if ``x0`` is
    infeasible and :class:`InvalidDimensions` if ``row_sample`` exceeds ``m``;
    reduced-system factorization failures end the run with ``status == "error"``.
    """
    N, m = model.dataset.N, model.dataset.m
    if cfg.row_sample is not None and cfg.row_sample > m:
        raise InvalidDimensions(f"rows={cfg.row_sample} exceeds m={m}")
    rng = RngState(cfg.seed)
    frozen = build_operator(N, cfg.n, rng) if cfg.freeze_operator else None
    sample_rows = cfg.row_sample is not None and cfg.row_sample < m

    def direction(x, point, k):
        op = frozen if frozen is not None else build_operator(N, cfg.n, rng)
        rows = sample_without_replacement(m, cfg.row_sample, rng) if sample_rows else None
        system = galerkin_system(model, x, op, rows, point=point)
        step = coarse_direction(system, op)
        # the reduced curvature and the scaled block go before any fine step
        g_reduced = system.g
        del system
        fine = newton_direction(model, x, point=point) if cfg.check_mode == FULL_DECREMENT else None
        lam = None if fine is None else fine.lam
        g = point.g if cfg.check_mode == EUCLIDEAN_PROXY else None
        chosen = direction_select(step.lambda_hat, lam, g, g_reduced, cfg)
        if chosen == COARSE:
            # A d from the Gram's scaled block, else from the sampled columns
            # in O(m n), a contiguous gather; the slope g^T d is
            # g_S^T d_coarse, so the step needs no full g
            dz = step.dz if step.dz is not None else model.dataset.A[:, op.indices] @ step.d_coarse
            return Direction(step.d_hat, step.lambda_hat * step.lambda_hat, step.lambda_hat, lam,
                             COARSE, dz=dz, slope=float(g_reduced @ step.d_coarse))
        if fine is None:
            fine = newton_direction(model, x, point=point)
        return Direction(fine.d, fine.lam * fine.lam, step.lambda_hat, fine.lam, FINE, dz=fine.dz)

    return drive(model, x0, cfg, direction, error_label=COARSE)

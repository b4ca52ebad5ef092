"""Comparison optimizers, each a direction function run by the solver's loop
(:func:`sigma_opt.solver.drive`), so they share its trace format.

Five methods: gradient descent and full Newton with backtracking, stochastic
gradient descent with the ``t/(1 + gamma k)`` schedule, sub-sampled Newton
(Hessian from a uniform row sample, full gradient), and NewSamp (row-sampled
Hessian replaced by its rank-r eigen-truncation plus a spectral floor).
Newton and sub-sampled Newton are one :func:`sigma_opt.coarse.newton_direction`
call (sub-sampled Newton passes its row sample), so on wide, regularized data
they factor the m x m capacitance matrix, not an N x N Hessian.

Newton-family methods stop on the squared decrement of their direction (for
sub-sampled Newton and NewSamp a sampled one, which certifies no gap); GD and
SGD stop on a gradient test, the squared gradient norm against ``epsilon``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coarse import newton_direction
from .core import sample_without_replacement, spd_solve
from .errors import InvalidDimensions, NotPositiveDefinite
from .objectives import ObjectiveModel, Point
from .rng import RngState
from .solver import (  # noqa: F401  perfbench/tracer.py looks up armijo_search here
    DAMPED,
    FINE,
    SCHEDULED,
    UNIT,
    Direction,
    SolveConfig,
    SolveResult,
    armijo_search,
    drive,
)

GD = "gd"
SGD = "sgd"
NEWTON = "newton"
SUBNEWTON = "subnewton"
NEWSAMP = "newsamp"
METHODS = (GD, SGD, NEWTON, SUBNEWTON, NEWSAMP)


@dataclass
class BaselineConfig(SolveConfig):
    """Baseline parameters on top of the shared :class:`SolveConfig`."""

    method: str
    sgd_t: float = 1.0
    sgd_gamma: float = 1e-6
    batch: int = 1
    rows: Optional[int] = None  # row-sample size for subnewton/newsamp; default m/2
    rank: Optional[int] = None  # newsamp truncation rank; default N/10

    def __post_init__(self):
        super().__post_init__()
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.sgd_t <= 0:
            raise ValueError("sgd_t must be positive")
        if self.sgd_gamma < 0:
            raise ValueError("sgd_gamma must be nonnegative")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.rows is not None and self.rows < 1:
            raise ValueError("rows must be >= 1")
        if self.rank is not None and self.rank < 0:
            raise ValueError("rank must be >= 0")


def newsamp_hessian(
    model: ObjectiveModel,
    x: np.ndarray,
    rows: np.ndarray,
    rank: int,
    w2: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row-sampled Hessian truncated to rank ``rank`` plus a spectral floor.

    Keeps the top ``rank`` eigenpairs and replaces the tail by the (rank+1)-th
    eigenvalue times the identity on the complement, which preserves positive
    definiteness whenever that eigenvalue is positive. ``w2``, the curvature
    row weights at ``x``, skips forming ``A x``.
    """
    N = model.dataset.N
    if not 0 <= rank < N:
        raise InvalidDimensions(f"rank must be in [0, N), got {rank} with N={N}")
    full = np.arange(N, dtype=np.int64)
    h = model.reduced_hessian(x, full, rows, w2=w2)
    vals, vecs = np.linalg.eigh(h)
    vals, vecs = vals[::-1], vecs[:, ::-1]  # descending
    floor = float(vals[rank])
    if floor <= 0:
        raise NotPositiveDefinite(
            f"(rank+1)-th eigenvalue is {floor:.3e} <= 0; add l2 regularization or lower the rank"
        )
    u = vecs[:, :rank]
    out = (u * (vals[:rank] - floor)) @ u.T + floor * np.eye(N)
    return 0.5 * (out + out.T)


def baseline_solve(model: ObjectiveModel, x0: np.ndarray, cfg: BaselineConfig) -> SolveResult:
    """Run one baseline optimizer through the solver's loop; same trace schema."""
    m, N = model.dataset.m, model.dataset.N
    rows_size = cfg.rows if cfg.rows is not None else max(1, m // 2)
    if rows_size > m:
        raise InvalidDimensions(f"rows={rows_size} exceeds m={m}")
    rank = cfg.rank if cfg.rank is not None else max(1, N // 10)
    rng = RngState(cfg.seed)

    def sample(size):
        return sample_without_replacement(m, size, rng) if size < m else np.arange(m, dtype=np.int64)

    def direction(x, point, k):
        if cfg.method in (NEWTON, SUBNEWTON):
            rows = sample(rows_size) if cfg.method == SUBNEWTON else None
            d, lam, dz = newton_direction(model, x, point, rows)
            return Direction(d, lam * lam, lam, None, FINE, dz=dz)
        g = point.g
        g_used, rule, t0 = g, DAMPED, 1.0
        if cfg.method == NEWSAMP:
            d = spd_solve(newsamp_hessian(model, x, sample(rows_size), rank, w2=point.w2), -g)
            dec_sq = max(-float(g @ d), 0.0)
        else:  # GD from the unit step, SGD with its scheduled step
            if cfg.method == GD:
                rule = UNIT
            else:
                g_used = _batch_gradient(model, point, sample(min(cfg.batch, m)))
                rule, t0 = SCHEDULED, cfg.sgd_t / (1.0 + cfg.sgd_gamma * k)
            d = -g_used
            gn = float(np.linalg.norm(g))
            dec_sq = gn * gn
        lambda_hat = float(np.sqrt(max(-float(g_used @ d), 0.0)))
        return Direction(d, dec_sq, lambda_hat, None, FINE, rule, t0)

    return drive(model, x0, cfg, direction, error_label=FINE)


def _batch_gradient(model: ObjectiveModel, point: Point, batch: np.ndarray) -> np.ndarray:
    """The gradient over the rows ``batch``, reweighted to the full sum, from
    the row weights ``w1`` of the evaluated point."""
    return (model._row_coeff(batch.shape[0]) * (model.dataset.A[batch].T @ point.w1[batch])
            + model.reg.grad(point.x))

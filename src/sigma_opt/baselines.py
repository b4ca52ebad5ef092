"""Comparison optimizers sharing the solver's trace format.

Five methods: gradient descent and full Newton with backtracking, stochastic
gradient descent with the ``t/(1 + gamma k)`` schedule, sub-sampled Newton
(Hessian from a uniform row sample, full gradient), and NewSamp (row-sampled
Hessian replaced by its rank-r eigen-truncation plus a spectral floor).

Newton-family methods stop on the squared decrement of their direction; GD and
SGD stop on the squared gradient norm so the tolerances are comparable.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coarse import newton_direction
from .core import DECREMENT_SQ_LIMIT, sample_without_replacement, spd_solve
from .errors import InvalidDimensions, NotPositiveDefinite, OutOfDomain
from .objectives import ObjectiveModel, Ray
from .rng import RngState
from .solver import (
    CONVERGED,
    ERROR,
    FINE,
    MAX_ITER,
    TIMEOUT,
    SolveResult,
    TraceRecord,
    _initial_step,
    armijo_search,
    stopping_check,
)

GD = "gd"
SGD = "sgd"
NEWTON = "newton"
SUBNEWTON = "subnewton"
NEWSAMP = "newsamp"
METHODS = (GD, SGD, NEWTON, SUBNEWTON, NEWSAMP)


@dataclass
class BaselineConfig:
    method: str
    sgd_t: float = 1.0
    sgd_gamma: float = 1e-6
    batch: int = 1
    rows: Optional[int] = None  # row-sample size for subnewton/newsamp; default m/2
    rank: Optional[int] = None  # newsamp truncation rank; default N/10
    alpha: float = 0.25
    beta: float = 0.5
    epsilon: float = 1e-8
    zeta: float = 2.0
    max_iter: int = 200
    max_seconds: float = 60.0
    seed: int = 0

    def __post_init__(self):
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
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must be in (0, 0.5), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0,1), got {self.beta}")
        if not 0.0 < self.epsilon < DECREMENT_SQ_LIMIT:
            raise ValueError(f"epsilon must be in (0, 0.68^2), got {self.epsilon}")
        if self.max_iter < 0 or self.max_seconds <= 0:
            raise ValueError("max_iter must be >= 0 and max_seconds > 0")


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


def _sgd_feasible(model, x, d, t):
    # no line search in SGD: halve a fixed-schedule step until back inside the domain
    for _ in range(200):
        if model.domain_status(x + t * d).feasible:
            return t
        t *= 0.5
    return t


def baseline_solve(model: ObjectiveModel, x0: np.ndarray, cfg: BaselineConfig) -> SolveResult:
    """Run one baseline optimizer; trace schema matches the multilevel solver."""
    x = np.array(x0, dtype=np.float64, copy=True)
    m = model.dataset.m
    if not model.domain_status(x).feasible:
        raise OutOfDomain("x0 is infeasible for the Poisson domain")
    rows_size = cfg.rows if cfg.rows is not None else max(1, m // 2)
    if rows_size > m:
        raise InvalidDimensions(f"rows={rows_size} exceeds m={m}")
    rank = cfg.rank if cfg.rank is not None else max(1, model.dataset.N // 10)
    rng = RngState(cfg.seed)

    result = SolveResult(x_final=x, trace=[])
    started = time.monotonic()
    k = 0
    while True:
        elapsed = time.monotonic() - started
        point = model.point(x)
        g = point.g
        gn = float(np.linalg.norm(g))

        try:
            if cfg.method == GD:
                d, g_used = -g, g
                dec_sq = gn * gn
            elif cfg.method == SGD:
                batch = (
                    sample_without_replacement(m, min(cfg.batch, m), rng)
                    if cfg.batch < m
                    else np.arange(m, dtype=np.int64)
                )
                gb = _batch_gradient(model, x, batch)
                d, g_used = -gb, gb
                dec_sq = gn * gn
                t0 = cfg.sgd_t / (1.0 + cfg.sgd_gamma * k)
            elif cfg.method == NEWTON:
                d, lam = newton_direction(model, x, point=point)
                g_used = g
                dec_sq = lam * lam
            else:  # subnewton / newsamp
                rows = (
                    sample_without_replacement(m, rows_size, rng)
                    if rows_size < m
                    else np.arange(m, dtype=np.int64)
                )
                if cfg.method == SUBNEWTON:
                    h = model.reduced_hessian(x, np.arange(model.dataset.N, dtype=np.int64), rows,
                                              w2=point.w2)
                else:
                    h = newsamp_hessian(model, x, rows, rank, w2=point.w2)
                d = spd_solve(h, -g)
                g_used = g
                dec_sq = max(-float(g @ d), 0.0)
        except NotPositiveDefinite as exc:
            result.trace.append(TraceRecord(k, elapsed, point.f, gn, np.nan, None, 0.0, FINE, 0))
            result.x_final = x
            result.status = ERROR
            result.message = str(exc)
            return result

        decrement = float(np.sqrt(dec_sq))
        record = TraceRecord(
            iter=k,
            elapsed_s=elapsed,
            f=point.f,
            grad_norm=gn,
            lambda_hat=float(np.sqrt(max(-float(g_used @ d), 0.0))),
            lam=None,
            step=0.0,
            direction=FINE,
            backtracks=0,
        )

        if stopping_check(dec_sq, cfg.epsilon):
            result.trace.append(record)
            result.status = CONVERGED
            break
        if k >= cfg.max_iter:
            result.trace.append(record)
            result.status = MAX_ITER
            break
        if elapsed > cfg.max_seconds:
            result.trace.append(record)
            result.status = TIMEOUT
            break

        if cfg.method == SGD:
            t = _sgd_feasible(model, x, d, t0)
            backtracks = 0
        else:
            # GD starts at the unit step; the Newton-family methods use the
            # damped step (feasibility-grown on the Poisson domain).
            ray = Ray(model, x, d, z=point.z)
            start = 1.0 if cfg.method == GD else _initial_step(ray, decrement, cfg.zeta)
            t, backtracks = armijo_search(
                model, x, d, float(g_used @ d), start, cfg.alpha, cfg.beta, ray=ray
            )
        record.step = t
        record.backtracks = backtracks
        result.trace.append(record)
        x = x + t * d
        k += 1

    result.x_final = x
    result.final_decrement_sq = dec_sq
    return result


def _batch_gradient(model: ObjectiveModel, x: np.ndarray, batch: np.ndarray) -> np.ndarray:
    from . import kernels

    A = model.dataset.A[batch]
    z = A @ x
    if model.kind == "poisson" and float(z.min()) <= 0:
        raise OutOfDomain("batch rows left the Poisson domain")
    _, w1, _ = kernels.glm_terms(model.kind, z, model.dataset.b[batch])
    return model._row_coeff(batch.shape[0]) * (A.T @ w1) + model.reg.grad(x)

"""Two-level machinery: coordinate prolongation/restriction, the reduced
(Galerkin) system, coarse and Newton directions, and the Nystrom view.

The prolongation ``P`` is a set of ``n`` distinct identity columns (so it has
full column rank by construction) and the restriction is ``R = P^T``. The
reduced curvature ``Q_H = R H P`` is then exactly the ``S x S`` sub-block of
the Hessian, assembled without forming the N x N matrix.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import sample_without_replacement, spd_solve
from .errors import InvalidDimensions
from .objectives import ObjectiveModel, Point, _check_index_set
from .rng import RngState


@dataclass(frozen=True)
class CoarseOperator:
    """Index set realizing P (identity columns) and R = P^T."""

    indices: np.ndarray  # strictly increasing, values in [0, fine_dim)
    fine_dim: int

    def __post_init__(self):
        object.__setattr__(self, "indices", _check_index_set(self.indices, self.fine_dim))

    @property
    def n(self) -> int:
        return int(self.indices.shape[0])


@dataclass(frozen=True)
class GalerkinSystem:
    """Reduced curvature ``Q_H`` and reduced gradient ``R grad f``, with the
    Gram's scaled block ``(B, s)`` for the step's ``A d`` when it has one."""

    q: np.ndarray
    g: np.ndarray
    scaled: tuple[np.ndarray, np.ndarray] | None = None


class CoarseStep(NamedTuple):
    d_coarse: np.ndarray  # length n
    d_hat: np.ndarray  # length N, the prolonged direction
    lambda_hat: float
    dz: np.ndarray | None = None  # A d_hat from the scaled block, if the system had it


class NewtonStep(NamedTuple):
    d: np.ndarray
    lam: float


def build_operator(N: int, n: int, rng: RngState) -> CoarseOperator:
    """Fresh uniform coordinate operator; resample every iteration."""
    return CoarseOperator(sample_without_replacement(N, n, rng), N)


def full_operator(N: int) -> CoarseOperator:
    return CoarseOperator(np.arange(N, dtype=np.int64), N)


def prolong(op: CoarseOperator, v_coarse: np.ndarray) -> np.ndarray:
    """Scatter a coarse vector into the fine space (zeros off the index set)."""
    if v_coarse.shape[0] != op.n:
        raise InvalidDimensions(f"expected length {op.n}, got {v_coarse.shape[0]}")
    out = np.zeros(op.fine_dim)
    out[op.indices] = v_coarse
    return out


def restrict(op: CoarseOperator, v_fine: np.ndarray) -> np.ndarray:
    """Gather the index-set entries of a fine vector; restrict(prolong(v)) == v."""
    if v_fine.shape[0] != op.fine_dim:
        raise InvalidDimensions(f"expected length {op.fine_dim}, got {v_fine.shape[0]}")
    return v_fine[op.indices]


def galerkin_system(
    model: ObjectiveModel,
    x: np.ndarray,
    op: CoarseOperator,
    row_sample: np.ndarray | None = None,
    point: Point | None = None,
) -> GalerkinSystem:
    """Assemble ``Q_H`` and the reduced gradient ``R grad f`` at ``x`` in O(m n^2).

    ``point`` is ``model.point(x)`` when the caller already has it. A sampled
    operator reads only its ``n`` columns of ``A``: one gather serves the
    restricted gradient (over every row, equal to ``point.g[S]`` up to
    rounding) and the curvature, which scales the block in place
    (:meth:`ObjectiveModel.reduced_system`); the full gradient is not formed.
    The system keeps that scaled block for :func:`coarse_direction` unless
    rows are sampled or a row's scale is below ``kernels.SCALE_FLOOR``.
    With the full operator the gather is ``A`` itself and ``g`` equals
    ``point.g`` bit for bit. ``op`` has validated its indices, so they are
    not checked again.
    """
    if point is None:
        point = model.point(x)
    q, g, scaled = model.reduced_system(x, op.indices, point, row_sample, checked=True)
    return GalerkinSystem(q=q, g=g, scaled=scaled)


def coarse_direction(sys: GalerkinSystem, op: CoarseOperator) -> CoarseStep:
    """Solve the reduced system and prolong; consumes ``sys``.

    ``sys.q`` is factored in place and holds its Cholesky factor afterwards.
    ``lambda_hat = sqrt(-g^T d_coarse)``; the negative-rounding case is clamped
    to zero. With the full operator this is exactly the Newton direction.
    The step's margins ``dz = A[:, S] d_coarse`` are ``(B d_coarse) / s`` from
    the system's scaled block, or None when it has none. That O(m n) product
    runs before the caller picks a direction, so it is also paid on iterations
    that then take the fine one; forming it here lets the block be freed
    before the fine direction allocates its N x N Hessian.
    """
    # q is exactly symmetric, so q.T is the same matrix in column-major order,
    # which dpotrf factors in place, without a transposing copy
    d_coarse = spd_solve(sys.q.T, -sys.g, overwrite_a=True)
    lam_sq = -float(sys.g @ d_coarse)
    dz = None
    if sys.scaled is not None:
        block, s = sys.scaled
        dz = block @ d_coarse
        dz /= s
    return CoarseStep(d_coarse, prolong(op, d_coarse), float(np.sqrt(max(lam_sq, 0.0))), dz)


def newton_direction(model: ObjectiveModel, x: np.ndarray, point: Point | None = None) -> NewtonStep:
    """Full Newton direction and decrement (materializes the N x N Hessian).

    ``point`` is ``model.point(x)`` when the caller already has it.
    """
    if point is None:
        point = model.point(x)
    g = point.g
    d = spd_solve(model.hessian(x, w2=point.w2), -g)
    lam_sq = -float(g @ d)
    return NewtonStep(d, float(np.sqrt(max(lam_sq, 0.0))))


def nystrom_approximation(H: np.ndarray, op: CoarseOperator) -> np.ndarray:
    """Rank-``n`` approximation ``H Y (Y^T H Y)^{-1} Y^T H`` with Y the identity
    columns of the operator. ``H - H_n`` is positive semidefinite. Diagnostic use."""
    if H.shape[0] != H.shape[1] or H.shape[0] != op.fine_dim:
        raise InvalidDimensions(f"H shape {H.shape} does not match operator dim {op.fine_dim}")
    C = H[:, op.indices]
    W = C[op.indices, :]
    Hn = C @ spd_solve(W, C.T)
    return 0.5 * (Hn + Hn.T)


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

from . import kernels
from .core import sample_without_replacement, spd_factor, spd_solve
from .errors import InvalidDimensions
from .objectives import ObjectiveModel, Point, _check_index_set
from .rng import RngState

# Smallest row scale sqrt(w) at which galerkin_system keeps the Gram's scaled
# block for the step's A d: above it, B = A[:, S] * sqrt(w) and the products
# B d stay in the normal range for any |a_ij d_j| above 2^-766, so dividing by
# sqrt(w) recovers A[:, S] d to rounding. A logistic row's w is exactly 0 once
# its b z is below about -37.
SCALE_FLOOR = 2.0**-256


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
    """Reduced curvature ``Q_H = c B^T B + diag(D)`` (n x n, or ``(c, D)``),
    reduced gradient ``R grad f``, the Gram's scaled block ``B`` and its row
    scales ``s``, as :func:`galerkin_system` builds them.
    :func:`coarse_direction` factors the n x n ``Q_H``, or for ``(c, D)`` the
    m x m capacitance matrix of ``B``, with one refinement step."""

    q: np.ndarray | tuple[float, np.ndarray]
    g: np.ndarray
    block: np.ndarray | None = None
    s: np.ndarray | None = None


class CoarseStep(NamedTuple):
    d_coarse: np.ndarray  # length n
    d_hat: np.ndarray  # length N, the prolonged direction
    lambda_hat: float
    dz: np.ndarray | None = None  # A d_hat from the scaled block, if the system had it


class NewtonStep(NamedTuple):
    d: np.ndarray
    lam: float
    dz: np.ndarray | None = None  # A d from the scaled block, as in CoarseStep


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

    ``point`` is ``model.point(x)`` when the caller already has it. One
    gather of ``A[:, S]`` (:func:`kernels.gram_gather`) serves the restricted
    gradient, over every row and equal to ``point.g[S]`` up to rounding, and
    the curvature ``Q_H = c B^T B + diag(D)``: ``B = A[rows, S] * s[:, None]``
    is the block scaled in place by ``s = sqrt(w2[rows])``, ``c`` the row
    coefficient and ``D`` the regularizer's Hessian diagonal on ``S``. The
    full gradient is not formed.

    When ``B`` has fewer rows than columns and every entry of ``D`` is
    positive, ``q`` is the pair ``(c, D)`` and no n x n matrix is formed;
    otherwise it is the n x n matrix, :meth:`ObjectiveModel.reduced_hessian`
    bit for bit. ``s`` is kept when ``(B d) / s`` is ``A[:, S] d`` to
    rounding: every row is kept and ``min(s) >= SCALE_FLOOR``. ``block`` is
    None when neither ``q`` nor ``s`` needs it. With the full operator the
    gather is ``A`` itself, ``g`` is ``point.g``, formed once per point, and
    the system is the Newton system. ``op`` has validated its indices, so
    they are not checked again.
    """
    if point is None:
        point = model.point(x)
    S, A = op.indices, model.dataset.A
    rows = model._rows(row_sample)
    full = op.n == op.fine_dim
    gram, bw, (block, s) = kernels.gram_gather(A, (point.w2, None if full else point.w1), S, rows)
    coeff, diag = model._row_coeff(rows.shape[0]), model.reg.hess_diag(x[S])
    if gram is None and float(diag.min()) > 0.0:
        q = (coeff, diag)
    else:
        # a short block's Gram is formed here only when D has a zero
        q = model._hessian_block(gram, block, coeff, diag)
    g = point.g if full else model._row_coeff(A.shape[0]) * bw + model.reg.grad(x[S])
    if rows.shape[0] < A.shape[0] or float(s.min()) < SCALE_FLOOR:
        s = None
    if s is None and not isinstance(q, tuple):
        block = None
    return GalerkinSystem(q, g, block, s)


def coarse_direction(sys: GalerkinSystem, op: CoarseOperator) -> CoarseStep:
    """Solve ``Q_H d_coarse = -g`` and prolong; consumes ``sys``.

    An n x n ``sys.q`` is factored in place and holds its Cholesky factor
    afterwards. Given ``(c, D)`` instead, the m x m capacitance matrix
    ``K = I / c + B D^-1 B^T`` of the block ``B`` is factored, and
    ``Q_H^-1 = D^-1 - D^-1 B^T K^-1 B D^-1`` (Woodbury) gives ``d_coarse``
    in O(m^2 n): no n x n matrix is formed. That direction is
    ``D^-1 (B^T y - g)``, a difference that cancels where ``g`` lies near
    the row space of ``B`` and ``D`` is small, as at ``x = 0`` of a Gaussian
    problem with fewer rows than ``n``; so it takes one step of iterative
    refinement, from the residual ``-g - (c B^T (B d) + D d)`` in O(m n),
    which brings its error to or below that of the n x n Cholesky.

    ``lambda_hat = sqrt(-g^T d_coarse)``; the negative-rounding case is
    clamped to zero. With the full operator this is exactly the Newton
    direction (:func:`newton_direction`). The step's margins
    ``dz = A[:, S] d_coarse`` are ``(B d_coarse) / s`` when the system has
    ``s``, else None: an O(m n) product from the block already in memory,
    in place of a second pass over ``A[:, S]``.
    """
    if isinstance(sys.q, tuple):
        d_coarse = _capacitance_solve(sys.block, *sys.q, -sys.g)
    else:
        # q is exactly symmetric, so q.T is the same matrix in column-major
        # order, which dpotrf factors in place, without a transposing copy
        d_coarse = spd_solve(sys.q.T, -sys.g, overwrite_a=True)
    lam_sq = -float(sys.g @ d_coarse)
    dz = None
    if sys.s is not None:
        dz = sys.block @ d_coarse
        dz /= sys.s
    return CoarseStep(d_coarse, prolong(op, d_coarse), float(np.sqrt(max(lam_sq, 0.0))), dz)


def _capacitance_solve(B: np.ndarray, c: float, D: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``(c B^T B + diag(D))^-1 rhs`` through the capacitance matrix of ``B``,
    with one refinement step (:func:`coarse_direction`)."""
    C = B / np.sqrt(D)
    K = C @ C.T  # a syrk: exactly symmetric, so K.T is K in column-major order
    K.flat[::K.shape[0] + 1] += 1.0 / c
    solve = spd_factor(K.T, overwrite_a=True)

    def apply_inverse(v):
        return (v - B.T @ solve(B @ (v / D))) / D

    d = apply_inverse(rhs)
    d += apply_inverse(rhs - (c * (B.T @ (B @ d)) + D * d))
    return d


def newton_direction(model: ObjectiveModel, x: np.ndarray, point: Point | None = None,
                     row_sample: np.ndarray | None = None) -> NewtonStep:
    """Newton direction, decrement and margins ``dz = A d`` (or None):
    :func:`coarse_direction` of the full operator's :func:`galerkin_system`,
    so a wide, regularized system is solved without an N x N matrix. The
    curvature sums over ``row_sample`` (sub-sampled Newton) or every row.
    ``point`` is ``model.point(x)`` when the caller already has it.
    """
    op = full_operator(model.dataset.N)
    step = coarse_direction(galerkin_system(model, x, op, row_sample, point=point), op)
    return NewtonStep(step.d_coarse, step.lambda_hat, step.dz)


def nystrom_approximation(H: np.ndarray, op: CoarseOperator) -> np.ndarray:
    """Rank-``n`` approximation ``H Y (Y^T H Y)^{-1} Y^T H`` with Y the identity
    columns of the operator. ``H - H_n`` is positive semidefinite. Diagnostic use."""
    if H.shape[0] != H.shape[1] or H.shape[0] != op.fine_dim:
        raise InvalidDimensions(f"H shape {H.shape} does not match operator dim {op.fine_dim}")
    C = H[:, op.indices]
    W = C[op.indices, :]
    Hn = C @ spd_solve(W, C.T)
    return 0.5 * (Hn + Hn.T)


"""GLM objectives: Gaussian least squares, Poisson with identity link, logistic.

Each model exposes value/gradient/Hessian oracles plus the fast reduced paths
that slice coordinates (and optionally sub-sample data rows) without ever
materializing the N x N Hessian.

Conventions:

* Gaussian and logistic losses are averaged over the ``m`` rows.
* The Poisson loss is the *sum* over rows multiplied by ``M^2/4`` with
  ``M = 2 sqrt(m) max_i(1/sqrt(b_i))``, which makes the objective
  self-concordant with constant 2; the regularizers are added unscaled.
* Logistic labels live in {-1, +1}; {0, 1} labels are mapped by :func:`make_objective`.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import DomainError, InvalidDimensions, NoFeasibleStart, OutOfDomain

GAUSSIAN = "gaussian"
POISSON = "poisson"
LOGISTIC = "logistic"
KINDS = (GAUSSIAN, POISSON, LOGISTIC)
_MEAN_MARGIN = 5.0  # positive-margin points are rescaled to this mean margin


@dataclass
class Dataset:
    """Feature matrix ``A`` (m x N, rows are data points) and response vector ``b``.

    A row-major or column-major contiguous ``A`` is kept as given, without a
    copy; any other layout is copied column-major. The package's loaders and
    generator produce column-major ``A``, for which the solver's column
    gather ``A[:, S]`` copies contiguous columns.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        if not (self.A.flags.c_contiguous or self.A.flags.f_contiguous):
            self.A = np.asfortranarray(self.A)
        self.b = np.ascontiguousarray(np.asarray(self.b, dtype=np.float64))
        if self.A.ndim != 2:
            raise InvalidDimensions(f"A must be 2-d, got shape {self.A.shape}")
        if self.b.shape != (self.A.shape[0],):
            raise InvalidDimensions(
                f"b length {self.b.shape} does not match {self.A.shape[0]} rows"
            )
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise DomainError("dataset contains NaN or Inf")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def N(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class Regularization:
    """l2 weight ``xi2``, pseudo-Huber weight ``xi1``, and its smoothing ``c``.

    The pseudo-Huber term is ``xi1 * sum_i (sqrt(c^2 + x_i^2) - c)``, a smooth
    l1 surrogate; small ``c`` approximates the l1 norm closely.
    """

    xi2: float = 0.0
    xi1: float = 0.0
    c: float = 1e-2

    def __post_init__(self):
        if self.xi1 < 0 or self.xi2 < 0:
            raise DomainError("regularization weights must be nonnegative")
        if self.c <= 0:
            raise DomainError("pseudo-Huber smoothing c must be positive")

    @property
    def active(self) -> bool:
        return self.xi1 > 0 or self.xi2 > 0

    def value(self, x: np.ndarray) -> float:
        v = self.xi2 * float(x @ x)
        if self.xi1 > 0:
            v += self.xi1 * float(np.sum(np.sqrt(self.c**2 + x * x) - self.c))
        return v

    def grad(self, x: np.ndarray) -> np.ndarray:
        g = 2.0 * self.xi2 * x
        if self.xi1 > 0:
            g = g + self.xi1 * x / np.sqrt(self.c**2 + x * x)
        return g

    def hess_diag(self, x: np.ndarray) -> np.ndarray:
        d = np.full_like(x, 2.0 * self.xi2)
        if self.xi1 > 0:
            d = d + self.xi1 * self.c**2 / np.power(self.c**2 + x * x, 1.5)
        return d


@dataclass(frozen=True)
class Point:
    """The model evaluated once at an iterate ``x``: the margins ``z = A x``
    (formed, or carried by the caller), the objective ``f``, and the first-
    and second-derivative row weights ``w1`` and ``w2`` (``w2`` nonnegative
    for all three GLMs).

    The full gradient ``g``, ``A^T w1`` plus the regularizer's, is one pass
    over ``A``: it is formed on first read and kept. ``x`` must not change
    while the point is in use. :meth:`ObjectiveModel.point` is the only
    evaluation of the loss; the other oracles read its fields.
    """

    model: "ObjectiveModel" = field(repr=False)
    x: np.ndarray
    z: np.ndarray
    f: float
    w1: np.ndarray
    w2: np.ndarray

    @cached_property
    def g(self) -> np.ndarray:
        return self.model.gradient(self.x, w1=self.w1)

    def grad_norm(self, form: bool = False) -> float:
        """``||g||``; NaN if ``g`` has not been formed, unless ``form`` forms it."""
        g = self.g if form else self.__dict__.get("g")
        return np.nan if g is None else float(np.linalg.norm(g))


def poisson_scale(b: np.ndarray, m: int) -> float:
    """Self-concordance scaling ``M^2/4`` with ``M = 2 sqrt(m) max_i(1/sqrt(b_i))``.

    The scaled Poisson objective is self-concordant with constant 2.
    Requires integer counts ``b_i >= 1``.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != m:
        raise InvalidDimensions(f"expected {m} responses, got {b.shape[0]}")
    if np.any(b < 1) or np.any(b != np.floor(b)):
        raise DomainError("Poisson responses must be integers >= 1")
    return m * float(np.max(1.0 / b))


@dataclass
class ObjectiveModel:
    """A GLM kind plus dataset and regularization, exposing derivative oracles.

    Immutable after construction; all evaluations are read-only. Use
    :func:`make_objective` to build one (it validates labels and computes the
    Poisson scale).
    """

    kind: str
    dataset: Dataset
    reg: Regularization = field(default_factory=Regularization)
    scale: float = 1.0

    # -- plumbing ----------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Linear predictor ``A x``."""
        return self.dataset.A @ x

    def _row_coeff(self, n_rows: int) -> float:
        # Gaussian/logistic average over rows; Poisson keeps the scaled sum.
        # Either way a row subset of size k is reweighted by m/k so that the
        # full subset reproduces the exact objective.
        m = self.dataset.m
        base = self.scale if self.kind == POISSON else 1.0 / m
        return base * (m / n_rows)

    def _check_domain(self, z: np.ndarray) -> None:
        if self.kind == POISSON and float(z.min()) <= 0.0:
            raise OutOfDomain(f"Poisson margin min a_i^T x = {float(z.min()):.3e} <= 0")

    # -- oracles -----------------------------------------------------------

    def point(self, x: np.ndarray, z: np.ndarray | None = None) -> Point:
        """Evaluate ``x`` once: one pass of the GLM terms; ``A^T w1`` waits
        until the point's ``g`` is read.

        ``z``, ``A x`` carried by the caller, skips forming it. Raises
        :class:`OutOfDomain` on infeasible Poisson iterates.
        """
        if z is None:
            z = self.predict(x)
        self._check_domain(z)
        loss, w1, w2 = kernels.glm_terms(self.kind, z, self.dataset.b)
        f = self._row_coeff(self.dataset.m) * loss + self.reg.value(x)
        return Point(self, x, z, f, w1, w2)

    def evaluate(self, x: np.ndarray) -> float:
        """Objective value, ``point(x).f``. Raises :class:`OutOfDomain` on
        infeasible Poisson iterates."""
        return self.point(x).f

    def gradient(self, x: np.ndarray, w1: np.ndarray | None = None) -> np.ndarray:
        """Full gradient: ``A^T w1`` plus the regularizer's, from the
        first-derivative row weights ``w1`` at ``x``; ``point(x).g`` without them."""
        if w1 is None:
            return self.point(x).g
        return self._row_coeff(self.dataset.m) * (self.dataset.A.T @ w1) + self.reg.grad(x)

    def hessian(self, x: np.ndarray, w2: np.ndarray | None = None) -> np.ndarray:
        """Dense N x N Hessian, exactly symmetric; intended for N small enough to
        materialize. It is :meth:`reduced_hessian` over every column and row."""
        return self.reduced_hessian(x, np.arange(self.dataset.N, dtype=np.int64), w2=w2)

    def reduced_gradient(self, x: np.ndarray, S: np.ndarray) -> np.ndarray:
        """Gradient restricted to the coordinate set ``S`` (exact slice)."""
        S = _check_index_set(S, self.dataset.N)
        return self.gradient(x)[S]

    def reduced_hessian(
        self,
        x: np.ndarray,
        S: np.ndarray,
        row_sample: np.ndarray | None = None,
        w2: np.ndarray | None = None,
    ) -> np.ndarray:
        """The ``S x S`` block of the Hessian in O(len(rows) * n^2).

        With ``row_sample`` given, the data term is the reweighted sum over the
        sampled rows (full rows reproduce the exact block). Never forms the
        N x N Hessian. ``w2`` is the curvature row weights at ``x``, taken from
        ``point(x)`` when not given.
        """
        S = _check_index_set(S, self.dataset.N)
        rows = self._rows(row_sample)
        if w2 is None:
            w2 = self.point(x).w2
        gram, _, (block, _) = kernels.gram_gather(self.dataset.A, (w2, None), S, rows)
        coeff = self._row_coeff(rows.shape[0])
        return self._hessian_block(gram, block, coeff, self.reg.hess_diag(x[S]))

    def _rows(self, row_sample: np.ndarray | None) -> np.ndarray:
        m = self.dataset.m
        return np.arange(m, dtype=np.int64) if row_sample is None else _check_index_set(row_sample, m)

    @staticmethod
    def _hessian_block(gram, block: np.ndarray, coeff: float, diag: np.ndarray) -> np.ndarray:
        # B^T B where gram_gather skipped the syrk; scaled in place: one n x n matrix, not two
        gram = block.T @ block if gram is None else gram
        gram *= coeff
        gram.flat[::gram.shape[0] + 1] += diag
        return gram


class Ray:
    """The objective restricted to ``x + t d``, with stable differences.

    ``delta(t)`` returns ``f(x + t d) - f(x)`` computed without subtracting
    large near-equal values, so line searches keep resolving decreases far
    below the rounding noise of the absolute objective value. Each call is
    O(m + N). The ray reads the iterate's :class:`Point` (``x``, the margins
    ``z = A x`` and the row weights ``w1``), so the GLM terms are not
    evaluated again; ``dz = A d`` is formed at construction unless the caller
    passes it.

    The ray remembers the largest step it has found feasible: the Poisson
    domain along the ray is an interval of steps containing 0, so no step
    up to that one is tested again.
    """

    def __init__(self, point: Point, d: np.ndarray, dz: np.ndarray | None = None):
        model = point.model
        self.model = model
        self.x = point.x
        self.d = d
        self.z = point.z
        self.dz = model.predict(d) if dz is None else dz
        self._feasible_to = 0.0
        if model.kind == GAUSSIAN:
            # w1 is the residual z - b
            self._s1 = float(self.dz @ point.w1)
            self._s2 = float(self.dz @ self.dz)
        elif model.kind == LOGISTIC:
            # row loss softplus(u) with u = -b z; along the ray u moves by t v;
            # w1 = -b sigma(u), so sigma(u) = -b w1 exactly for b = +-1
            self._u = -model.dataset.b * self.z
            self._v = -model.dataset.b * self.dz
            self._sig = -model.dataset.b * point.w1

    def feasible(self, t: float) -> bool:
        if self.model.kind != POISSON or 0.0 <= t <= self._feasible_to:
            return True
        if not self._margins_positive(t):
            return False
        self._feasible_to = max(self._feasible_to, t)
        return True

    def _margins_positive(self, t: float) -> bool:
        # the O(m) test
        return float(np.min(self.z + t * self.dz)) > 0.0

    def delta(self, t: float) -> float:
        """``f(x + t d) - f(x)``; raises :class:`OutOfDomain` when infeasible."""
        model = self.model
        coeff = model._row_coeff(model.dataset.m)
        if model.kind == GAUSSIAN:
            row = coeff * (t * self._s1 + 0.5 * t * t * self._s2)
        elif model.kind == LOGISTIC:
            row = coeff * float(np.sum(self._logistic_rows(t)))
        else:
            if not self.feasible(t):
                raise OutOfDomain("trial point left the Poisson domain")
            row = coeff * float(np.sum(t * self.dz - model.dataset.b * np.log1p(t * self.dz / self.z)))
        return row + self._reg_delta(t)

    def _logistic_rows(self, t: float) -> np.ndarray:
        """Per-row ``softplus(u + t v) - softplus(u)``, finite wherever both terms are."""
        h = t * self._v
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # log(1 + sigma(u) (e^h - 1)): full accuracy for small steps
            arg = self._sig * np.expm1(h)
            out = np.log1p(arg)
        # Where 1 + arg cancels (sigma(u) rounds to 1 and e^h to 0), or arg
        # overflows or is 0 * inf, sum log(sigma(-u) + sigma(u) e^h) in log space.
        far = ~((arg > -0.5) & (arg < np.inf))
        if far.any():
            u = self._u[far]
            out[far] = np.logaddexp(-np.logaddexp(0.0, u), h[far] - np.logaddexp(0.0, -u))
        return out

    def _reg_delta(self, t: float) -> float:
        reg = self.model.reg
        if not reg.active:
            return 0.0
        x, d = self.x, self.d
        out = reg.xi2 * (2.0 * t * float(x @ d) + t * t * float(d @ d))
        if reg.xi1 > 0:
            y = x + t * d
            num = t * d * (2.0 * x + t * d)  # y^2 - x^2 without cancellation
            den = np.sqrt(reg.c**2 + y * y) + np.sqrt(reg.c**2 + x * x)
            out += reg.xi1 * float(np.sum(num / den))
        return out


def _check_index_set(S: np.ndarray, limit: int) -> np.ndarray:
    S = np.asarray(S, dtype=np.int64)
    if S.ndim != 1 or S.size < 1:
        raise InvalidDimensions("index set must be a nonempty 1-d array")
    if np.any(np.diff(S) <= 0):
        raise InvalidDimensions("index set must be strictly increasing")
    if S[0] < 0 or S[-1] >= limit:
        raise InvalidDimensions(f"index set entries must lie in [0, {limit})")
    return S


def make_objective(kind: str, dataset: Dataset, reg: Regularization | None = None) -> ObjectiveModel:
    """Validate labels for ``kind`` and build the model (computing the Poisson scale)."""
    if kind not in KINDS:
        raise DomainError(f"unknown model kind {kind!r}; expected one of {KINDS}")
    reg = reg or Regularization()
    if kind == POISSON:
        scale = poisson_scale(dataset.b, dataset.m)
        return ObjectiveModel(kind, dataset, reg, scale=scale)
    if kind == LOGISTIC:
        labels = set(np.unique(dataset.b).tolist())
        if labels <= {0.0, 1.0}:
            dataset = Dataset(dataset.A, np.where(dataset.b > 0.5, 1.0, -1.0))
        elif not labels <= {-1.0, 1.0}:
            raise DomainError(f"logistic labels must be in {{0,1}} or {{-1,+1}}, got {sorted(labels)[:6]}")
    return ObjectiveModel(kind, dataset, reg, scale=1.0)


def feasible_start(model: ObjectiveModel) -> np.ndarray:
    """A point in the objective's domain.

    Gaussian/logistic: the zero vector. Poisson: the all-ones direction
    scaled by the row sums so every margin is at least 1 when they share a
    sign; otherwise the search of :func:`_positive_margin_vector` (20 tries,
    seed 0). Raises :class:`NoFeasibleStart` when the search finds no point.
    """
    A, N = model.dataset.A, model.dataset.N
    if model.kind != POISSON:
        return np.zeros(N)
    r = A @ np.ones(N)
    if np.all(r > 0):
        return np.ones(N) / float(r.min())
    if np.all(r < 0):
        return -np.ones(N) / float((-r).min())
    x = _positive_margin_vector(A, np.random.default_rng(0), tries=20)
    if x is None:
        raise NoFeasibleStart("the domain {x : A x > 0} is empty or numerically so")
    return x


def _positive_margin_vector(A: np.ndarray, gen: np.random.Generator, tries: int) -> np.ndarray | None:
    """Search for ``x`` with ``A x`` entrywise positive, rescaled so the
    margins average ``_MEAN_MARGIN``; None when none is found.

    Least squares against positive targets works when the column span is wide
    (m <= N); otherwise the feasibility cone is thin and an exact LP decides
    it, returning the most-interior direction so the margins stay comparable.

    The first target is all ones. If it fails, one thin SVD of ``A`` gives the
    range ``lstsq`` projects onto, and a later target ``u`` whose projection
    ``P u`` has a clearly negative entry skips its exact solve, which could
    not succeed. Every try still draws its target, so the result and ``gen``'s
    state are those of one ``lstsq`` per try.
    """
    m = A.shape[0]
    u = np.ones(m)
    basis = None  # of the range lstsq fits A x in, once the first try has failed
    for k in range(tries):
        if k == 1:
            basis, tol = _lstsq_range(A)
        if basis is None or (basis @ (basis.T @ u)).min() >= -tol * np.linalg.norm(u):
            x, *_ = np.linalg.lstsq(A, u, rcond=None)
            if float((A @ x).min()) > 0:
                break
        u = 1.0 + np.abs(gen.standard_normal(m))
    else:
        x = _max_min_margin(A)
        if x is None:
            return None
    return x * (_MEAN_MARGIN / float((A @ x).mean()))


def _lstsq_range(A: np.ndarray) -> tuple[np.ndarray | None, float]:
    """``(U_r, tol)``: the left singular vectors of ``A`` above gelsd's cutoff
    ``eps * max(m, N) * s_max``, which span the range ``lstsq(A, u,
    rcond=None)`` fits ``A x`` in, and a bound on ``|A x - U_r U_r^T u| /
    ||u||``, 1e4 times its rounding scale ``eps * s_max / s_r`` (on 400x200
    draws the gap is about 4e-14, ``tol`` 4e-9). ``U_r`` is None when a
    singular value lies within 2x of the cutoff, on either side of which
    rounding could put it."""
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    eps = np.finfo(np.float64).eps
    cutoff = eps * max(A.shape) * s[0]
    r = int(np.count_nonzero(s > cutoff))
    if r == 0 or np.any((s > cutoff / 2) & (s < 2 * cutoff)):
        return None, 0.0
    return U[:, :r], 1e4 * eps * s[0] / s[r - 1]


def _max_min_margin(A: np.ndarray) -> np.ndarray | None:
    """LP for the most-interior ray of the cone {x : A x > 0}.

    Maximizes the smallest margin subject to a fixed margin sum, which keeps
    the synthesized Poisson rates on one scale instead of spanning orders of
    magnitude.
    """
    import scipy.optimize

    m, N = A.shape
    # variables (x, s): max s  s.t.  A x >= s, sum(A x) = m
    c = np.zeros(N + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-A, np.ones((m, 1))])
    A_eq = np.hstack([A.sum(axis=0, keepdims=True), np.zeros((1, 1))])
    res = scipy.optimize.linprog(
        c, A_ub=A_ub, b_ub=np.zeros(m), A_eq=A_eq, b_eq=np.array([float(m)]),
        bounds=[(None, None)] * N + [(0.0, None)], method="highs",
    )
    if res.status != 0 or res.x is None:
        return None
    x = res.x[:-1]
    return x if float((A @ x).min()) > 0 else None

"""Dense numeric kernels and scalar functions used by every other module.

Everything here is double precision. The solvers are deliberately direct
(Cholesky, QR): problem sizes are chosen so that dense factorizations of the
reduced systems are cheap.
"""

import logging

import numpy as np
from scipy.linalg import eigh as _eigh
from scipy.linalg.lapack import dgeqrf as _geqrf, dgeqrf_lwork as _geqrf_lwork, dorgqr as _orgqr
from scipy.linalg.lapack import dormqr as _ormqr, dstein as _stein, dsterf as _sterf
from scipy.linalg.lapack import dpotrf as _potrf, dpotrs as _potrs
from scipy.linalg.lapack import dsytrd as _sytrd, dsytrd_lwork as _sytrd_lwork

from .errors import DomainError, InvalidDimensions, NotPositiveDefinite
from .rng import RngState

# Self-concordant sub-optimality bound f - f* <= lambda^2 is valid up to this
# decrement; it doubles as the upper limit for the solver tolerances.
DECREMENT_LIMIT = 0.68
DECREMENT_SQ_LIMIT = DECREMENT_LIMIT**2

logger = logging.getLogger(__name__)
_DRAW_BLOCK_BYTES = 1 << 20  # haar_frame draws its normals in row blocks of about this size


def _check_info(info: int, routine: str) -> None:
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def spd_factor(A: np.ndarray, overwrite_a: bool = False):
    """Factor symmetric positive definite ``A`` once; returns ``solve``, with
    ``solve(rhs)`` the solution of ``A x = rhs`` for a vector or a matrix of
    right-hand sides, as many times as needed.

    Factors ``A`` with LAPACK's ``dpotrf`` (lower triangle) and solves with
    ``dpotrs``, bound once at import: the same calls, and so the same bits,
    as ``scipy.linalg.cho_solve(cho_factor(A, lower=True), rhs)``, without
    the wrappers' per-call dispatch. ``A`` is not modified unless
    ``overwrite_a`` is set (scipy's name). Then ``A`` must be exactly
    symmetric, and a column-major ``A`` is factored in place: its lower
    triangle holds the factor afterwards. If the factorization fails, it
    retries once with the diagonal shifted by ``1e-10 * (1 + max diag)`` and
    logs the shift at WARNING -- a PD matrix that fails to factor is a
    conditioning artifact, and a tiny shift fixes it without masking
    genuinely indefinite inputs. The retry factors the original matrix:
    ``dpotrf`` writes only the lower triangle, so an overwritten ``A`` is
    rebuilt from its strict upper triangle and the diagonal saved before the
    first attempt.

    Raises
    ------
    NotPositiveDefinite
        If the factorization fails even after the shift retry.
    InvalidDimensions
        If ``A`` is not square.
    ValueError
        If ``A`` holds NaN or inf.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidDimensions(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    diag = np.diagonal(A).copy() if overwrite_a else None
    c, info = _potrf(A, lower=1, clean=0, overwrite_a=overwrite_a)
    if info > 0:
        if overwrite_a:  # the failed attempt wrote the lower triangle
            A = np.triu(A, 1)
            A += A.T
            np.fill_diagonal(A, diag)
        shift = 1e-10 * (1.0 + float(np.max(np.diagonal(A))))
        logger.warning("Cholesky failed at leading minor %d; retrying with diagonal shift %.3e",
                       info, shift)
        c, info = _potrf(A + shift * np.eye(A.shape[0]), lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise NotPositiveDefinite(f"Cholesky failed even after diagonal shift {shift:.3e}")
    _check_info(info, "dpotrf")

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, info = _potrs(c, rhs, lower=1)
        _check_info(info, "dpotrs")
        return x

    return solve


def spd_solve(A: np.ndarray, rhs: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """Solve ``A x = rhs`` for symmetric positive definite ``A``: one
    :func:`spd_factor` and one solve. ``rhs``, a vector or a matrix of
    right-hand sides, is not modified, and is checked before ``A`` is
    factored: :class:`InvalidDimensions` if its length is not ``A``'s order,
    ``ValueError`` if it holds NaN or inf. ``A``, ``overwrite_a`` and the
    other errors are as in :func:`spd_factor`.
    """
    A = np.asarray(A, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if A.shape[:1] != rhs.shape[:1]:
        raise InvalidDimensions(f"matrix shape {A.shape} does not match rhs shape {rhs.shape}")
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    return spd_factor(A, overwrite_a)(rhs)


def top_eigenpairs(H: np.ndarray, k: int):
    """The ``k`` largest eigenvalues of symmetric ``H``, ascending, and their
    orthonormal eigenvectors as the columns of an N x k matrix.

    LAPACK routines bound at import: ``dsytrd`` reduces the lower triangle
    of ``H`` to a tridiagonal ``T`` (blocked), ``dsterf`` finds every
    eigenvalue of ``T``, inverse iteration (``dstein``) the top ``k``
    eigenvectors, and ``dormqr`` transforms them back. Only the reduction
    costs O(N^3). When ``T`` splits (an off-diagonal fails ``dstebz``'s
    split test, as for a diagonal or a 1 x 1 ``H``) or ``dstein`` reports a
    failure, it returns ``scipy.linalg.eigh(H, subset_by_index=[N - k, N -
    1])`` instead and logs that at DEBUG. ``H`` must be exactly symmetric;
    a column-major ``H`` is overwritten (pass ``H.T`` for a row-major one),
    any other is copied.

    Raises
    ------
    InvalidDimensions
        If ``H`` is not square or ``k`` is not in ``[1, N]``.
    ValueError
        If ``H`` holds NaN or inf.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidDimensions(f"expected a square matrix, got shape {H.shape}")
    N = H.shape[0]
    if not 1 <= k <= N:
        raise InvalidDimensions(f"need 1 <= k <= N, got k={k}, N={N}")
    if not np.isfinite(H).all():
        raise ValueError("array must not contain infs or NaNs")
    diag = np.diagonal(H).copy()
    lwork, info = _sytrd_lwork(N, lower=1)
    _check_info(info, "dsytrd")
    c, d, e, tau, info = _sytrd(H, lower=1, lwork=int(lwork), overwrite_a=1)
    _check_info(info, "dsytrd")
    ulp, safmin = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    if N > 1 and np.all(e * e >= np.abs(d[1:] * d[:-1]) * ulp**2 + safmin):
        vals, info = _sterf(d, e)
        if info == 0:
            vals = vals[N - k:]
            # one block: every eigenvalue in block 1, which ends at row N
            z, info = _stein(d, e, vals, np.ones(N, np.int32), np.full(N, N, np.int32))
        if info == 0:
            # Q = H(1) ... H(N-1), and H(i) keeps its reflector below the
            # subdiagonal: the QR reflectors of the last N - 1 rows. With c's
            # leading dimension N they are the contiguous N x (N - 1) block
            # from c[1, 0] on, whose last row (c's first, from column 1)
            # dormqr never reads; slicing c[1:, :-1] would copy them.
            a = c.reshape(-1, order="F")[1:1 + N * (N - 1)].reshape((N, N - 1), order="F")
            _, work, info = _ormqr("L", "N", a, tau, z[1:], -1)
            _check_info(info, "dormqr")
            z[1:], _, info = _ormqr("L", "N", a, tau, z[1:], int(work[0]), overwrite_c=1)
            _check_info(info, "dormqr")
            return vals, z
        logger.debug("top_eigenpairs: dsterf or dstein returned info %d; eigh of the %d x %d "
                     "matrix", info, N, N)
    else:
        logger.debug("top_eigenpairs: the %d x %d tridiagonal splits; eigh of the matrix", N, N)
    np.fill_diagonal(c, diag)  # dsytrd left the strict upper triangle as it was
    return _eigh(c, lower=False, subset_by_index=[N - k, N - 1], overwrite_a=True,
                 check_finite=False)


def omega(x):
    """omega(x) = x - log(1 + x), the lower sub-optimality envelope (x >= 0)."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise DomainError("omega is defined for x >= 0")
    out = x - np.log1p(x)
    return float(out) if out.ndim == 0 else out

def omega_star(x):
    """omega*(x) = -x - log(1 - x), the upper sub-optimality envelope (0 <= x < 1)."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0) or np.any(x >= 1):
        raise DomainError("omega_star is defined for x in [0, 1)")
    out = -x - np.log1p(-x)
    return float(out) if out.ndim == 0 else out


def sample_without_replacement(N: int, n: int, rng: RngState) -> np.ndarray:
    """Uniformly sample ``n`` of ``N`` indices without replacement, sorted ascending.

    Each index has marginal inclusion probability ``n / N``. Advances ``rng``
    by exactly one draw.
    """
    if not 1 <= n <= N:
        raise InvalidDimensions(f"need 1 <= n <= N, got n={n}, N={N}")
    idx = rng.draw().choice(N, size=n, replace=False)
    idx.sort()
    return idx.astype(np.int64)


def haar_frame(nrows: int, ncols: int, gen: np.random.Generator) -> np.ndarray:
    """First ``ncols`` columns of a Haar-orthogonal ``nrows x nrows`` matrix,
    column-major: ``Q diag(sign(diag R))`` for the thin QR of a standard
    normal ``nrows x ncols`` matrix drawn row by row from ``gen``.

    The normals fill one column-major buffer in row blocks of about 1 MiB,
    which LAPACK factors (``dgeqrf``) and turns into ``Q`` (``dorgqr``) in
    place: here the same bits as ``np.linalg.qr(g, mode="reduced")``, with a
    peak of the frame plus one block and the workspace.
    """
    if not 1 <= ncols <= nrows:
        raise InvalidDimensions(f"need 1 <= ncols <= nrows, got {ncols}, {nrows}")
    g = np.empty((nrows, ncols), order="F")
    step = max(1, _DRAW_BLOCK_BYTES // (8 * ncols))
    for r in range(0, nrows, step):
        g[r:r + step] = gen.standard_normal((min(step, nrows - r), ncols))
    # The optimal lwork selects LAPACK's blocked path, as numpy's QR does; the
    # default lwork runs the unblocked one, about 4x slower and with other
    # bits. With overwrite_a the workspace query does not copy g.
    lwork, info = _geqrf_lwork(nrows, ncols)
    _check_info(info, "dgeqrf")
    g, tau, _, info = _geqrf(g, lwork=int(lwork), overwrite_a=1)
    _check_info(info, "dgeqrf")
    signs = np.sign(np.diagonal(g))
    signs[signs == 0] = 1.0
    _, work, info = _orgqr(g, tau, lwork=-1, overwrite_a=1)
    _check_info(info, "dorgqr")
    g, _, info = _orgqr(g, tau, lwork=int(work[0]), overwrite_a=1)
    _check_info(info, "dorgqr")
    g *= signs
    return g

"""Hot per-row kernels with a numba fast path and a pure-numpy fallback.

Two kernel families dominate a solver iteration:

* ``glm_terms`` -- one pass over the ``m`` rows producing the loss sum and the
  first/second-derivative row weights for a GLM.
* ``gram_gather`` -- the weighted Gram matrix ``sum_i w_i a_i[cols] a_i[cols]^T``
  over a row subset, gathered directly from the data matrix. This is the
  O(m n^2) reduced-curvature assembly; the numba path fuses the column gather
  with the accumulation instead of materializing the m x n slice. The numpy
  path takes ``GRAM_ROWS`` rows at a time: it gathers them (a plain row copy
  when every column is used, as for a block of ``A[:, S]`` the solver has
  already gathered with ``np.take``), scales the copy in place by ``sqrt(w)``
  and adds its ``B^T B``, which numpy runs as BLAS syrk. The weights must be
  nonnegative; they are for all three GLMs. A syrk result is exactly
  symmetric, and so is their sum, so no mirror step is needed; the scratch
  memory is one chunk, never a second m x n block.

Backend selection (once, at import):

* ``SIGMA_OPT_NUMBA=0`` (or ``false``/``off``/``no``): force the numpy path.
* ``SIGMA_OPT_NUMBA=1`` (or ``true``/``on``/``yes``): require numba everywhere,
  raise if missing.
* unset: numba when importable, with one exception -- the Gram assembly
  switches to the BLAS-backed numpy path above a fixed block size, where dgemm
  beats the fused gather loop (see ``benchmarks/bench_kernels.py`` for the
  crossover measurements).

Both implementations are always defined so tests and ``benchmarks/bench_kernels.py``
can compare them in one process. Kernels are compiled serially (no ``parallel=True``)
and the crossover depends only on the block size, so runs stay bit-reproducible.

``set_num_threads`` caps, at runtime, numba's thread pool and the pool of each
OpenBLAS loaded in the process (numpy's and scipy's wheels each bring one).
"""

import ctypes
import logging
import os

import numpy as np
from scipy.special import expit

_log = logging.getLogger(__name__)

_ENV = os.environ.get("SIGMA_OPT_NUMBA", "").strip().lower()
_FORCE_OFF = _ENV in {"0", "false", "off", "no"}
_FORCE_ON = _ENV in {"1", "true", "on", "yes"}

if _FORCE_OFF:
    _numba = None
else:
    try:
        import numba as _numba
    except ImportError:
        if _FORCE_ON:
            raise ImportError("SIGMA_OPT_NUMBA requires numba, which is not installed")
        _numba = None


def using_numba() -> bool:
    """True when the selected backend is the numba one."""
    return _numba is not None


def _openblas_pools():
    """``(get_num_threads, set_num_threads)`` of each OpenBLAS loaded here.

    Libraries are found through ``/proc/self/maps``, so the list is empty off
    Linux, and also where the BLAS in use is not OpenBLAS.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy's wheel exports scipy_openblas_*64_, scipy's scipy_openblas_*,
        # a system OpenBLAS plain openblas_*.
        for stem in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, stem.format("get"), None)
            put = getattr(lib, stem.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return pools


def set_num_threads(n: int) -> None:
    """Cap numba's pool and each loaded OpenBLAS pool at ``n`` threads; 0 leaves them.

    The cap applies at runtime, so it works after numpy and scipy have loaded
    their OpenBLAS. Each pool ends at ``min(current, n)``: a lower count set
    before start (``OPENBLAS_NUM_THREADS=1``, ``NUMBA_NUM_THREADS=1``) is kept.
    Where no OpenBLAS can be found only numba's pool is capped.
    """
    if n <= 0:
        return
    if _numba is not None:
        _numba.set_num_threads(min(n, _numba.get_num_threads()))
    pools = _openblas_pools()
    if not pools:
        _log.debug("no loaded OpenBLAS found; BLAS threads are not capped")
    for get, put in pools:
        put(min(n, get()))


# ---------------------------------------------------------------------------
# numpy implementations


def gaussian_terms_numpy(z, b):
    r = z - b
    return 0.5 * float(r @ r), r, np.ones_like(z)


def logistic_terms_numpy(z, b):
    t = b * z
    loss = float(np.sum(np.logaddexp(0.0, -t)))
    s = expit(-t)
    return loss, -b * s, s * (1.0 - s)


def poisson_terms_numpy(z, b):
    # caller guarantees z > 0
    loss = float(np.sum(z - b * np.log(z)))
    return loss, 1.0 - b / z, b / (z * z)


# Rows per syrk call in gram_gather_numpy; the scratch copy is GRAM_ROWS x n.
# At m = 4000, n = 200 on one thread, 256-row calls take about as long as one
# call over the whole block.
GRAM_ROWS = 256


def gram_gather_numpy(A, w, cols, rows):
    n = cols.shape[0]
    every_col = n == A.shape[1]
    q = np.zeros((n, n))
    for lo in range(0, rows.shape[0], GRAM_ROWS):
        r = rows[lo:lo + GRAM_ROWS]
        block = A[r] if every_col else A[np.ix_(r, cols)]
        block *= np.sqrt(w[r])[:, None]
        q += block.T @ block
    return q


# ---------------------------------------------------------------------------
# numba implementations

if _numba is not None:
    _njit = _numba.njit(cache=True)

    @_njit
    def gaussian_terms_numba(z, b):
        m = z.shape[0]
        w1 = np.empty(m)
        w2 = np.ones(m)
        total = 0.0
        for i in range(m):
            r = z[i] - b[i]
            total += 0.5 * r * r
            w1[i] = r
        return total, w1, w2

    @_njit
    def logistic_terms_numba(z, b):
        m = z.shape[0]
        w1 = np.empty(m)
        w2 = np.empty(m)
        total = 0.0
        for i in range(m):
            t = b[i] * z[i]
            if t >= 0.0:
                e = np.exp(-t)
                total += np.log1p(e)
                s = e / (1.0 + e)
            else:
                e = np.exp(t)
                total += np.log1p(e) - t
                s = 1.0 / (1.0 + e)
            w1[i] = -b[i] * s
            w2[i] = s * (1.0 - s)
        return total, w1, w2

    @_njit
    def poisson_terms_numba(z, b):
        m = z.shape[0]
        w1 = np.empty(m)
        w2 = np.empty(m)
        total = 0.0
        for i in range(m):
            zi = z[i]
            total += zi - b[i] * np.log(zi)
            w1[i] = 1.0 - b[i] / zi
            w2[i] = b[i] / (zi * zi)
        return total, w1, w2

    @_njit
    def gram_gather_numba(A, w, cols, rows):
        n = cols.shape[0]
        q = np.zeros((n, n))
        buf = np.empty(n)
        for ri in range(rows.shape[0]):
            i = rows[ri]
            wi = w[i]
            for j in range(n):
                buf[j] = A[i, cols[j]]
            for j in range(n):
                t = wi * buf[j]
                for k in range(j, n):
                    q[j, k] += t * buf[k]
        for j in range(n):
            for k in range(j + 1, n):
                q[k, j] = q[j, k]
        return q

else:
    gaussian_terms_numba = None
    logistic_terms_numba = None
    poisson_terms_numba = None
    gram_gather_numba = None


# ---------------------------------------------------------------------------
# dispatch

_TERMS = {
    "gaussian": gaussian_terms_numba if _numba is not None else gaussian_terms_numpy,
    "logistic": logistic_terms_numba if _numba is not None else logistic_terms_numpy,
    "poisson": poisson_terms_numba if _numba is not None else poisson_terms_numpy,
}

# Measured crossover: the fused gather loop wins for narrow blocks, dgemm wins
# once the n x n accumulation dominates. Forced modes bypass the hybrid.
GRAM_NUMBA_MAX_COLS = 32


def glm_terms(kind: str, z: np.ndarray, b: np.ndarray):
    """Per-row loss sum and derivative weights for one GLM kind.

    Returns ``(loss_sum, w1, w2)`` with ``w1[i] = d loss_i / d z_i`` and
    ``w2[i] = d^2 loss_i / d z_i^2``. For the Poisson kind the caller must have
    verified ``z > 0``.
    """
    return _TERMS[kind](z, b)


def gram_gather(A: np.ndarray, w: np.ndarray, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``sum_{i in rows} w[i] * A[i, cols] A[i, cols]^T`` as an exactly symmetric matrix.

    ``cols`` and ``rows`` are strictly increasing index arrays. ``w`` must be
    nonnegative: the numpy path scales rows by ``sqrt(w)``.
    """
    if _numba is None:
        return gram_gather_numpy(A, w, cols, rows)
    if _FORCE_ON or cols.shape[0] <= GRAM_NUMBA_MAX_COLS:
        return gram_gather_numba(A, w, cols, rows)
    return gram_gather_numpy(A, w, cols, rows)


def warmup() -> None:
    """Trigger JIT compilation of every kernel (no-op on the numpy path)."""
    z = np.array([0.5, 1.5])
    b = np.array([1.0, -1.0])
    for kind in ("gaussian", "logistic"):
        glm_terms(kind, z, b)
    glm_terms("poisson", z, np.array([1.0, 2.0]))
    A = np.eye(2)
    gram_gather(A, np.array([1.0, 0.5]), np.array([0, 1], dtype=np.int64),
                np.array([0, 1], dtype=np.int64))

"""Hot per-row kernels, in numpy.

Two kernel families dominate a solver iteration:

* ``glm_terms`` -- one pass over the ``m`` rows producing the loss sum and the
  first/second-derivative row weights for a GLM.
* ``gram_gather`` -- the weighted Gram matrix ``sum_i w_i a_i[cols] a_i[cols]^T``
  over a row subset, gathered directly from the data matrix. This is the
  O(m n^2) reduced-curvature assembly, and over every row and column the
  dense Hessian's data term. It gathers the ``rows x cols`` block once,
  scales it by ``sqrt(w)`` (nonnegative for all three GLMs) and returns
  ``B^T B``, which numpy runs as one BLAS syrk: the result is exactly
  symmetric with no mirror step. ``A`` is never modified, and a row- or
  column-major ``A`` gives the same bits. The same gather can also give
  ``B^T v`` for a row vector ``v``: SIGMA's restricted gradient.

``set_num_threads`` caps, at runtime, the pool of each OpenBLAS loaded in the
process (numpy's and scipy's wheels each bring one).
"""

import ctypes
import logging

import numpy as np
from scipy.special import expit

_log = logging.getLogger(__name__)


def using_numba() -> bool:
    """Always False: numpy is the only backend (kept for callers that record it)."""
    return False


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
    """Cap each loaded OpenBLAS pool at ``n`` threads; 0 leaves them.

    The cap applies at runtime, so it works after numpy and scipy have loaded
    their OpenBLAS. Each pool ends at ``min(current, n)``: a lower count set
    before start (``OPENBLAS_NUM_THREADS=1``) is kept. Where no OpenBLAS can
    be found nothing is capped.
    """
    if n <= 0:
        return
    pools = _openblas_pools()
    if not pools:
        _log.debug("no loaded OpenBLAS found; BLAS threads are not capped")
    for get, put in pools:
        put(min(n, get()))


def _gaussian(z, b):
    r = z - b
    return 0.5 * float(r @ r), r, np.ones_like(z)


def _logistic(z, b):
    t = b * z
    loss = float(np.sum(np.logaddexp(0.0, -t)))
    s = expit(-t)
    return loss, -b * s, s * (1.0 - s)


def _poisson(z, b):
    # caller guarantees z > 0
    loss = float(np.sum(z - b * np.log(z)))
    return loss, 1.0 - b / z, b / (z * z)


_TERMS = {"gaussian": _gaussian, "logistic": _logistic, "poisson": _poisson}


def glm_terms(kind: str, z: np.ndarray, b: np.ndarray):
    """Per-row loss sum and derivative weights for one GLM kind.

    Returns ``(loss_sum, w1, w2)`` with ``w1[i] = d loss_i / d z_i`` and
    ``w2[i] = d^2 loss_i / d z_i^2``. For the Poisson kind the caller must have
    verified ``z > 0``.
    """
    return _TERMS[kind](z, b)


def gram_gather(A: np.ndarray, w, cols: np.ndarray, rows: np.ndarray):
    """``sum_{i in rows} w[i] * A[i, cols] A[i, cols]^T`` as an exactly symmetric matrix.

    ``cols`` and ``rows`` are strictly increasing index arrays. ``w`` must be
    nonnegative: rows are scaled by ``sqrt(w)``. Given a pair ``(w, v)`` of
    row vectors instead, it returns ``(gram, B^T v[rows])``, where the product
    is taken from the gathered block ``B = A[rows][:, cols]`` before it is
    scaled: one gather serves both.
    """
    w, v = w if isinstance(w, tuple) else (w, None)
    every_row = rows.shape[0] == A.shape[0]
    every_col = cols.shape[0] == A.shape[1]
    if every_row and every_col:
        product = None if v is None else A.T @ v
        block = A * np.sqrt(w)[:, None]
    else:
        block = A[:, cols] if every_row else A[rows] if every_col else A[np.ix_(rows, cols)]
        product = None if v is None else block.T @ (v if every_row else v[rows])
        block *= np.sqrt(w if every_row else w[rows])[:, None]
    # the square roots are freed before the syrk allocates the result
    gram = block.T @ block
    return gram if v is None else (gram, product)

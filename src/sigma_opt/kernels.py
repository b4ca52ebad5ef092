"""Hot per-row kernels, in numpy.

Two kernel families dominate a solver iteration:

* ``glm_terms`` -- one pass over the ``m`` rows producing the loss sum and the
  first/second-derivative row weights for a GLM.
* ``gram_gather`` -- the weighted Gram matrix ``sum_i w_i a_i[cols] a_i[cols]^T``
  over a row subset, gathered directly from the data matrix. This is the
  O(m n^2) reduced-curvature assembly, and over every row and column the
  dense Hessian's data term. It gathers the columns ``A[:, cols]`` once,
  keeps the sampled rows, scales them by ``sqrt(w)`` (nonnegative for all
  three GLMs) and forms ``B^T B``, which numpy runs as one BLAS syrk: the
  result is exactly symmetric with no mirror step. ``A`` is never modified,
  and a row- or column-major ``A`` gives the same Gram bits. It has one
  calling form, which also gives ``A[:, cols]^T v`` over every row for a row
  vector ``v`` (SIGMA's restricted gradient) and hands back the scaled block
  ``B``. From ``B`` follow the coarse step's ``A[:, cols] d`` without a
  second gather and, when ``B`` has fewer rows than columns, the coarse solve
  without the n x n Gram (``coarse.galerkin_system`` decides which).
"""

import numpy as np
from scipy.special import expit


def using_numba() -> bool:
    """Always False: numpy is the only backend (kept for callers that record it)."""
    return False


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


def gram_gather(A: np.ndarray, wv: tuple, cols: np.ndarray, rows: np.ndarray):
    """``(gram, product, (B, s))`` for the row weights and row vector ``(w, v)``.

    ``gram`` is ``sum_{i in rows} w[i] * A[i, cols] A[i, cols]^T``, exactly
    symmetric. ``cols`` and ``rows`` are strictly increasing index arrays.
    ``w`` must be nonnegative: rows are scaled by ``sqrt(w)``. ``product`` is
    ``A[:, cols]^T v`` over every row, from the gathered columns before any
    row is dropped or scaled, so one column gather serves both; it is None
    when ``v`` is. ``B`` is the block the syrk reads and leaves intact,
    ``A[rows, cols] * s[:, None]`` with ``s = sqrt(w[rows])``. ``gram`` is
    None when ``B`` has fewer rows than columns: ``B^T B`` then has rank
    below its order, and the caller decides from ``B`` whether to form it
    (``ObjectiveModel._hessian_block``) or to factor the smaller capacitance
    matrix (``coarse.galerkin_system``).
    """
    w, v = wv
    block = A if cols.shape[0] == A.shape[1] else A[:, cols]
    product = None if v is None else block.T @ v
    if rows.shape[0] < A.shape[0]:
        block, w = block[rows], w[rows]
    s = np.sqrt(w)
    if block is A:  # A is never modified
        block = A * s[:, None]
    else:
        block *= s[:, None]
    gram = block.T @ block if block.shape[0] >= block.shape[1] else None
    return gram, product, (block, s)

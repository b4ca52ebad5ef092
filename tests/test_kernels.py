"""Numerical agreement between the numba fast path, the numpy fallback and
explicit reference sums."""

import warnings

import numpy as np
import pytest

from sigma_opt import kernels

needs_numba = pytest.mark.skipif(
    not kernels.using_numba(), reason="numba backend not active; nothing to compare"
)


def gram_reference(A, w, cols, rows):
    """``sum_{i in rows} w_i a_i[cols] a_i[cols]^T``, one row at a time."""
    q = np.zeros((cols.shape[0], cols.shape[0]))
    for i in rows:
        a = A[i, cols]
        q += w[i] * np.outer(a, a)
    return q


@pytest.mark.parametrize("case", ["row_subset", "all_rows", "zero_weights", "all_columns"])
def test_gram_numpy_matches_reference(case, gen):
    # more rows than one GRAM_ROWS chunk, so the chunked accumulation is exercised
    m, N = 2 * kernels.GRAM_ROWS + 37, 25
    A = gen.standard_normal((m, N))
    A_before = A.copy()
    w = np.abs(gen.standard_normal(m))
    cols = np.sort(gen.choice(N, size=9, replace=False)).astype(np.int64)
    rows = np.arange(m, dtype=np.int64)
    if case == "row_subset":
        rows = np.sort(gen.choice(m, size=m // 2 + 50, replace=False)).astype(np.int64)
    elif case == "zero_weights":
        w[::3] = 0.0
    elif case == "all_columns":
        cols = np.arange(N, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = kernels.gram_gather_numpy(A, w, cols, rows)
    expected = gram_reference(A, w, cols, rows)
    np.testing.assert_allclose(q, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    assert np.array_equal(q, q.T)
    assert np.array_equal(A, A_before)


def test_warmup_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernels.warmup()

PAIRS = [
    ("gaussian", kernels.gaussian_terms_numba, kernels.gaussian_terms_numpy),
    ("logistic", kernels.logistic_terms_numba, kernels.logistic_terms_numpy),
    ("poisson", kernels.poisson_terms_numba, kernels.poisson_terms_numpy),
]


@needs_numba
@pytest.mark.parametrize("kind,fast,ref", PAIRS, ids=[p[0] for p in PAIRS])
def test_terms_backends_agree(kind, fast, ref, gen):
    m = 200
    z = gen.standard_normal(m) * 3.0
    if kind == "poisson":
        z = np.abs(z) + 0.05
        b = np.maximum(1, gen.poisson(3.0, m)).astype(np.float64)
    elif kind == "logistic":
        b = np.where(gen.standard_normal(m) > 0, 1.0, -1.0)
    else:
        b = gen.standard_normal(m)
    loss_f, w1_f, w2_f = fast(z, b)
    loss_r, w1_r, w2_r = ref(z, b)
    assert loss_f == pytest.approx(loss_r, rel=1e-12)
    np.testing.assert_allclose(w1_f, w1_r, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(w2_f, w2_r, rtol=1e-12, atol=1e-300)


@needs_numba
def test_logistic_terms_stable_at_extreme_margins():
    z = np.array([800.0, -800.0, 35.0, -35.0])
    b = np.array([1.0, 1.0, -1.0, -1.0])
    for fn in (kernels.logistic_terms_numba, kernels.logistic_terms_numpy):
        loss, w1, w2 = fn(z, b)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))


@needs_numba
def test_gram_backends_agree(gen):
    A = gen.standard_normal((50, 20))
    w = np.abs(gen.standard_normal(50))
    cols = np.sort(gen.choice(20, size=7, replace=False)).astype(np.int64)
    rows = np.sort(gen.choice(50, size=23, replace=False)).astype(np.int64)
    q_fast = kernels.gram_gather_numba(A, w, cols, rows)
    q_ref = kernels.gram_gather_numpy(A, w, cols, rows)
    np.testing.assert_allclose(q_fast, q_ref, rtol=1e-12, atol=1e-14)


@needs_numba
def test_gram_exactly_symmetric(gen):
    A = gen.standard_normal((30, 10))
    w = np.abs(gen.standard_normal(30))
    cols = np.arange(10, dtype=np.int64)
    rows = np.arange(30, dtype=np.int64)
    for fn in (kernels.gram_gather_numba, kernels.gram_gather_numpy):
        q = fn(A, w, cols, rows)
        assert np.array_equal(q, q.T)


@needs_numba
def test_gram_single_column(gen):
    A = gen.standard_normal((10, 4))
    w = np.ones(10)
    cols = np.array([2], dtype=np.int64)
    rows = np.arange(10, dtype=np.int64)
    expected = np.array([[float(A[:, 2] @ A[:, 2])]])
    for fn in (kernels.gram_gather_numba, kernels.gram_gather_numpy):
        np.testing.assert_allclose(fn(A, w, cols, rows), expected, rtol=1e-12)


@needs_numba
def test_env_flag_selects_backend(tmp_path):
    import os
    import subprocess
    import sys

    code = "from sigma_opt import kernels; print(kernels.using_numba())"
    for flag, expect in (("0", "False"), ("1", "True"), ("", "True")):
        env = dict(os.environ, SIGMA_OPT_NUMBA=flag)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert out.stdout.strip() == expect, out.stderr

"""The numpy kernels against explicit reference sums."""

import warnings

import numpy as np
import pytest

from sigma_opt import CoarseOperator, Dataset, galerkin_system, kernels, make_objective
from sigma_opt.coarse import SCALE_FLOOR
from sigma_opt.objectives import Point


def gram_reference(A, w, cols, rows):
    """``sum_{i in rows} w_i a_i[cols] a_i[cols]^T``, one row at a time."""
    q = np.zeros((cols.shape[0], cols.shape[0]))
    for i in rows:
        a = A[i, cols]
        q += w[i] * np.outer(a, a)
    return q


@pytest.mark.parametrize(
    "case", ["row_subset", "all_rows", "zero_weights", "all_columns", "single_column"])
def test_gram_numpy_matches_reference(case, gen):
    m, N = 549, 25
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
    elif case == "single_column":
        cols = np.array([2], dtype=np.int64)
    # the same Gram bits from a row-major and a column-major A
    qs = []
    for layout in (np.ascontiguousarray, np.asfortranarray):
        X = layout(A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram, product, (B, s) = kernels.gram_gather(X, (w, None), cols, rows)
        assert product is None
        assert np.array_equal(s, np.sqrt(w[rows]))
        assert np.array_equal(B, A[np.ix_(rows, cols)] * s[:, None])
        qs.append(gram)
        assert np.array_equal(X, A_before)
    q = qs[0]
    assert np.array_equal(qs[1], q)
    expected = gram_reference(A, w, cols, rows)
    np.testing.assert_allclose(q, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    assert np.array_equal(q, q.T)


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_gram_pair_product_runs_over_every_row(layout, gen):
    # the curvature samples rows; the restricted gradient's product does not
    m, N = 120, 30
    A = layout(gen.standard_normal((m, N)))
    w, v = np.abs(gen.standard_normal(m)), gen.standard_normal(m)
    cols = np.sort(gen.choice(N, size=7, replace=False)).astype(np.int64)
    rows = np.sort(gen.choice(m, size=45, replace=False)).astype(np.int64)
    gram, product, _ = kernels.gram_gather(A, (w, v), cols, rows)
    assert np.array_equal(product, A[:, cols].T @ v)
    # the product does not touch the Gram's bits
    assert np.array_equal(gram, kernels.gram_gather(A, (w, None), cols, rows)[0])


def _glm_rows(kind, gen, m, N):
    """A, w1 and w2 at the margins of a random x, positive for Poisson."""
    if kind == "poisson":
        A = gen.uniform(0.1, 1.1, (m, N))
        z = A @ gen.uniform(0.5, 1.5, N)
        b = gen.poisson(z).astype(float) + 1.0
    else:
        A = gen.standard_normal((m, N))
        z = A @ gen.standard_normal(N)
        b = gen.standard_normal(m) if kind == "gaussian" else np.sign(gen.standard_normal(m))
    _, w1, w2 = kernels.glm_terms(kind, z, b)
    return A, w1, w2


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
@pytest.mark.parametrize("kind", ["gaussian", "logistic", "poisson"])
def test_scaled_block_gives_the_step_margins(kind, layout, gen):
    # (B d) / s from the block the syrk read, in place of a second gather A[:, cols] d
    m, N, n = 300, 40, 12
    A, w1, w2 = _glm_rows(kind, gen, m, N)
    A = layout(A)
    cols = np.sort(gen.choice(N, size=n, replace=False)).astype(np.int64)
    rows = np.arange(m, dtype=np.int64)
    gram, product, (B, s) = kernels.gram_gather(A, (w2, w1), cols, rows)
    # the syrk left B intact: it gives the Gram's bits again
    assert np.array_equal(gram, B.T @ B)
    assert np.array_equal(product, A[:, cols].T @ w1)
    for _ in range(5):
        d = gen.standard_normal(n)
        dz = B @ d
        dz /= s
        expected = A[:, cols] @ d
        assert np.all(np.abs(dz - expected) <= 1e-14 * (np.abs(A[:, cols]) @ np.abs(d)))
        assert np.max(np.abs(dz - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("case", ["row_subset", "zero_weight", "below_floor"])
def test_no_scaled_block_without_every_row_at_a_normal_scale(case, gen):
    # the kernel hands back the block over the kept rows; galerkin_system
    # keeps it for the step's A d only when every row is kept at a normal scale
    m, N = 50, 10
    A, w = gen.standard_normal((m, N)), np.abs(gen.standard_normal(m))
    cols, rows = np.array([1, 4, 7], dtype=np.int64), np.arange(m, dtype=np.int64)
    if case == "row_subset":
        rows = rows[::2]
    else:
        w[17] = 0.0 if case == "zero_weight" else (0.5 * SCALE_FLOOR) ** 2
    v = gen.standard_normal(m)
    gram, product, (B, s) = kernels.gram_gather(A, (w, v), cols, rows)
    assert np.array_equal(gram, B.T @ B)
    assert np.array_equal(s, np.sqrt(w[rows]))
    assert np.array_equal(B, A[np.ix_(rows, cols)] * s[:, None])
    model = make_objective("gaussian", Dataset(A, gen.standard_normal(m)))
    x = np.zeros(N)
    point = Point(model, x, np.zeros(m), 0.0, v, w)
    system = galerkin_system(model, x, CoarseOperator(cols, N), rows, point=point)
    assert system.block is None and system.s is None
    assert np.array_equal(system.q, model.reduced_hessian(x, cols, rows, w2=w))


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_short_block_skips_the_gram(layout, gen):
    # fewer kept rows than columns: B^T B is rank deficient, and the caller
    # solves from B or forms B^T B itself, as reduced_hessian does
    m, N = 30, 60
    A = layout(gen.standard_normal((m, N)))
    w, v = np.abs(gen.standard_normal(m)), gen.standard_normal(m)
    cols = np.sort(gen.choice(N, size=40, replace=False)).astype(np.int64)
    model = make_objective("gaussian", Dataset(A, gen.standard_normal(m)))
    x = np.zeros(N)
    for rows in (np.arange(m, dtype=np.int64), np.arange(0, m, 2, dtype=np.int64)):
        gram, product, (B, s) = kernels.gram_gather(A, (w, v), cols, rows)
        assert gram is None
        assert np.array_equal(product, A[:, cols].T @ v)
        expected = gram_reference(A, w, cols, rows)
        np.testing.assert_allclose(B.T @ B, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())
        hessian = model.reduced_hessian(x, cols, rows, w2=w)
        assert np.array_equal(hessian, model._row_coeff(rows.shape[0]) * (B.T @ B))


def test_logistic_terms_stable_at_extreme_margins():
    z = np.array([800.0, -800.0, 35.0, -35.0])
    b = np.array([1.0, 1.0, -1.0, -1.0])
    loss, w1, w2 = kernels.glm_terms("logistic", z, b)
    assert np.isfinite(loss)
    assert np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))

import logging

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_haar_frame

from sigma_opt import (
    RngState,
    omega,
    omega_star,
    sample_without_replacement,
    spd_solve,
)
from sigma_opt import core
from sigma_opt.core import haar_frame, top_eigenpairs
from sigma_opt.errors import DomainError, InvalidDimensions, NotPositiveDefinite


class TestSpdSolve:
    def test_identity(self):
        assert np.allclose(spd_solve(np.eye(2), np.array([3.0, 4.0])), [3.0, 4.0])

    def test_diagonal(self):
        x = spd_solve(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_row_sums(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(spd_solve(A, np.array([3.0, 3.0])), [1.0, 1.0], atol=1e-12)

    def test_residual_bound(self, gen):
        for _ in range(20):
            n = int(gen.integers(2, 12))
            M = gen.standard_normal((n, n))
            A = M.T @ M + np.eye(n)
            rhs = gen.standard_normal(n)
            x = spd_solve(A, rhs)
            assert np.linalg.norm(A @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_shift_retry_recovers_semidefinite(self, caplog):
        # rank-deficient PSD: plain Cholesky fails, the shifted retry succeeds
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        with caplog.at_level(logging.WARNING, logger="sigma_opt.core"):
            x = spd_solve(A, np.array([2.0, 2.0]))
        assert np.allclose(A @ x, [2.0, 2.0], atol=1e-4)
        # the fallback is logged with its shift, 1e-10 * (1 + max diag)
        [record] = [r for r in caplog.records if r.name == "sigma_opt.core"]
        assert record.levelno == logging.WARNING
        assert "2.000e-10" in record.getMessage()

    def test_no_warning_without_retry(self, caplog):
        with caplog.at_level(logging.WARNING, logger="sigma_opt.core"):
            spd_solve(np.eye(3), np.ones(3))
        assert not caplog.records

    @pytest.mark.parametrize("layout", ["C", "F", "rhs-2d"])
    def test_same_bits_as_scipy_cholesky(self, layout, gen):
        n = 60
        M = gen.standard_normal((3 * n, n))
        A = np.array(M.T @ M, order="F" if layout == "F" else "C")
        rhs = gen.standard_normal((n, 7) if layout == "rhs-2d" else n)
        expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A, lower=True), rhs)
        assert np.array_equal(spd_solve(A, rhs), expected)

    @pytest.mark.parametrize("semidefinite", [False, True])
    def test_inputs_unmodified(self, semidefinite, gen):
        M = gen.standard_normal((4 if semidefinite else 20, 8))
        A = M.T @ M  # rank 4 < 8 takes the shifted retry
        rhs = gen.standard_normal(8)
        A_before, rhs_before = A.copy(), rhs.copy()
        spd_solve(A, rhs)
        assert np.array_equal(A, A_before) and np.array_equal(rhs, rhs_before)

    @pytest.mark.parametrize("rank", [60, 20])  # 20 < 60 takes the shifted retry
    def test_in_place_factor_same_bits_as_intact_copy(self, rank, gen, caplog):
        # the Galerkin matrix is exactly symmetric: its transpose is the same
        # matrix in column-major order, which dpotrf factors without a copy
        M = gen.standard_normal((rank, 60))
        A = M.T @ M
        rhs = gen.standard_normal(60)
        with caplog.at_level(logging.WARNING, logger="sigma_opt.core"):
            expected = spd_solve(A.copy(), rhs)
            work = A.copy()
            x = spd_solve(work.T, rhs, overwrite_a=True)
        assert np.array_equal(x, expected)
        assert len(caplog.records) == (2 if rank < 60 else 0)
        if rank == 60:  # the lower triangle of work.T holds the factor
            L = np.tril(work.T)
            np.testing.assert_allclose(L @ L.T, A, rtol=1e-12, atol=1e-12 * np.abs(A).max())
        # dpotrf writes only the lower triangle
        assert np.array_equal(np.triu(work.T, 1), np.triu(A, 1))

    def test_in_place_shift_retry_factors_the_original_matrix(self, gen, monkeypatch):
        from sigma_opt import core

        M = gen.standard_normal((4, 8))
        A = M.T @ M  # rank 4 < 8: the first factorization fails part way
        factored = []

        def spy(a, *args, _orig=core._potrf, **kwargs):
            factored.append(np.array(a))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(core, "_potrf", spy)
        work = A.copy()
        spd_solve(work.T, gen.standard_normal(8), overwrite_a=True)
        assert not np.array_equal(work, A)  # the failed attempt wrote its lower triangle
        shift = 1e-10 * (1.0 + float(np.max(np.diagonal(A))))
        assert len(factored) == 2
        assert np.array_equal(factored[0], A)
        assert np.array_equal(factored[1], A + shift * np.eye(8))

    @pytest.mark.parametrize("where", ["lower", "upper", "rhs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, where, bad):
        # the upper triangle is never read by the factorization, and is still checked
        A, rhs = np.eye(3), np.ones(3)
        if where == "rhs":
            rhs[1] = bad
        else:
            A[(2, 0) if where == "lower" else (0, 2)] = bad
        with pytest.raises(ValueError):
            spd_solve(A, rhs)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_solve(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidDimensions):
            spd_solve(np.eye(3), np.ones(2))


class TestOmega:
    def test_zero(self):
        assert omega(0.0) == 0.0
        assert omega_star(0.0) == 0.0

    def test_values(self):
        assert omega(1.0) == pytest.approx(1.0 - np.log(2.0), abs=1e-12)
        assert omega_star(0.5) == pytest.approx(-0.5 - np.log(0.5), abs=1e-12)

    def test_domains(self):
        with pytest.raises(DomainError):
            omega(-1e-9)
        with pytest.raises(DomainError):
            omega_star(1.0)
        with pytest.raises(DomainError):
            omega_star(-0.1)

    @given(st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=200, deadline=None)
    def test_order_and_positivity(self, x):
        w, ws = omega(x), omega_star(x)
        assert w >= 0.0 and ws >= 0.0
        assert w <= ws + 1e-15
        if x == 0.0:
            assert w == 0.0 and ws == 0.0
        elif x > 1e-7:  # below this, x^2/2 underflows the subtraction
            assert w > 0.0 and ws > 0.0

    def test_square_bound_up_to_068(self):
        xs = np.linspace(0.0, 0.68, 500)
        assert np.all(omega_star(xs) <= xs**2 + 1e-15)

    def test_convex_increasing(self):
        xs = np.linspace(0.0, 0.95, 400)
        for fn in (omega, omega_star):
            ys = fn(xs)
            d1 = np.diff(ys)
            assert np.all(d1 >= -1e-15)  # increasing
            assert np.all(np.diff(d1) >= -1e-12)  # convex


class TestSampling:
    def test_full_sample_forced(self):
        assert sample_without_replacement(5, 5, RngState(0)).tolist() == [0, 1, 2, 3, 4]

    def test_singleton(self):
        assert sample_without_replacement(1, 1, RngState(3)).tolist() == [0]

    def test_golden_seed(self):
        # fixed-seed draw recorded once; guards the RNG plumbing
        assert sample_without_replacement(4, 2, RngState(42)).tolist() == [1, 3]

    def test_invalid(self):
        with pytest.raises(InvalidDimensions):
            sample_without_replacement(4, 5, RngState(0))
        with pytest.raises(InvalidDimensions):
            sample_without_replacement(4, 0, RngState(0))

    def test_strictly_increasing_and_bounded(self):
        rng = RngState(7)
        for _ in range(50):
            idx = sample_without_replacement(20, 6, rng)
            assert np.all(np.diff(idx) > 0)
            assert idx[0] >= 0 and idx[-1] < 20

    def test_marginal_inclusion_frequency(self):
        rng = RngState(2024)
        counts = np.zeros(10)
        trials = 10_000
        for _ in range(trials):
            counts[sample_without_replacement(10, 3, rng)] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.3) <= 0.02)

    def test_advances_stream(self):
        rng = RngState(5)
        a = sample_without_replacement(100, 10, rng)
        b = sample_without_replacement(100, 10, rng)
        assert rng.stream == 2
        assert not np.array_equal(a, b)

    def test_one_generator_per_state(self):
        # the first draw is child() at stream 0; later draws continue that
        # generator, so child() builds exactly one of them
        rng = RngState(5)
        first = sample_without_replacement(100, 10, rng)
        assert np.array_equal(first, np.sort(RngState(5).child().choice(100, 10, replace=False)))
        gen = RngState(5).child()
        gen.choice(100, 10, replace=False)
        for _ in range(3):
            expected = np.sort(gen.choice(100, 10, replace=False))
            assert np.array_equal(sample_without_replacement(100, 10, rng), expected)
        assert rng.stream == 4

    def test_child_after_draws_is_its_stream(self):
        # child() stays the independent sub-stream (seed, stream)
        rng = RngState(9)
        sample_without_replacement(10, 3, rng)
        sample_without_replacement(10, 3, rng)
        expected = np.random.default_rng(
            np.random.SeedSequence(entropy=9, spawn_key=(2,))).standard_normal(3)
        assert np.array_equal(rng.child().standard_normal(3), expected)
        assert rng.stream == 3


class TestHaar:
    # square frames: the Haar-orthogonal matrices the data generator draws
    def test_dim_one(self):
        q = haar_frame(1, 1, RngState(0).child())
        assert q.shape == (1, 1)
        assert abs(abs(q[0, 0]) - 1.0) < 1e-12

    def test_orthogonality(self):
        q = haar_frame(3, 3, RngState(11).child())
        assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-10

    def test_determinism(self):
        a = haar_frame(4, 4, RngState(7).child())
        b = haar_frame(4, 4, RngState(7).child())
        assert np.array_equal(a, b)

    def test_det_is_unit(self):
        for seed in range(5):
            q = haar_frame(6, 6, RngState(seed).child())
            assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-8

    def test_invalid_dim(self):
        with pytest.raises(InvalidDimensions):
            haar_frame(0, 0, RngState(0).child())

    # (1200, 150) is drawn in two row blocks
    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (60, 60), (300, 120), (1200, 150)])
    def test_bits_match_numpy_qr(self, shape):
        q = haar_frame(*shape, RngState(13).child())
        assert q.shape == shape
        assert q.flags.f_contiguous
        assert np.array_equal(q, reference_haar_frame(*shape, RngState(13).child()))


def assert_top_eigenpairs(H, k, vals, vecs, rtol=1e-13):
    # against numpy's full eigh: the k largest eigenvalues, ascending, and
    # orthonormal vectors with a small residual
    N = H.shape[0]
    expected = np.linalg.eigh(H).eigenvalues[N - k:]
    assert vals.shape == (k,) and vecs.shape == (N, k)
    assert np.max(np.abs(vals - expected) / np.abs(expected)) <= rtol
    scale = np.linalg.norm(H, 2)
    assert np.linalg.norm(H @ vecs - vecs * vals) <= rtol * scale
    assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) <= rtol


def no_fallback(*args, **kwargs):
    raise AssertionError("top_eigenpairs fell back to scipy's eigh")


class TestTopEigenpairs:
    @pytest.mark.parametrize("N", [1, 2, 50, 300])
    @pytest.mark.parametrize("k_of", [lambda N: 1, lambda N: max(1, N // 10), lambda N: N],
                             ids=["1", "N/10", "N"])
    def test_random_spd_against_eigh(self, gen, monkeypatch, N, k_of):
        k = k_of(N)
        M = gen.standard_normal((N, N))
        H = M @ M.T + np.eye(N)
        if N > 1:  # a 1 x 1 tridiagonal counts as split
            monkeypatch.setattr(core, "_eigh", no_fallback)
        vals, vecs = top_eigenpairs(H.copy(), k)
        assert_top_eigenpairs(H, k, vals, vecs)

    def test_clustered_top_spectrum(self, gen, monkeypatch):
        N, k = 200, 20
        Q = np.linalg.qr(gen.standard_normal((N, N)))[0]
        spectrum = np.linspace(0.1, 1.0, N)
        spectrum[-10:] = 5.0 + 1e-12 * np.arange(10)  # ten eigenvalues within 1e-11
        H = (Q * spectrum) @ Q.T
        H = np.triu(H) + np.triu(H, 1).T  # exactly symmetric
        monkeypatch.setattr(core, "_eigh", no_fallback)
        vals, vecs = top_eigenpairs(H.copy(), k)
        assert_top_eigenpairs(H, k, vals, vecs)

    def test_split_tridiagonal_falls_back(self, caplog):
        # a diagonal matrix is its own tridiagonal, with every off-diagonal 0;
        # column-major, so the reduction overwrites it before the fallback
        H = np.diag([3.0, 1.0, 4.0, 1.5, 9.0, 2.0])
        with caplog.at_level(logging.DEBUG, logger="sigma_opt.core"):
            vals, vecs = top_eigenpairs(np.asfortranarray(H), 3)
        assert "splits" in caplog.text
        assert_top_eigenpairs(H, 3, vals, vecs)
        np.testing.assert_array_equal(vals, [3.0, 4.0, 9.0])
        np.testing.assert_array_equal(np.abs(vecs[[0, 2, 4]]), np.eye(3))

    def test_dstein_failure_falls_back(self, gen, monkeypatch, caplog):
        M = gen.standard_normal((30, 30))
        H = M @ M.T + np.eye(30)
        monkeypatch.setattr(core, "_stein", lambda d, e, w, *args: (None, 2))
        with caplog.at_level(logging.DEBUG, logger="sigma_opt.core"):
            vals, vecs = top_eigenpairs(H.T.copy(order="F"), 4)
        assert "returned info 2" in caplog.text
        assert_top_eigenpairs(H, 4, vals, vecs)

    def test_column_major_input_is_reduced_in_place(self, gen):
        M = gen.standard_normal((20, 20))
        H = M @ M.T
        C, F = H.copy(), np.asfortranarray(H)
        top_eigenpairs(C, 2)
        np.testing.assert_array_equal(C, H)  # a row-major matrix is copied first
        top_eigenpairs(F, 2)
        assert not np.array_equal(F, H)

    def test_invalid(self):
        with pytest.raises(InvalidDimensions):
            top_eigenpairs(np.ones((2, 3)), 1)
        for k in (0, 3):
            with pytest.raises(InvalidDimensions):
                top_eigenpairs(np.eye(2), k)
        with pytest.raises(ValueError):
            top_eigenpairs(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1)


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=30, deadline=None)
def test_rng_child_determinism(seed):
    a = RngState(seed).child().standard_normal(4)
    b = RngState(seed).child().standard_normal(4)
    assert np.array_equal(a, b)

import numpy as np
import pytest

from helpers import (
    fd_gradient,
    fd_hessian,
    random_gaussian_model,
    random_logistic_model,
    random_poisson_model,
)
from sigma_opt import Dataset, Regularization, feasible_start, make_objective, poisson_scale
from sigma_opt.errors import DomainError, InvalidDimensions, NoFeasibleStart, OutOfDomain
from sigma_opt.objectives import Ray

REGS = [
    Regularization(),
    Regularization(xi2=1e-3),
    Regularization(xi2=1e-3, xi1=1e-3),
]


class TestDatasetLayout:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_contiguous_kept_without_copy(self, order, gen):
        A = np.asarray(gen.standard_normal((6, 4)), order=order)
        assert np.shares_memory(Dataset(A, np.zeros(6)).A, A)

    def test_strided_view_made_column_major(self, gen):
        A = gen.standard_normal((6, 8))[:, ::2]
        ds = Dataset(A, np.zeros(6))
        assert ds.A.flags.f_contiguous
        assert np.array_equal(ds.A, A)


class TestPoissonScale:
    def test_single_unit_count(self):
        assert poisson_scale(np.array([1.0]), 1) == pytest.approx(1.0)

    def test_two_counts(self):
        # M = 2 sqrt(2) * max(1, 1/2) -> scale M^2/4 = 2
        assert poisson_scale(np.array([1.0, 4.0]), 2) == pytest.approx(2.0)

    def test_four_unit_counts(self):
        assert poisson_scale(np.ones(4), 4) == pytest.approx(4.0)

    def test_rejects_fractional_or_small(self):
        with pytest.raises(DomainError):
            poisson_scale(np.array([0.0, 1.0]), 2)
        with pytest.raises(DomainError):
            poisson_scale(np.array([1.5]), 1)


class TestEvaluate:
    def test_logistic_at_zero_is_log2(self, gen):
        model = random_logistic_model(gen, m=10, N=4)
        assert model.evaluate(np.zeros(4)) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_logistic_at_zero_with_reg(self, gen):
        model = random_logistic_model(gen, m=10, N=4, reg=Regularization(xi2=0.5, xi1=0.5))
        # x = 0 makes both regularizers vanish
        assert model.evaluate(np.zeros(4)) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gaussian_identity_rows(self):
        model = make_objective("gaussian", Dataset(np.eye(2), np.zeros(2)))
        assert model.evaluate(np.array([1.0, 2.0])) == pytest.approx(1.25)

    def test_poisson_single_row(self):
        model = make_objective("poisson", Dataset(np.array([[1.0]]), np.array([1.0])))
        assert model.scale == pytest.approx(1.0)
        assert model.evaluate(np.array([2.0])) == pytest.approx(2.0 - np.log(2.0))

    def test_poisson_out_of_domain(self):
        model = make_objective("poisson", Dataset(np.array([[1.0]]), np.array([1.0])))
        with pytest.raises(OutOfDomain):
            model.evaluate(np.array([-0.5]))
        with pytest.raises(OutOfDomain):
            model.point(np.array([-0.5]))
        assert model.predict(np.array([-0.5])).min() == pytest.approx(-0.5)

    @pytest.mark.parametrize("make", [random_gaussian_model, random_logistic_model])
    def test_non_poisson_has_no_domain(self, make, gen):
        # A predictor far below zero, out of Poisson's domain, is an ordinary point here.
        model = make(gen)
        x = -1e3 * np.ones(model.dataset.N)
        assert model.predict(x).min() < 0
        assert np.isfinite(model.point(x).f)


class TestGradient:
    def test_gaussian_identity_rows(self):
        model = make_objective("gaussian", Dataset(np.eye(2), np.zeros(2)))
        assert np.allclose(model.gradient(np.array([1.0, 2.0])), [0.5, 1.0])

    def test_logistic_zero_all_positive_labels(self, gen):
        A = gen.standard_normal((8, 5))
        model = make_objective("logistic", Dataset(A, np.ones(8)))
        expected = -A.mean(axis=0) / 2.0
        assert np.allclose(model.gradient(np.zeros(5)), expected, atol=1e-12)


class TestHessian:
    def test_gaussian_identity_rows_constant(self, gen):
        model = make_objective("gaussian", Dataset(np.eye(2), np.zeros(2)))
        for _ in range(3):
            x = gen.standard_normal(2)
            assert np.allclose(model.hessian(x), 0.5 * np.eye(2), atol=1e-14)

    def test_logistic_at_zero(self, gen):
        A = gen.standard_normal((12, 5))
        b = np.where(gen.standard_normal(12) > 0, 1.0, -1.0)
        model = make_objective("logistic", Dataset(A, b))
        expected = (A.T * (b**2)) @ A / (4.0 * 12)
        assert np.allclose(model.hessian(np.zeros(5)), expected, atol=1e-12)

    def test_exact_symmetry(self, gen):
        model = random_logistic_model(gen)
        H = model.hessian(gen.standard_normal(16))
        assert np.array_equal(H, H.T)


@pytest.mark.parametrize("reg", REGS, ids=["none", "l2", "l2+huber"])
@pytest.mark.parametrize("kind", ["gaussian", "logistic", "poisson"])
def test_derivatives_match_finite_differences(kind, reg, gen):
    if kind == "poisson":
        model = random_poisson_model(gen, m=30, N=6, reg=reg)
        x = feasible_start(model) + 0.05 * gen.standard_normal(6)
    else:
        builder = random_gaussian_model if kind == "gaussian" else random_logistic_model
        model = builder(gen, m=25, N=6, reg=reg)
        x = gen.standard_normal(6)
    g = model.gradient(x)
    g_fd = fd_gradient(model.evaluate, x)
    assert np.max(np.abs(g - g_fd)) <= 1e-5 * max(1.0, np.max(np.abs(g)))
    H = model.hessian(x)
    H_fd = fd_hessian(model.gradient, x)
    assert np.max(np.abs(H - H_fd)) <= 1e-4 * max(1.0, np.max(np.abs(H)))


class TestReducedPaths:
    def test_full_set_equals_dense(self, gen):
        model = random_logistic_model(gen, m=12, N=7, reg=Regularization(xi2=1e-3, xi1=1e-3))
        x = gen.standard_normal(7)
        full = np.arange(7, dtype=np.int64)
        assert np.allclose(model.reduced_hessian(x, full), model.hessian(x), atol=1e-12)
        assert np.array_equal(model.reduced_gradient(x, full), model.gradient(x))

    def test_sub_block_equals_slice(self, gen):
        model = random_logistic_model(gen, m=3, N=4)
        x = gen.standard_normal(4)
        S = np.array([0, 2], dtype=np.int64)
        assert np.allclose(
            model.reduced_hessian(x, S), model.hessian(x)[np.ix_(S, S)], atol=1e-12
        )

    def test_reduced_gradient_single_coordinate(self, gen):
        model = random_gaussian_model(gen, m=10, N=5)
        x = gen.standard_normal(5)
        for j in range(5):
            S = np.array([j], dtype=np.int64)
            assert model.reduced_gradient(x, S)[0] == model.gradient(x)[j]

    def test_reduced_gradient_matches_worked_example(self):
        model = make_objective("gaussian", Dataset(np.eye(2), np.zeros(2)))
        out = model.reduced_gradient(np.array([1.0, 2.0]), np.array([1], dtype=np.int64))
        assert np.allclose(out, [1.0])

    def test_row_sample_all_rows_identical(self, gen):
        for builder in (random_gaussian_model, random_logistic_model):
            model = builder(gen, m=9, N=5)
            x = gen.standard_normal(5)
            S = np.array([0, 3, 4], dtype=np.int64)
            rows = np.arange(9, dtype=np.int64)
            assert np.array_equal(
                model.reduced_hessian(x, S, rows), model.reduced_hessian(x, S)
            )

    def test_poisson_row_sample_all_rows_identical(self, gen):
        model = random_poisson_model(gen, m=12, N=5)
        x = feasible_start(model)
        S = np.array([1, 2], dtype=np.int64)
        rows = np.arange(12, dtype=np.int64)
        assert np.array_equal(model.reduced_hessian(x, S, rows), model.reduced_hessian(x, S))

    def test_bad_index_sets(self, gen):
        model = random_gaussian_model(gen, m=6, N=5)
        x = np.zeros(5)
        with pytest.raises(InvalidDimensions):
            model.reduced_hessian(x, np.array([3, 1], dtype=np.int64))
        with pytest.raises(InvalidDimensions):
            model.reduced_hessian(x, np.array([0, 5], dtype=np.int64))
        with pytest.raises(InvalidDimensions):
            model.reduced_hessian(x, np.array([0], dtype=np.int64), np.array([7], dtype=np.int64))


class TestPositiveDefiniteness:
    def test_hessians_psd_at_feasible_points(self, gen):
        for builder in (random_gaussian_model, random_logistic_model):
            model = builder(gen, m=30, N=8)
            for _ in range(5):
                vals = np.linalg.eigvalsh(model.hessian(gen.standard_normal(8)))
                assert vals.min() >= -1e-10

    def test_l2_makes_hessian_pd(self, gen):
        model = random_logistic_model(gen, m=6, N=10, reg=Regularization(xi2=1e-2))
        vals = np.linalg.eigvalsh(model.hessian(gen.standard_normal(10)))
        assert vals.min() >= 2e-2 - 1e-12  # 2 * xi2


class TestFeasibleStart:
    def test_logistic_zero(self, gen):
        model = random_logistic_model(gen)
        assert np.array_equal(feasible_start(model), np.zeros(16))

    def test_positive_matrix_margin_at_least_one(self, gen):
        model = random_poisson_model(gen, m=20, N=6)
        x0 = feasible_start(model)
        assert model.predict(x0).min() >= 1.0 - 1e-12

    def test_zero_row_fails(self):
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        model = make_objective("poisson", Dataset(A, np.array([1.0, 1.0])))
        with pytest.raises(NoFeasibleStart):
            feasible_start(model)

    def test_mixed_sign_row_sums_search(self):
        # the all-ones direction fails; least squares against all ones gives
        # (1, 10), rescaled to margins (5, 5)
        A = np.array([[1.0, 0.0], [-1.0, 0.2]])
        model = make_objective("poisson", Dataset(A, np.array([1.0, 1.0])))
        assert feasible_start(model).tolist() == [5.0, 50.0]

    def test_empty_domain_fails(self):
        # the matrix above stacked over its negation
        A = np.array([[1.0, 0.0], [-1.0, 0.2], [-1.0, 0.0], [1.0, -0.2]])
        model = make_objective("poisson", Dataset(A, np.ones(4)))
        with pytest.raises(NoFeasibleStart, match="empty"):
            feasible_start(model)

    def test_all_negative_row_sums(self):
        A = np.array([[-1.0, -0.5], [-0.2, -1.0]])
        model = make_objective("poisson", Dataset(A, np.array([1.0, 1.0])))
        x0 = feasible_start(model)
        assert model.predict(x0).min() >= 1.0 - 1e-12


class TestLabelNormalization:
    def test_zero_one_labels_mapped(self, gen):
        A = gen.standard_normal((6, 3))
        model = make_objective("logistic", Dataset(A, np.array([0.0, 1, 0, 1, 1, 0])))
        assert set(model.dataset.b.tolist()) == {-1.0, 1.0}

    def test_pm_one_kept(self, gen):
        A = gen.standard_normal((4, 3))
        b = np.array([-1.0, 1.0, 1.0, -1.0])
        model = make_objective("logistic", Dataset(A, b))
        assert np.array_equal(model.dataset.b, b)

    def test_other_labels_rejected(self, gen):
        A = gen.standard_normal((3, 2))
        with pytest.raises(DomainError):
            make_objective("logistic", Dataset(A, np.array([0.0, 1.0, 2.0])))


def test_poisson_scaled_self_concordance_along_lines(gen):
    """FD third derivatives on a coarse grid: |phi'''| <= 2 phi''^(3/2)."""
    model = random_poisson_model(gen, m=25, N=6, seed=5)
    x0 = feasible_start(model)
    h = 1e-2
    for trial in range(5):
        u = gen.standard_normal(6)
        u /= np.linalg.norm(u)

        def phi(t):
            return model.evaluate(x0 + t * u)

        for t in np.linspace(-0.05, 0.05, 5):
            d2 = (phi(t + h) - 2 * phi(t) + phi(t - h)) / h**2
            d3 = (phi(t + 2 * h) - 2 * phi(t + h) + 2 * phi(t - h) - phi(t - 2 * h)) / (
                2 * h**3
            )
            assert d2 > 0
            assert abs(d3) <= 2.0 * d2**1.5 * (1.0 + 1e-6)


def test_ray_delta_matches_naive_difference(gen):
    for builder in (random_gaussian_model, random_logistic_model):
        model = builder(gen, m=15, N=6, reg=Regularization(xi2=1e-3, xi1=1e-3))
        x = gen.standard_normal(6)
        d = gen.standard_normal(6)
        ray = Ray(model.point(x), d)
        for t in (0.0, 0.1, 0.5, 1.0):
            naive = model.evaluate(x + t * d) - model.evaluate(x)
            assert ray.delta(t) == pytest.approx(naive, abs=1e-10)
    model = random_poisson_model(gen, m=15, N=5)
    x = feasible_start(model)
    d = 0.1 * gen.standard_normal(5)
    ray = Ray(model.point(x), d)
    for t in (0.0, 0.2, 1.0):
        naive = model.evaluate(x + t * d) - model.evaluate(x)
        assert ray.delta(t) == pytest.approx(naive, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("builder", [random_gaussian_model, random_logistic_model,
                                     random_poisson_model])
def test_point_matches_separate_oracles(builder, gen):
    model = builder(gen, reg=Regularization(xi2=1e-3, xi1=1e-3))
    x = feasible_start(model)
    if model.kind != "poisson":
        x = x + gen.standard_normal(model.dataset.N)
    p = model.point(x)
    assert np.array_equal(p.z, model.predict(x))
    assert p.f == model.evaluate(x)
    assert np.array_equal(p.g, model.gradient(x))
    assert np.array_equal(model.hessian(x, w2=p.w2), model.hessian(x))
    assert np.all(p.w2 >= 0)


@pytest.mark.parametrize("kind", ["gaussian", "logistic", "poisson"])
@pytest.mark.parametrize("margin", [1.0, 40.0, 1e3])
def test_ray_delta_matches_difference_at_large_margins(kind, margin):
    # margins |a_i^T x| up to `margin`, and directions that move them by up to
    # twice that, so logistic sigmoids saturate at 0 and 1 on both ends
    gen = np.random.default_rng(int(margin) + len(kind))
    m, N = 30, 4
    if kind == "poisson":
        A = gen.uniform(0.1, 1.1, size=(m, N))
        b = np.maximum(1.0, gen.poisson(3.0, m)).astype(np.float64)
    else:
        A = gen.standard_normal((m, N))
        b = gen.standard_normal(m) if kind == "gaussian" else np.where(gen.random(m) > 0.5, 1.0, -1.0)
    model = make_objective(kind, Dataset(A, b), Regularization(xi2=1e-3))
    compared = 0
    for _ in range(20):
        x = gen.standard_normal(N)
        if kind == "poisson":
            x = np.abs(x) + 0.1
        x *= margin / np.abs(A @ x).max()
        d = gen.standard_normal(N)
        d *= 2.0 * margin / np.abs(A @ d).max()
        ray = Ray(model.point(x), d)
        f0 = model.evaluate(x)
        for t in (1e-9, 1e-4, 0.1, 0.5, 1.0):
            if kind == "poisson" and (A @ (x + t * d)).min() < 1e-6 * margin:
                continue  # outside or at the wall, where log z has no stable digits
            f1 = model.evaluate(x + t * d)
            delta = ray.delta(t)
            assert np.isfinite(delta)
            assert delta == pytest.approx(f1 - f0, rel=1e-9, abs=1e-12 * max(1.0, abs(f0), abs(f1)))
            compared += 1
    assert compared >= 40

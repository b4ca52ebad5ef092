import numpy as np
import pytest

from helpers import random_gaussian_model, random_logistic_model, random_poisson_model
from sigma_opt import (
    BaselineConfig,
    Dataset,
    ObjectiveModel,
    Regularization,
    RngState,
    SigmaConfig,
    baseline_solve,
    feasible_start,
    make_objective,
    newsamp_hessian,
    newton_direction,
    sample_without_replacement,
    sigma_solve,
    spd_solve,
)
from sigma_opt import core
from sigma_opt.baselines import _newsamp_step
from sigma_opt.errors import InvalidDimensions, NotPositiveDefinite


def diag_hessian_model(diag):
    # Gaussian model whose Hessian is diag(diag) at every x
    m = len(diag)
    A = np.diag(np.sqrt(np.asarray(diag) * m))
    return make_objective("gaussian", Dataset(A, np.zeros(m)))


class TestConfigValidation:
    def test_defaults(self):
        BaselineConfig(method="gd")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "nope"},
            {"sgd_t": 0.0},
            {"sgd_gamma": -1.0},
            {"batch": 0},
            {"rows": 0},
            {"rank": -1},
            {"alpha": 0.5},
            {"beta": 0.0},
            {"epsilon": 1.0},
            {"zeta": 1.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            BaselineConfig(**{"method": "gd", **kwargs})


class TestNewton:
    def test_one_iteration_on_quadratic(self, gen):
        model = random_gaussian_model(gen, m=20, N=6)
        cfg = BaselineConfig(method="newton", epsilon=1e-12, seed=0)
        res = baseline_solve(model, gen.standard_normal(6), cfg)
        assert res.status == "converged"
        assert res.iterations == 1

    def test_decrement_after_first_step(self, gen):
        model = random_gaussian_model(gen, m=25, N=8)
        cfg = BaselineConfig(method="newton", epsilon=1e-16, max_iter=1, seed=0)
        res = baseline_solve(model, gen.standard_normal(8), cfg)
        # after one Newton step on a quadratic the decrement is numerically zero
        assert res.final_decrement_sq <= 1e-16


class TestGD:
    def test_hand_armijo_one_step(self):
        # f(x) = x^2/2 at x = 2: d = -2, t = 1 accepted, lands at the optimum
        model = make_objective("gaussian", Dataset(np.array([[1.0]]), np.array([0.0])))
        cfg = BaselineConfig(method="gd", epsilon=1e-12, seed=0)
        res = baseline_solve(model, np.array([2.0]), cfg)
        assert res.iterations == 1
        assert res.trace[0].step == 1.0 and res.trace[0].backtracks == 0
        assert abs(res.x_final[0]) <= 1e-8

    def test_stops_on_gradient_norm(self, gen):
        model = random_gaussian_model(gen, m=30, N=5)
        cfg = BaselineConfig(method="gd", epsilon=1e-10, max_iter=5000, seed=0)
        res = baseline_solve(model, np.zeros(5), cfg)
        assert res.status == "converged"
        assert res.trace[-1].grad_norm**2 <= 1e-10


class TestSGD:
    def test_step_size_schedule(self, gen):
        model = random_gaussian_model(gen, m=40, N=6)
        t, gamma = 0.3, 0.01
        cfg = BaselineConfig(
            method="sgd", sgd_t=t, sgd_gamma=gamma, batch=4, epsilon=1e-14, max_iter=3, seed=1
        )
        res = baseline_solve(model, np.zeros(6), cfg)
        steps = [r.step for r in res.trace[:-1]]
        expected = [t, t / (1 + gamma), t / (1 + 2 * gamma)]
        assert steps == pytest.approx(expected, rel=1e-12)

    def test_batch_gradient_direction(self, gen):
        model = random_gaussian_model(gen, m=10, N=4)
        cfg = BaselineConfig(method="sgd", batch=10, sgd_t=0.1, epsilon=1e-14, max_iter=1, seed=2)
        res = baseline_solve(model, np.zeros(4), cfg)
        # full batch: lambda_hat column records ||grad||
        assert res.trace[0].lambda_hat == pytest.approx(res.trace[0].grad_norm, rel=1e-10)

    @pytest.mark.parametrize("make", [random_gaussian_model, random_logistic_model,
                                      random_poisson_model])
    def test_glm_terms_once_per_point(self, gen, monkeypatch, make):
        # the batch gradient reads the evaluated point's row weights, so the
        # GLM terms are evaluated once per model.point and nowhere else
        from sigma_opt import kernels
        from sigma_opt.objectives import ObjectiveModel

        calls = {"glm_terms": 0, "point": 0}

        def counted(name, orig):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kernels, "glm_terms", counted("glm_terms", kernels.glm_terms))
        monkeypatch.setattr(ObjectiveModel, "point", counted("point", ObjectiveModel.point))
        model = make(gen)
        x0 = feasible_start(model)
        cfg = BaselineConfig(method="sgd", batch=5, sgd_t=0.01, epsilon=1e-14, max_iter=20, seed=4)
        res = baseline_solve(model, x0, cfg)
        assert res.iterations == 20
        assert calls["glm_terms"] == calls["point"] > 20


class TestSubNewton:
    def test_full_sample_identical_to_newton(self, gen):
        model = random_logistic_model(gen, m=16, N=6, reg=Regularization(xi2=1e-3))
        x0 = gen.standard_normal(6)
        newton = baseline_solve(model, x0, BaselineConfig(method="newton", epsilon=1e-12, seed=3))
        sub = baseline_solve(
            model, x0, BaselineConfig(method="subnewton", rows=16, epsilon=1e-12, seed=3)
        )
        assert newton.iterations == sub.iterations
        np.testing.assert_allclose(newton.x_final, sub.x_final, rtol=0, atol=1e-12)
        for a, b in zip(newton.trace, sub.trace):
            assert a.f == pytest.approx(b.f, abs=1e-12)
            assert a.step == b.step

    def test_converges_with_half_rows(self, gen):
        model = random_logistic_model(gen, m=60, N=6, reg=Regularization(xi2=1e-3))
        cfg = BaselineConfig(method="subnewton", rows=30, epsilon=1e-12, max_iter=200, seed=4)
        res = baseline_solve(model, np.zeros(6), cfg)
        assert res.status == "converged"

    def test_rows_exceeding_m_rejected(self, gen):
        model = random_gaussian_model(gen, m=10, N=4)
        with pytest.raises(InvalidDimensions, match="rows=11 exceeds m=10"):
            baseline_solve(model, np.zeros(4), BaselineConfig(method="subnewton", rows=11))
        # SIGMA's row_sample is fed by the same --rows flag
        with pytest.raises(InvalidDimensions, match="rows=11 exceeds m=10"):
            sigma_solve(model, np.zeros(4), SigmaConfig(n=2, row_sample=11))


def assembled(truncation):
    # the matrix NewSamp's truncation stands for: U diag(vals - floor) U^T + floor I
    floor, vals, vecs = truncation
    return (vecs * (vals - floor)) @ vecs.T + floor * np.eye(vecs.shape[0])


class TestNewsampHessian:
    def test_full_rank_minus_one_reconstructs(self, gen):
        model = random_gaussian_model(gen, m=30, N=6, reg=Regularization(xi2=1e-3))
        x = gen.standard_normal(6)
        rows = np.arange(30, dtype=np.int64)
        H = model.hessian(x)
        H5 = assembled(newsamp_hessian(model, x, rows, rank=5))
        assert np.max(np.abs(H - H5)) <= 1e-8

    def test_diagonal_truncation(self):
        model = diag_hessian_model([4.0, 2.0, 1.0])
        rows = np.arange(3, dtype=np.int64)
        out = assembled(newsamp_hessian(model, np.zeros(3), rows, rank=1))
        assert np.allclose(out, np.diag([4.0, 2.0, 2.0]), atol=1e-12)

    def test_rank_zero_is_spectral_floor_identity(self):
        model = diag_hessian_model([4.0, 2.0, 1.0])
        rows = np.arange(3, dtype=np.int64)
        out = assembled(newsamp_hessian(model, np.zeros(3), rows, rank=0))
        assert np.allclose(out, 4.0 * np.eye(3), atol=1e-12)

    def test_spd_whenever_sample_pd(self, gen):
        model = random_logistic_model(gen, m=40, N=6, reg=Regularization(xi2=1e-3))
        rows = np.arange(0, 40, 2, dtype=np.int64)
        for _ in range(5):
            out = assembled(newsamp_hessian(model, gen.standard_normal(6), rows, rank=2))
            assert np.linalg.eigvalsh(out).min() > 0

    def test_rank_bounds(self, gen):
        model = random_gaussian_model(gen, m=10, N=4)
        rows = np.arange(10, dtype=np.int64)
        with pytest.raises(InvalidDimensions):
            newsamp_hessian(model, np.zeros(4), rows, rank=4)

    def test_zero_floor_raises(self):
        # rank-1 data Hessian: second eigenvalue is 0
        A = np.ones((3, 2))
        model = make_objective("gaussian", Dataset(A, np.zeros(3)))
        rows = np.arange(3, dtype=np.int64)
        with pytest.raises(NotPositiveDefinite):
            newsamp_hessian(model, np.zeros(2), rows, rank=1)


class TestNewsampStep:
    @pytest.mark.parametrize("case", ["tall-logistic", "wide-gaussian", "diagonal"])
    @pytest.mark.parametrize("rank", [0, 1, 3])
    def test_closed_form_matches_the_assembled_solve(self, gen, case, rank):
        if case == "tall-logistic":
            model = random_logistic_model(gen, m=80, N=12, reg=Regularization(xi2=1e-3))
        elif case == "wide-gaussian":
            model = random_gaussian_model(gen, m=8, N=20, reg=Regularization(xi2=1e-2))
        else:
            model = diag_hessian_model([4.0, 2.0, 1.0, 0.5, 3.0])
        m, N = model.dataset.m, model.dataset.N
        x = 0.3 * gen.standard_normal(N)
        rows = np.arange(m, dtype=np.int64)  # the diagonal model's Hessian needs every row
        if case != "diagonal":
            rows = np.sort(gen.choice(m, size=m // 2, replace=False)).astype(np.int64)
        truncation = newsamp_hessian(model, x, rows, rank)
        g = model.gradient(x)
        expected = spd_solve(assembled(truncation), -g)
        d = _newsamp_step(*truncation, g)
        assert np.linalg.norm(d - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_non_finite_gradient_raises(self):
        truncation = newsamp_hessian(diag_hessian_model([4.0, 2.0, 1.0]), np.zeros(3),
                                     np.arange(3, dtype=np.int64), 1)
        with pytest.raises(ValueError):
            _newsamp_step(*truncation, np.array([1.0, np.inf, 0.0]))


class TestNewsampSolve:
    def test_converges(self, gen):
        model = random_logistic_model(gen, m=60, N=10, reg=Regularization(xi2=1e-3))
        cfg = BaselineConfig(
            method="newsamp", rows=30, rank=4, epsilon=1e-10, max_iter=300, seed=5
        )
        res = baseline_solve(model, np.zeros(10), cfg)
        assert res.status == "converged"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rounding_noise_floor_is_an_error(self, seed):
        # 10 sampled rows give the 120 x 120 sampled Hessian rank 10, so its
        # 13th eigenvalue, NewSamp's floor at rank 12, is rounding noise (about
        # 5e-15); dividing the tail by it gave lambda_hat near 1e7 and a run
        # that spent its whole budget
        model = random_gaussian_model(np.random.default_rng(seed), m=20, N=120)
        res = baseline_solve(model, np.zeros(120),
                             BaselineConfig(method="newsamp", max_iter=50, seed=seed))
        assert res.status == "error" and res.iterations == 0
        assert [r.direction for r in res.trace] == ["fine"]
        assert "(rank+1)-th eigenvalue" in res.message

    def test_default_rank_at_one_feature(self, gen):
        # the default rank max(1, N // 10) is capped at N - 1: 0 at N = 1
        model = random_gaussian_model(gen, m=20, N=1)
        res = baseline_solve(model, np.zeros(1),
                             BaselineConfig(method="newsamp", epsilon=1e-12, seed=0))
        assert res.status == "converged"

    def test_factors_no_matrix(self, gen, monkeypatch):
        # the step is applied in closed form: no Cholesky of any matrix
        def forbidden(*args, **kwargs):
            raise AssertionError("a matrix was factored")

        monkeypatch.setattr(core, "spd_factor", forbidden)
        model = random_logistic_model(gen, m=60, N=10, reg=Regularization(xi2=1e-3))
        cfg = BaselineConfig(
            method="newsamp", rows=30, rank=4, epsilon=1e-10, max_iter=300, seed=5
        )
        assert baseline_solve(model, np.zeros(10), cfg).status == "converged"


class TestSharedBehavior:
    @pytest.mark.parametrize("method", ["gd", "newton", "subnewton", "newsamp"])
    def test_armijo_methods_monotone(self, method, gen):
        model = random_logistic_model(gen, m=40, N=8, reg=Regularization(xi2=1e-3))
        cfg = BaselineConfig(method=method, rows=20, rank=3, epsilon=1e-10, max_iter=60, seed=6)
        res = baseline_solve(model, np.zeros(8), cfg)
        fs = [r.f for r in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    @pytest.mark.parametrize("method", ["gd", "sgd", "newton", "subnewton", "newsamp"])
    def test_trace_schema_identical(self, method, gen):
        model = random_gaussian_model(gen, m=20, N=5)
        cfg = BaselineConfig(method=method, rows=10, rank=2, epsilon=1e-10, max_iter=5, seed=7)
        res = baseline_solve(model, np.zeros(5), cfg)
        r = res.trace[0]
        assert r.direction == "fine"
        for field in ("iter", "elapsed_s", "f", "grad_norm", "lambda_hat", "step", "backtracks"):
            assert hasattr(r, field)
        assert len(res.trace) == res.iterations + 1

    def test_poisson_domain_respected(self, gen):
        model = random_poisson_model(gen, m=40, N=6)
        x0 = feasible_start(model)
        for method in ("gd", "newton", "sgd"):
            cfg = BaselineConfig(method=method, sgd_t=0.01, epsilon=1e-8, max_iter=30, seed=8)
            res = baseline_solve(model, x0, cfg)
            assert model.predict(res.x_final).min() > 0

    def test_determinism(self, gen):
        model = random_logistic_model(gen, m=30, N=6)
        cfg = BaselineConfig(method="subnewton", rows=10, epsilon=1e-10, max_iter=40, seed=9)
        r1 = baseline_solve(model, np.zeros(6), cfg)
        r2 = baseline_solve(model, np.zeros(6), cfg)
        assert np.array_equal(r1.x_final, r2.x_final)
        assert [r.f for r in r1.trace] == [r.f for r in r2.trace]


class TestNewtonSystemPath:
    """Newton, sub-sampled Newton and SIGMA's fine step solve the full
    operator's Galerkin system, as SIGMA's coarse step does."""

    @pytest.mark.parametrize("make", [random_gaussian_model, random_logistic_model])
    def test_wide_regularized_forms_no_n_by_n_matrix(self, gen, monkeypatch, make):
        m, N, rows = 12, 40, 6
        model = make(gen, m=m, N=N, reg=Regularization(xi2=1e-3))
        x = 0.1 * gen.standard_normal(N)
        g = model.gradient(x)
        expected = np.linalg.solve(model.hessian(x), -g)
        # the first sub-sampled Newton system, from the row sample the run draws first
        sampled = sample_without_replacement(m, rows, RngState(3))
        h_sub = model.reduced_hessian(x, np.arange(N, dtype=np.int64), sampled)
        lam_sub = np.sqrt(g @ np.linalg.solve(h_sub, g))

        def forbidden(*args, **kwargs):
            raise AssertionError("an N x N matrix was formed")

        monkeypatch.setattr(ObjectiveModel, "hessian", forbidden)
        monkeypatch.setattr(ObjectiveModel, "reduced_hessian", forbidden)
        nd = newton_direction(model, x)
        np.testing.assert_allclose(nd.d, expected, rtol=1e-8)
        assert nd.lam == pytest.approx(np.sqrt(-g @ expected), rel=1e-8)
        newton = baseline_solve(model, x, BaselineConfig(method="newton", epsilon=1e-12, seed=3))
        assert newton.status == "converged"
        assert newton.trace[0].lambda_hat == pytest.approx(nd.lam, rel=1e-12)
        cfg = BaselineConfig(method="subnewton", rows=rows, epsilon=1e-12, max_iter=5, seed=3)
        sub = baseline_solve(model, x, cfg)
        assert sub.status != "error" and sub.iterations == 5
        assert sub.trace[0].lambda_hat == pytest.approx(lam_sub, rel=1e-8)
        cfg = SigmaConfig(n=10, check_mode="full_decrement", epsilon=1e-12, max_iter=5, seed=3)
        fine = sigma_solve(model, x, cfg)
        assert fine.status != "error"
        assert fine.trace[0].lam == pytest.approx(nd.lam, rel=1e-12)

    def test_newton_forms_a_d_only_at_exact_margin_refreshes(self, gen, monkeypatch):
        model = random_logistic_model(gen, m=60, N=12, reg=Regularization(xi2=1e-3))
        x = 0.1 * gen.standard_normal(12)
        point = model.point(x)
        # the fold's identity: the Newton system of the full operator is the Hessian's
        assert np.array_equal(newton_direction(model, x, point=point).d,
                              spd_solve(model.hessian(x), -point.g))

        calls = {"predict": 0, "refresh": 0}
        orig_predict, orig_point = ObjectiveModel.predict, ObjectiveModel.point

        def counted_predict(self, v):
            calls["predict"] += 1
            return orig_predict(self, v)

        def counted_point(self, v, z=None):
            calls["refresh"] += z is None  # margins formed afresh
            return orig_point(self, v, z)

        monkeypatch.setattr(ObjectiveModel, "predict", counted_predict)
        monkeypatch.setattr(ObjectiveModel, "point", counted_point)
        res = baseline_solve(model, np.zeros(12), BaselineConfig(method="newton", epsilon=1e-14))
        assert res.status == "converged" and res.iterations >= 3
        # A x at the start and for the terminal row; each step's A d comes with its direction
        assert calls["predict"] == calls["refresh"] == 2

import dataclasses
import logging

import numpy as np
import pytest

from helpers import positive_poisson_instance, random_gaussian_model, random_logistic_model
from sigma_opt import (
    BaselineConfig,
    Dataset,
    LabelSpec,
    ObjectiveModel,
    Regularization,
    RngState,
    SigmaConfig,
    armijo_search,
    baseline_solve,
    damped_initial_step,
    direction_select,
    eta_region,
    feasible_start,
    make_objective,
    poisson_feasible_step,
    sigma_solve,
    stopping_check,
    synth_labels,
)
from sigma_opt.errors import (
    DomainError,
    LineSearchFailed,
    MissingNewtonDecrement,
    OutOfDomain,
)
from sigma_opt.objectives import Ray
from sigma_opt.solver import (
    ALWAYS_COARSE,
    COARSE,
    EUCLIDEAN_PROXY,
    EXACT_MARGINS_EVERY,
    FINE,
    FULL_DECREMENT,
    NU_ONLY,
)


def one_dim_quadratic():
    # f(x) = x^2 / 2
    return make_objective("gaussian", Dataset(np.array([[1.0]]), np.array([0.0])))


class TestConfigValidation:
    def test_defaults_valid(self):
        SigmaConfig(n=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"mu": 0.0},
            {"mu": 1.0},
            {"nu": 0.0},
            {"nu": 0.47},
            {"epsilon": 0.0},
            {"epsilon": 0.4625},
            {"alpha": 0.5},
            {"alpha": 0.0},
            {"beta": 1.0},
            {"zeta": 1.0},
            {"check_mode": "bogus"},
            {"row_sample": 0},
            {"max_iter": -1},
            {"max_seconds": 0.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SigmaConfig(**{"n": 4, **kwargs})


class TestDampedStep:
    @pytest.mark.parametrize("lam,expected", [(0.0, 1.0), (1.0, 0.5), (3.0, 0.25)])
    def test_values(self, lam, expected):
        assert damped_initial_step(lam) == pytest.approx(expected)


class TestStoppingCheck:
    def test_zero_always_stops(self):
        assert stopping_check(0.0, 1e-12)

    def test_compare(self):
        assert not stopping_check(0.5, 0.4)

    def test_inclusive_boundary(self):
        assert stopping_check(0.3, 0.3)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            stopping_check(-1e-3, 0.1)


class TestEtaRegion:
    def test_at_zero(self):
        assert eta_region(0.0) == pytest.approx((3.0 - np.sqrt(5.0)) / 2.0, abs=1e-15)

    def test_at_one(self):
        assert eta_region(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint(self):
        assert eta_region(0.5) == pytest.approx((3.0 - np.sqrt(7.0)) / 2.0, abs=1e-15)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.0, 1.0, 100)
        vals = [eta_region(e) for e in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            eta_region(-0.01)
        with pytest.raises(DomainError):
            eta_region(1.01)


class TestDirectionSelect:
    CFG = dict(n=4, mu=0.5, nu=0.25)

    def test_zero_decrement_goes_fine(self):
        g = np.ones(4)
        gr = np.zeros(2)
        for mode in (NU_ONLY, EUCLIDEAN_PROXY, FULL_DECREMENT):
            cfg = SigmaConfig(**self.CFG, check_mode=mode)
            assert direction_select(0.0, 1.0, g, gr, cfg) == FINE

    def test_always_coarse(self):
        cfg = SigmaConfig(**self.CFG, check_mode=ALWAYS_COARSE)
        assert direction_select(0.0, None, np.ones(4), np.zeros(2), cfg) == COARSE

    def test_nu_only_threshold(self):
        cfg = SigmaConfig(**self.CFG, check_mode=NU_ONLY)
        assert direction_select(0.5, None, np.ones(4), np.ones(2), cfg) == COARSE
        assert direction_select(0.2, None, np.ones(4), np.ones(2), cfg) == FINE

    def test_full_decrement_with_full_operator(self):
        cfg = SigmaConfig(**self.CFG, check_mode=FULL_DECREMENT)
        lam = 0.5  # lambda_hat == lambda > nu and mu < 1 force coarse
        assert direction_select(lam, lam, np.ones(4), np.ones(4), cfg) == COARSE

    def test_full_decrement_requires_lambda(self):
        cfg = SigmaConfig(**self.CFG, check_mode=FULL_DECREMENT)
        with pytest.raises(MissingNewtonDecrement):
            direction_select(0.5, None, np.ones(4), np.ones(2), cfg)

    def test_euclidean_proxy(self):
        cfg = SigmaConfig(**self.CFG, check_mode=EUCLIDEAN_PROXY)
        g = np.array([1.0, 0.0, 0.0, 0.0])
        assert direction_select(1.0, None, g, np.array([0.9]), cfg) == COARSE
        assert direction_select(1.0, None, g, np.array([0.3]), cfg) == FINE


class TestArmijo:
    def test_hand_example_unit_step(self):
        model = one_dim_quadratic()
        t, backtracks = armijo_search(
            Ray(model.point(np.array([2.0])), np.array([-2.0])), dir_deriv=-4.0, t0=1.0, alpha=0.25,
            beta=0.5)
        assert t == 1.0 and backtracks == 0

    def test_non_descent_rejected(self):
        model = one_dim_quadratic()
        with pytest.raises(LineSearchFailed):
            armijo_search(Ray(model.point(np.array([2.0])), np.array([2.0])), 4.0, 1.0, 0.25, 0.5)

    def test_poisson_boundary_caps_step(self):
        # descent toward the domain wall: margin 4 - 8t forces t < 0.5
        model = make_objective("poisson", Dataset(np.array([[1.0]]), np.array([2.0])))
        x, d = np.array([4.0]), np.array([-8.0])
        g = model.gradient(x)
        assert float(g @ d) < 0
        t, _ = armijo_search(Ray(model.point(x), d), float(g @ d), t0=1.0, alpha=0.25, beta=0.5)
        assert t < 0.5
        assert model.domain_status(x + t * d).feasible

    def test_always_satisfies_armijo_inequality(self, gen):
        model = random_logistic_model(gen, m=20, N=6)
        for _ in range(10):
            x = gen.standard_normal(6)
            g = model.gradient(x)
            d = -g
            t, _ = armijo_search(Ray(model.point(x), d), float(g @ d), 1.0, 0.25, 0.5)
            assert model.evaluate(x + t * d) <= model.evaluate(x) + 0.25 * t * float(g @ d) + 1e-12


    def test_saturated_logistic_ascent_rejected(self):
        # the first row's sigmoid rounds to 1 at x = 40; the unit step takes f
        # from 20 to 150
        model = make_objective("logistic", Dataset(np.array([[1.0], [1.0]]), np.array([-1.0, 1.0])))
        x, d = np.array([40.0]), np.array([-340.0])
        assert model.evaluate(x + d) > model.evaluate(x)
        g = model.gradient(x)
        t, _ = armijo_search(Ray(model.point(x), d), float(g @ d), 1.0, 0.25, 0.5)
        assert t < 1.0
        assert model.evaluate(x + t * d) <= model.evaluate(x)

    def test_zero_initial_step_rejected(self):
        # poisson_feasible_step gives t0 = 0 at an infinite decrement; the zero
        # step passes the descent test trivially and the iterate would repeat
        model = make_objective("poisson", Dataset(np.array([[1.0]]), np.array([1.0])))
        ray = Ray(model.point(np.array([1.0])), np.array([-0.5]))
        with pytest.raises(LineSearchFailed):
            armijo_search(ray, -1.0, 0.0, 0.25, 0.5)


class TestPoissonFeasibleStep:
    def setup_method(self):
        self.model = make_objective("poisson", Dataset(np.array([[1.0]]), np.array([1.0])))

    def ray(self, d):
        return Ray(self.model.point(np.array([1.0])), np.array([d]))

    def test_inward_direction_caps_at_one(self):
        assert poisson_feasible_step(self.ray(0.5), 3.0, 2.0) == 1.0

    def test_zero_direction(self):
        assert poisson_feasible_step(self.ray(0.0), 3.0, 2.0) == 1.0

    def test_boundary_case(self):
        # feasibility requires t < 0.5
        t0 = poisson_feasible_step(self.ray(-2.0), 3.0, 2.0)
        assert t0 < 0.5
        assert self.model.domain_status(np.array([1.0]) + t0 * np.array([-2.0])).feasible

    def test_zeta_maximal(self):
        x, d = np.array([1.0]), np.array([-2.0])
        for lam in (0.5, 1.0, 3.0):
            t0 = poisson_feasible_step(self.ray(-2.0), lam, 2.0)
            assert t0 == 1.0 or not self.model.domain_status(x + 2.0 * t0 * d).feasible

    def test_infeasible_start_halved(self):
        # damped start 1/(1+0.1) ~ 0.91 is infeasible; must shrink below 0.5
        t0 = poisson_feasible_step(self.ray(-2.0), 0.1, 2.0)
        assert 0.0 < t0 < 0.5

    @pytest.mark.parametrize("zeta", [1.0, 0.5])
    def test_rejects_zeta_not_above_one(self, zeta):
        # the growth loop would never end: t * zeta <= t stays feasible
        with pytest.raises(DomainError):
            poisson_feasible_step(self.ray(0.5), 3.0, zeta)

    def test_step_found_feasible_is_not_tested_again(self, monkeypatch):
        tested = []

        def counted(ray, t, _orig=Ray._margins_positive):
            tested.append(t)
            return _orig(ray, t)

        monkeypatch.setattr(Ray, "_margins_positive", counted)
        ray = self.ray(-2.0)  # feasible for t < 0.5
        assert ray.feasible(0.25) and tested == [0.25]
        assert ray.feasible(0.1) and ray.feasible(0.25) and ray.feasible(0.0)
        assert tested == [0.25]
        assert not ray.feasible(0.5) and tested == [0.25, 0.5]
        with pytest.raises(OutOfDomain):
            ray.delta(0.75)
        assert np.isfinite(ray.delta(0.2))
        assert tested == [0.25, 0.5, 0.75]

    @pytest.mark.parametrize("kind", ["gaussian", "logistic"])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 40.0, np.inf])
    def test_unit_step_off_the_poisson_domain(self, kind, lam, gen):
        # only the Poisson domain is bounded; elsewhere the start is exactly 1,
        # and an infinite decrement (damped step 0) still returns
        A = gen.standard_normal((6, 3))
        b = gen.standard_normal(6) if kind == "gaussian" else np.where(A[:, 0] > 0, 1.0, -1.0)
        model = make_objective(kind, Dataset(A, b))
        ray = Ray(model.point(gen.standard_normal(3)), 1e6 * gen.standard_normal(3))
        t0 = poisson_feasible_step(ray, lam, 2.0)
        assert t0 == (1.0 if np.isfinite(lam) else 0.0)


class TestSigmaSolve:
    def test_quadratic_full_operator_one_iteration(self):
        model = make_objective("gaussian", Dataset(np.sqrt(2.0) * np.eye(2), np.zeros(2)))
        res = sigma_solve(model, np.array([3.0, 4.0]), SigmaConfig(n=2, epsilon=1e-10, seed=1))
        assert res.status == "converged"
        assert res.iterations == 1
        assert np.allclose(res.x_final, 0.0, atol=1e-8)

    def test_start_at_minimizer(self):
        model = make_objective("gaussian", Dataset(np.sqrt(2.0) * np.eye(2), np.zeros(2)))
        res = sigma_solve(model, np.zeros(2), SigmaConfig(n=1, epsilon=1e-10, seed=1))
        assert res.status == "converged"
        assert res.iterations == 0
        assert len(res.trace) == 1
        assert res.final_decrement_sq == 0.0

    def test_50dim_always_coarse_reaches_tolerance(self, gen):
        A = gen.standard_normal((80, 50))
        b = gen.standard_normal(80)
        model = make_objective("gaussian", Dataset(A, b))
        res = sigma_solve(model, np.zeros(50), SigmaConfig(n=20, epsilon=1e-18, max_iter=800, seed=7))
        # oracle: the exact least-squares solution
        x_star = np.linalg.solve(A.T @ A, A.T @ b)
        fs = [r.f for r in res.trace]
        gs = [r.grad_norm for r in res.trace]
        # monotone up to the resolution of the recorded objective values;
        # decrements below ~1e-16 |f| are not observable in f itself
        assert all(b2 <= a + 1e-12 for a, b2 in zip(fs, fs[1:]))
        # strict decrease while the per-step decrement is above f's resolution
        for k in range(len(fs) - 1):
            if res.trace[k].lambda_hat ** 2 >= 1e-13:
                assert fs[k + 1] < fs[k]
        assert min(gs) <= 1e-8
        assert np.linalg.norm(res.x_final - x_star) <= 1e-6

    def test_trace_rows_equal_iterations_plus_one(self, gen):
        model = random_logistic_model(gen, m=20, N=8, reg=Regularization(xi2=1e-3))
        res = sigma_solve(model, np.zeros(8), SigmaConfig(n=4, epsilon=1e-10, max_iter=50, seed=2))
        assert len(res.trace) == res.iterations + 1
        assert res.trace[-1].step == 0.0
        assert [r.iter for r in res.trace] == list(range(len(res.trace)))
        assert all(np.isfinite(r.f) for r in res.trace)
        if res.status == "converged":
            assert res.final_decrement_sq <= 1e-10

    def test_max_iter_status(self, gen):
        model = random_logistic_model(gen, m=20, N=8)
        res = sigma_solve(model, np.zeros(8), SigmaConfig(n=2, epsilon=1e-12, max_iter=3, seed=2))
        assert res.status == "max_iter"
        assert len(res.trace) == 4

    def test_deterministic_trace(self, gen):
        model = random_logistic_model(gen, m=25, N=10, reg=Regularization(xi2=1e-4))
        cfg = SigmaConfig(n=4, epsilon=1e-10, max_iter=60, seed=33)
        r1 = sigma_solve(model, np.zeros(10), cfg)
        r2 = sigma_solve(model, np.zeros(10), dataclasses.replace(cfg))
        assert r1.status == r2.status
        assert np.array_equal(r1.x_final, r2.x_final)
        for a, b in zip(r1.trace, r2.trace):
            assert (a.iter, a.f, a.grad_norm, a.lambda_hat, a.lam, a.step, a.direction,
                    a.backtracks) == (b.iter, b.f, b.grad_norm, b.lambda_hat, b.lam, b.step,
                                      b.direction, b.backtracks)

    def test_infeasible_x0_raises(self):
        model = make_objective("poisson", Dataset(np.array([[1.0]]), np.array([1.0])))
        with pytest.raises(OutOfDomain):
            sigma_solve(model, np.array([-1.0]), SigmaConfig(n=1, seed=0))

    def test_elapsed_nondecreasing(self, gen):
        model = random_gaussian_model(gen, m=30, N=10)
        res = sigma_solve(model, np.zeros(10), SigmaConfig(n=5, epsilon=1e-14, max_iter=40, seed=4))
        es = [r.elapsed_s for r in res.trace]
        assert all(b >= a for a, b in zip(es, es[1:]))

    def test_full_decrement_mode_records_lambda(self, gen):
        model = random_gaussian_model(gen, m=30, N=8, reg=Regularization(xi2=1e-3))
        res = sigma_solve(
            model, gen.standard_normal(8),
            SigmaConfig(n=4, epsilon=1e-10, max_iter=30, seed=5, check_mode=FULL_DECREMENT),
        )
        assert all(r.lam is not None for r in res.trace)
        assert all(r.lambda_hat <= r.lam + 1e-10 for r in res.trace)

    def test_nu_only_mode_converges(self, gen):
        model = random_gaussian_model(gen, m=30, N=8, reg=Regularization(xi2=1e-3))
        res = sigma_solve(
            model, gen.standard_normal(8),
            SigmaConfig(n=4, epsilon=1e-10, max_iter=100, seed=6, check_mode=NU_ONLY),
        )
        assert res.status == "converged"


class TestSelfConcordantBehavior:
    """Solver-level consequences of self-concordance on the scaled Poisson model."""

    @pytest.fixture(scope="class")
    @staticmethod
    def poisson_run():
        model, x_true = positive_poisson_instance(m=60, N=20, seed=5)
        from sigma_opt import feasible_start

        res = sigma_solve(
            model, feasible_start(model),
            SigmaConfig(n=10, epsilon=1e-12, max_iter=300, seed=11),
        )
        return model, res

    def test_monotone_decrease(self, poisson_run):
        _, res = poisson_run
        fs = [r.f for r in res.trace]
        assert all(b <= a for a, b in zip(fs, fs[1:]))

    def test_unit_step_region(self, poisson_run):
        _, res = poisson_run
        qualifying = [r for r in res.trace[:-1] if r.lambda_hat <= 0.25]
        assert qualifying, "run never entered the unit-step region"
        for r in qualifying:
            assert r.step == 1.0 and r.backtracks == 0

    def test_damped_phase_decrease(self, poisson_run):
        _, res = poisson_run
        eta = eta_region(0.0)
        tr = res.trace
        qualifying = 0
        for k in range(len(tr) - 1):
            r = tr[k]
            if r.direction == COARSE and r.step > 0 and r.lambda_hat > eta:
                qualifying += 1
                bound = 0.25 * 0.5 * r.lambda_hat**2 / (1.0 + r.lambda_hat) - 1e-10
                assert tr[k].f - tr[k + 1].f >= bound
        assert qualifying > 0

    def test_hessian_sandwich_along_steps(self, poisson_run):
        # H(x_{k+1}) <= (1 - t lambda_hat)^(-2) H(x_k) for accepted steps with
        # t lambda_hat < 1; diagnostic replay of the iteration at small N
        model, res = poisson_run
        from sigma_opt import RngState, build_operator, coarse_direction, galerkin_system, newton_direction

        # start inside the t * lambda_hat < 1 region: perturb the minimizer
        # until the Newton decrement sits around 1/2
        x_star = res.x_final
        gen = np.random.default_rng(0)
        u = gen.standard_normal(model.dataset.N)
        scale = 0.5
        for _ in range(40):
            x = x_star + scale * u
            if not model.domain_status(x).feasible:
                scale *= 0.5
                continue
            lam = newton_direction(model, x).lam
            if lam > 0.8:
                scale *= 0.6
            elif lam < 0.2:
                scale *= 1.5
            else:
                break
        rng = RngState(11)
        checked = 0
        for _ in range(60):
            op = build_operator(model.dataset.N, 3, rng)
            step = coarse_direction(galerkin_system(model, x, op), op)
            if step.lambda_hat**2 <= 1e-14:
                break
            g = model.gradient(x)
            ray = Ray(model.point(x), step.d_hat)
            t0 = poisson_feasible_step(ray, step.lambda_hat, 2.0)
            t, _bt = armijo_search(ray, float(g @ step.d_hat), t0, 0.25, 0.5)
            x_next = x + t * step.d_hat
            t_lam = t * step.lambda_hat
            if 0.0 < t_lam < 1.0:
                diff = (1.0 - t_lam) ** -2 * model.hessian(x) - model.hessian(x_next)
                assert np.linalg.eigvalsh(diff).min() >= -1e-8
                checked += 1
            x = x_next
        assert checked >= 8


def test_singular_reduced_block_converges_without_ascent():
    # a duplicated and an all-zero column with no l2 term make every reduced
    # block that samples them singular; the Cholesky shift must carry the run
    gen = np.random.default_rng(0)
    A = gen.standard_normal((80, 12))
    b = np.where(A @ gen.standard_normal(12) + 2.0 * gen.standard_normal(80) > 0, 1.0, -1.0)
    A[:, 4] = A[:, 1]
    A[:, 7] = 0.0
    model = make_objective("logistic", Dataset(A, b), Regularization(xi2=0.0))
    res = sigma_solve(model, np.zeros(12), SigmaConfig(n=6, epsilon=1e-12, max_iter=500, seed=0))
    assert res.status == "converged"
    fs = [r.f for r in res.trace]
    assert all(b <= a for a, b in zip(fs, fs[1:]))


@pytest.mark.parametrize("margin", [1e-12, 1e-14])
@pytest.mark.parametrize("mode", [ALWAYS_COARSE, FULL_DECREMENT])
def test_poisson_start_with_a_margin_near_zero(margin, mode, caplog):
    # the smallest margin of the ground truth moved to ~margin: that row's
    # curvature weight b / z^2 is ~1e24 or more, so the reduced blocks that
    # sample it are numerically singular and the Cholesky shift carries the run
    model, x_true = positive_poisson_instance()
    A = model.dataset.A
    z = A @ x_true
    i = int(np.argmin(z))
    x0 = x_true - (z[i] - margin) * A[i] / (A[i] @ A[i])
    z0 = A @ x0
    assert 0 < z0.min() == z0[i] < 2 * margin
    point = model.point(x0)
    assert all(np.all(np.isfinite(v)) for v in (point.f, point.w1, point.w2, point.g))
    with caplog.at_level(logging.WARNING, logger="sigma_opt.core"):
        res = sigma_solve(model, x0, SigmaConfig(n=25, epsilon=1e-12, seed=1, check_mode=mode))
    assert res.status == "converged"
    fs = np.array([r.f for r in res.trace])
    assert np.all(np.isfinite(fs)) and np.all(np.diff(fs) <= 0)
    assert any("diagonal shift" in r.getMessage() for r in caplog.records
               if r.name == "sigma_opt.core" and r.levelno == logging.WARNING)


def test_timeout_status(gen):
    model = random_gaussian_model(gen, m=40, N=20)
    cfg = SigmaConfig(n=2, epsilon=1e-16, max_iter=10**6, max_seconds=0.05, seed=1)
    res = sigma_solve(model, np.zeros(20), cfg)
    assert res.status in ("timeout", "converged")


SOLVERS = ("sigma", "gd", "sgd", "newton", "subnewton", "newsamp")


def _count_passes(monkeypatch):
    """A list that gets the method name of each ``predict`` or ``gradient`` call."""
    calls = []
    for name in ("predict", "gradient"):
        def counted(self, *args, _orig=getattr(ObjectiveModel, name), _name=name, **kwargs):
            calls.append(_name)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(ObjectiveModel, name, counted)
    return calls


@pytest.mark.parametrize(("kind", "solver"), [
    pytest.param(kind, solver, id=kind if solver == "sigma" else f"{kind}-{solver}")
    for kind in ("logistic", "poisson") for solver in SOLVERS
])
def test_one_pass_over_data_each_way_per_iterate(kind, solver, gen, monkeypatch):
    # every iterate is evaluated once, with one A^T w (gradient); its A x is
    # carried along the step from the A d of the step's ray (predict for the
    # baselines' dense steps, none for SIGMA's sampled columns), or formed by
    # predict on the refresh iterates 0, 32, 64, ...
    if kind == "logistic":
        model, x0 = random_logistic_model(gen, m=60, N=20, reg=Regularization(xi2=1e-3)), np.zeros(20)
    else:
        model, x0 = positive_poisson_instance(m=80, N=20)
    calls = _count_passes(monkeypatch)
    if solver == "sigma":
        res = sigma_solve(model, x0, SigmaConfig(n=5, epsilon=1e-14, max_iter=25, seed=2))
    else:
        res = baseline_solve(model, x0, BaselineConfig(method=solver, epsilon=1e-14, max_iter=25,
                                                       sgd_t=1e-5, seed=2))
    # Newton converges in a few steps; one extra pass each would still show
    assert res.iterations >= (4 if solver == "newton" else 10)
    # a terminal iterate with carried margins is evaluated once more, A x formed
    terminal = 2 if res.iterations % EXACT_MARGINS_EVERY else 0
    assert len(calls) <= 2 * (res.iterations + 1) + terminal


@pytest.mark.parametrize(("kind", "solver"), [
    pytest.param("logistic", "sigma", id="logistic"),
    pytest.param("poisson", "sigma", id="poisson"),
    pytest.param("logistic", "sgd", id="logistic-sgd"),
])
def test_sigma_forms_a_x_once_per_refresh_period(kind, solver, gen, monkeypatch):
    if kind == "logistic":
        model, x0 = random_logistic_model(gen, m=60, N=20, reg=Regularization(xi2=1e-3)), np.zeros(20)
    else:
        model, x0 = positive_poisson_instance(m=80, N=20)
    calls = _count_passes(monkeypatch)
    formed = []  # per evaluated iterate: was A x formed (no carried margins)?

    def recorded(self, x, z=None, _orig=ObjectiveModel.point):
        formed.append(z is None)
        return _orig(self, x, z)

    monkeypatch.setattr(ObjectiveModel, "point", recorded)
    if solver == "sigma":
        res = sigma_solve(model, x0, SigmaConfig(n=5, epsilon=1e-30, max_iter=80, seed=2))
    else:
        res = baseline_solve(model, x0, BaselineConfig(method=solver, epsilon=1e-30, max_iter=80,
                                                       seed=2))
    assert res.iterations > 2 * EXACT_MARGINS_EVERY
    # a terminal iterate with carried margins is evaluated once more, A x formed
    terminal = int(res.iterations % EXACT_MARGINS_EVERY != 0)
    assert formed == ([k % EXACT_MARGINS_EVERY == 0 for k in range(res.iterations + 1)]
                      + [True] * terminal)
    if solver == "sigma":
        # SIGMA's coarse steps take A d from the sampled columns, not from predict
        assert calls.count("predict") <= -(-res.iterations // EXACT_MARGINS_EVERY) + 1 + terminal
        # and their restricted gradient from those columns: the full A^T w is
        # formed only on the refresh iterates and the terminal one
        refreshes = sum(k % EXACT_MARGINS_EVERY == 0 for k in range(res.iterations + 1))
        assert calls.count("gradient") == refreshes + terminal
    else:
        assert calls.count("gradient") == res.iterations + 1 + terminal


def test_poisson_step_tests_each_trial_feasibility_once(monkeypatch):
    # poisson_feasible_step proves its step feasible; the Armijo search from
    # that step then makes no O(m) feasibility test of its own
    from sigma_opt import solver

    model, x0 = positive_poisson_instance(m=80, N=20)
    tested = []
    per_step = []  # (tests by poisson_feasible_step, tests by armijo_search)

    def counted(ray, t, _orig=Ray._margins_positive):
        tested.append(t)
        return _orig(ray, t)

    def feasible_step(*args, _orig=solver.poisson_feasible_step):
        tested.clear()
        t = _orig(*args)
        per_step.append([len(tested), 0])
        return t

    def search(*args, _orig=solver.armijo_search):
        before = len(tested)
        result = _orig(*args)
        per_step[-1][1] = len(tested) - before
        return result

    monkeypatch.setattr(Ray, "_margins_positive", counted)
    monkeypatch.setattr(solver, "poisson_feasible_step", feasible_step)
    monkeypatch.setattr(solver, "armijo_search", search)
    res = sigma_solve(model, x0, SigmaConfig(n=5, epsilon=1e-30, max_iter=40, seed=4))
    assert len(per_step) == res.iterations == 40
    assert all(grow >= 1 for grow, _ in per_step)
    assert [armijo for _, armijo in per_step] == [0] * 40


def test_carried_margins_track_a_x(monkeypatch):
    # Poisson, whose domain test reads the margins, over three refresh periods
    model, x0 = positive_poisson_instance(m=80, N=20)
    A = model.dataset.A
    seen = []

    def recorded(self, x, z=None, _orig=ObjectiveModel.point):
        point = _orig(self, x, z)
        seen.append((x.copy(), point.z.copy()))
        return point

    monkeypatch.setattr(ObjectiveModel, "point", recorded)
    res = sigma_solve(model, x0, SigmaConfig(n=5, epsilon=1e-30, max_iter=100, seed=4))
    assert res.iterations >= 3 * EXACT_MARGINS_EVERY
    assert res.iterations % EXACT_MARGINS_EVERY != 0
    # one evaluation per iterate, then the terminal one again with A x formed
    assert len(seen) == res.iterations + 2
    assert np.array_equal(seen[-1][0], res.x_final)
    assert np.array_equal(seen[-1][1], model.predict(res.x_final))
    eps = np.finfo(np.float64).eps
    for k, (x, z) in enumerate(seen[:-1]):
        exact = model.predict(x)
        if k % EXACT_MARGINS_EVERY == 0:
            assert np.array_equal(z, exact)
        assert np.all(np.abs(z - exact) <= 64 * eps * (np.abs(A) @ np.abs(x)))
        assert float(z.min()) > 0.0


@pytest.mark.parametrize("solver", ["sigma", "newton"])
def test_terminal_grad_norm_is_exact(solver):
    # the terminal iterate's margins are carried (iterations not a multiple of
    # EXACT_MARGINS_EVERY); its gradient norm is still the exact one
    model, x0 = positive_poisson_instance(m=80, N=20)
    if solver == "sigma":
        res = sigma_solve(model, x0, SigmaConfig(n=5, epsilon=1e-30, max_iter=70, seed=4))
    else:
        res = baseline_solve(model, x0, BaselineConfig(method="newton", epsilon=1e-14, seed=2))
        assert res.status == "converged"
    assert res.iterations % EXACT_MARGINS_EVERY != 0
    assert res.trace[-1].grad_norm == float(np.linalg.norm(model.gradient(res.x_final)))


def test_sigma_builds_one_generator(monkeypatch):
    # every per-iteration draw (coarse operator and row sample) continues the
    # first draw's generator
    from sigma_opt.rng import RngState

    built = []

    def counted(self, _orig=RngState.child):
        built.append(self.stream)
        return _orig(self)

    monkeypatch.setattr(RngState, "child", counted)
    model = random_logistic_model(np.random.default_rng(3), m=60, N=20,
                                  reg=Regularization(xi2=1e-3))
    res = sigma_solve(model, np.zeros(20), SigmaConfig(n=5, row_sample=40, epsilon=1e-30,
                                                       max_iter=60, seed=2))
    assert res.iterations == 60
    assert len(built) <= 1


def test_sgd_poisson_halving_forms_a_d_once(monkeypatch):
    # the default sgd_t=1 leaves the domain and is halved many times; each
    # trial is tested from A x and one A d, not by a pass over the data
    model, x0 = positive_poisson_instance(m=80, N=20)
    calls = _count_passes(monkeypatch)
    res = baseline_solve(model, x0, BaselineConfig(method="sgd", epsilon=1e-14, max_iter=25,
                                                   seed=2))
    assert res.iterations == 25
    assert min(r.step for r in res.trace[:-1]) < 1e-3  # the halving did run
    assert len(calls) <= 3 * (res.iterations + 1)


@pytest.mark.parametrize("method", ["sigma_row_sample", "sgd"])
def test_same_iterations_on_row_and_column_major_data(method, gen):
    A = gen.standard_normal((60, 20))
    if method == "sgd":
        # noiseless least squares, so SGD's gradient noise vanishes and it converges
        kind, b, reg = "gaussian", A @ gen.standard_normal(20), Regularization()
    else:
        kind, b = "logistic", np.where(gen.standard_normal(60) > 0, 1.0, -1.0)
        reg = Regularization(xi2=1e-3)
    results = []
    for layout in (np.ascontiguousarray, np.asfortranarray):
        model = make_objective(kind, Dataset(layout(A), b), reg)
        if method == "sgd":
            cfg = BaselineConfig(method="sgd", batch=10, sgd_t=0.5, epsilon=1e-16, max_iter=5000,
                                 seed=3)
            results.append(baseline_solve(model, np.zeros(20), cfg))
        else:
            cfg = SigmaConfig(n=5, row_sample=30, epsilon=1e-12, max_iter=500, seed=3)
            results.append(sigma_solve(model, np.zeros(20), cfg))
    assert results[0].status == results[1].status == "converged"
    assert results[0].iterations == results[1].iterations


def test_iterate_out_of_domain_ends_the_run(monkeypatch):
    # SGD's steps keep the carried margins z + t A d inside the Poisson domain,
    # but at a refresh iterate A x is formed exactly and a margin reads 0
    A = np.random.default_rng(77).uniform(0.1, 1.1, (200, 50))
    b, _ = synth_labels(A, LabelSpec("poisson", 0, 78), RngState(78))
    model = make_objective("poisson", Dataset(A, b), Regularization(xi2=1e-6))
    accepted = []

    def recorded(self, x, z=None, _orig=ObjectiveModel.point):
        point = _orig(self, x, z)
        accepted.append(x.copy())
        return point

    monkeypatch.setattr(ObjectiveModel, "point", recorded)
    res = baseline_solve(model, feasible_start(model), BaselineConfig(method="sgd", seed=3))
    assert res.status == "error"
    assert res.message.startswith("Poisson margin min a_i^T x = ")
    assert len(accepted) == len(res.trace) > 1
    assert np.array_equal(res.x_final, accepted[-1])

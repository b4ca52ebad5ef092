import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_gaussian_model, random_logistic_model, random_poisson_model
from sigma_opt import (
    CoarseOperator,
    Dataset,
    LabelSpec,
    Regularization,
    RngState,
    SigmaConfig,
    SvdGapSpec,
    build_operator,
    coarse_direction,
    feasible_start,
    full_operator,
    galerkin_system,
    make_objective,
    newton_direction,
    nystrom_approximation,
    prolong,
    restrict,
    sample_without_replacement,
    sigma_solve,
    solver,
    spd_solve,
    svd_gap_matrix,
    synth_labels,
)
from sigma_opt.errors import InvalidDimensions


def quadratic_model(scale_rows=np.sqrt(2.0)):
    # f(x) = 1/2 ||x||^2 with gradient x and unit Hessian
    return make_objective("gaussian", Dataset(scale_rows * np.eye(2), np.zeros(2)))


class TestOperator:
    def test_full_when_n_equals_N(self):
        op = build_operator(6, 6, RngState(0))
        assert op.indices.tolist() == list(range(6))
        assert op.n == op.fine_dim

    def test_matches_core_golden_subset(self):
        op = build_operator(4, 2, RngState(42))
        assert op.indices.tolist() == sample_without_replacement(4, 2, RngState(42)).tolist()
        assert op.indices.tolist() == [1, 3]

    def test_single_coordinate(self):
        op = build_operator(10, 1, RngState(9))
        assert op.n == 1
        assert 0 <= op.indices[0] < 10

    def test_resample_differs(self):
        rng = RngState(1)
        ops = {tuple(build_operator(30, 5, rng).indices.tolist()) for _ in range(10)}
        assert len(ops) > 1

    def test_invalid(self):
        with pytest.raises(InvalidDimensions):
            build_operator(4, 5, RngState(0))
        with pytest.raises(InvalidDimensions):
            CoarseOperator(np.array([0, 0], dtype=np.int64), 4)


class TestProlongRestrict:
    def test_scatter(self):
        op = CoarseOperator(np.array([1], dtype=np.int64), 2)
        assert prolong(op, np.array([5.0])).tolist() == [0.0, 5.0]

    def test_full_operator_is_identity(self, gen):
        op = full_operator(7)
        v = gen.standard_normal(7)
        assert np.array_equal(prolong(op, v), v)
        assert np.array_equal(restrict(op, v), v)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_restrict_prolong_roundtrip(self, seed):
        rng = RngState(seed)
        gen = rng.child()
        N = int(gen.integers(2, 20))
        n = int(gen.integers(1, N + 1))
        op = build_operator(N, n, rng)
        v = gen.standard_normal(n)
        assert np.array_equal(restrict(op, prolong(op, v)), v)

    def test_length_mismatch(self):
        op = CoarseOperator(np.array([0, 2], dtype=np.int64), 4)
        with pytest.raises(InvalidDimensions):
            prolong(op, np.ones(3))
        with pytest.raises(InvalidDimensions):
            restrict(op, np.ones(3))


class TestGalerkinSystem:
    def test_full_operator_gives_dense_system(self, gen):
        model = random_logistic_model(gen, m=10, N=6)
        x = gen.standard_normal(6)
        sys = galerkin_system(model, x, full_operator(6))
        assert np.allclose(sys.q, model.hessian(x), atol=1e-12)
        assert np.array_equal(sys.g, model.gradient(x))

    @pytest.mark.parametrize("row_sample", [None, np.arange(0, 40, 3)])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_sampled_gradient_is_the_full_one_restricted(self, gen, layout, row_sample):
        # the sampled operator forms R grad f from its own columns of A; the
        # gradient sums every row even when the curvature samples rows
        base = random_logistic_model(gen, m=40, N=12, reg=Regularization(xi2=1e-3, xi1=1e-3))
        model = make_objective("logistic", Dataset(layout(base.dataset.A), base.dataset.b),
                               base.reg)
        x = gen.standard_normal(12)
        op = CoarseOperator(np.array([0, 3, 4, 9, 11], dtype=np.int64), 12)
        sys = galerkin_system(model, x, op, row_sample)
        g = model.gradient(x)
        np.testing.assert_allclose(sys.g, g[op.indices], rtol=1e-13,
                                   atol=1e-15 * float(np.abs(g).max()))
        expected_q = model.reduced_hessian(x, op.indices, row_sample)
        assert np.array_equal(sys.q, expected_q)

    def test_quadratic_subblock_is_identity(self):
        model = quadratic_model()
        op = CoarseOperator(np.array([1], dtype=np.int64), 2)
        sys = galerkin_system(model, np.array([3.0, 4.0]), op)
        assert np.allclose(sys.q, np.eye(1), atol=1e-14)

    def test_matches_materialized_subblock(self, gen, monkeypatch):
        base = random_logistic_model(gen, m=3, N=4)
        x = gen.standard_normal(4)
        op = CoarseOperator(np.array([0, 2], dtype=np.int64), 4)
        steps = []

        def recorded(ray, point, step, cfg, _orig=solver._step_length):
            steps.append(step)
            return _orig(ray, point, step, cfg)

        monkeypatch.setattr(solver, "_step_length", recorded)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            A = layout(base.dataset.A)
            A_before = A.copy()
            model = make_objective("logistic", Dataset(A, base.dataset.b))
            sys = galerkin_system(model, x, op)
            assert np.allclose(sys.q, model.hessian(x)[np.ix_(op.indices, op.indices)],
                               atol=1e-12)
            assert np.array_equal(A, A_before)
            # SIGMA's step A d comes from the sampled columns alone
            steps.clear()
            sigma_solve(model, x, SigmaConfig(n=2, epsilon=1e-14, max_iter=3, seed=1))
            assert steps
            for step in steps:
                np.testing.assert_allclose(step.dz, A @ step.d, rtol=1e-13, atol=1e-15)


class TestCoarseDirection:
    def test_full_operator_equals_newton(self, gen):
        model = random_logistic_model(gen, m=20, N=8, reg=Regularization(xi2=1e-3))
        x = gen.standard_normal(8)
        step = coarse_direction(galerkin_system(model, x, full_operator(8)), full_operator(8))
        nd = newton_direction(model, x)
        assert np.max(np.abs(step.d_hat - nd.d)) <= 1e-10
        assert step.lambda_hat == pytest.approx(nd.lam, rel=1e-10)

    def test_hand_quadratic(self):
        # H = I, grad = x = (3, 4), S = {0}: d_hat = (-3, 0), lambda_hat = 3
        model = quadratic_model()
        op = CoarseOperator(np.array([0], dtype=np.int64), 2)
        step = coarse_direction(galerkin_system(model, np.array([3.0, 4.0]), op), op)
        assert np.allclose(step.d_hat, [-3.0, 0.0], atol=1e-12)
        assert step.lambda_hat == pytest.approx(3.0, abs=1e-12)

    def test_zero_reduced_gradient(self):
        model = quadratic_model()
        op = CoarseOperator(np.array([0], dtype=np.int64), 2)
        # gradient (0, 4): its restriction to {0} vanishes -> ineffective step
        step = coarse_direction(galerkin_system(model, np.array([0.0, 4.0]), op), op)
        assert np.allclose(step.d_hat, 0.0)
        assert step.lambda_hat == 0.0

    def test_two_decrement_expressions_agree(self, gen):
        model = random_logistic_model(gen, m=25, N=10, reg=Regularization(xi2=1e-3))
        rng = RngState(3)
        for _ in range(20):
            x = gen.standard_normal(10)
            op = build_operator(10, 4, rng)
            sys = galerkin_system(model, x, op)
            q = sys.q.copy()  # coarse_direction factors sys.q in place
            step = coarse_direction(sys, op)
            via_quad = np.sqrt(step.d_coarse @ q @ step.d_coarse)
            assert step.lambda_hat == pytest.approx(via_quad, rel=1e-8, abs=1e-12)

    def test_descent_direction(self, gen):
        model = random_gaussian_model(gen, m=30, N=12)
        rng = RngState(4)
        for _ in range(20):
            x = gen.standard_normal(12)
            op = build_operator(12, 5, rng)
            step = coarse_direction(galerkin_system(model, x, op), op)
            dot = float(model.gradient(x) @ step.d_hat)
            assert dot == pytest.approx(-step.lambda_hat**2, rel=1e-8, abs=1e-12)
            assert dot <= 1e-12


class TestNewtonDirection:
    def test_hand_diagonal(self):
        # Hessian diag(1, 4), gradient (1, 4) at x = (1, 1)
        A = np.diag([np.sqrt(2.0), 2.0 * np.sqrt(2.0)])
        model = make_objective("gaussian", Dataset(A, np.zeros(2)))
        nd = newton_direction(model, np.array([1.0, 1.0]))
        assert np.allclose(nd.d, [-1.0, -1.0], atol=1e-12)
        assert nd.lam == pytest.approx(np.sqrt(5.0), abs=1e-12)

    def test_zero_gradient(self):
        model = quadratic_model()
        nd = newton_direction(model, np.zeros(2))
        assert np.allclose(nd.d, 0.0)
        assert nd.lam == 0.0

    def test_one_step_on_quadratic(self, gen):
        A = gen.standard_normal((20, 6))
        b = gen.standard_normal(20)
        model = make_objective("gaussian", Dataset(A, b))
        x = gen.standard_normal(6)
        nd = newton_direction(model, x)
        x_star = np.linalg.solve(A.T @ A, A.T @ b)
        assert np.allclose(x + nd.d, x_star, atol=1e-8)


class TestNystrom:
    def test_full_operator_reproduces(self, gen):
        M = gen.standard_normal((6, 6))
        H = M.T @ M + np.eye(6)
        assert np.allclose(nystrom_approximation(H, full_operator(6)), H, atol=1e-8)

    def test_identity_projects(self):
        op = CoarseOperator(np.array([1, 3], dtype=np.int64), 5)
        Hn = nystrom_approximation(np.eye(5), op)
        proj = np.zeros((5, 5))
        proj[1, 1] = proj[3, 3] = 1.0
        assert np.allclose(Hn, proj, atol=1e-10)

    def test_rank_bound(self, gen):
        M = gen.standard_normal((8, 8))
        H = M.T @ M + np.eye(8)
        rng = RngState(5)
        op = build_operator(8, 3, rng)
        assert np.linalg.matrix_rank(nystrom_approximation(H, op), tol=1e-8) <= 3

    def test_residual_psd(self, gen):
        rng = RngState(6)
        for _ in range(20):
            M = gen.standard_normal((7, 7))
            H = M.T @ M + np.eye(7)
            op = build_operator(7, int(rng.child().integers(1, 7)), rng)
            resid = H - nystrom_approximation(H, op)
            assert np.linalg.eigvalsh(resid).min() >= -1e-8


class TestDecrements:
    # the coarse and Newton decrements of one evaluated point; dominance
    # lambda_hat <= lambda is acceptance c01

    def test_full_operator_equality(self, gen):
        model = random_logistic_model(gen, m=15, N=6)
        x = gen.standard_normal(6)
        point = model.point(x)
        op = full_operator(6)
        lam_hat = coarse_direction(galerkin_system(model, x, op, point=point), op).lambda_hat
        lam = newton_direction(model, x, point=point).lam
        assert lam_hat == pytest.approx(lam, rel=1e-9, abs=1e-12)

    def test_zero_at_minimizer(self, gen):
        A = gen.standard_normal((12, 4))
        b = gen.standard_normal(12)
        model = make_objective("gaussian", Dataset(A, b))
        x_star = np.linalg.solve(A.T @ A, A.T @ b)
        op = full_operator(4)
        assert coarse_direction(galerkin_system(model, x_star, op), op).lambda_hat <= 1e-6
        assert newton_direction(model, x_star).lam <= 1e-6


class TestNormIdentity:
    def test_auxiliary_identity_and_bound(self, gen):
        # || H^(1/2) (d_hat - d) || = sqrt(lambda^2 - lambda_hat^2) <= lambda
        rng = RngState(17)
        for trial in range(30):
            model = (random_logistic_model if trial % 2 else random_gaussian_model)(
                gen, m=30, N=12, reg=Regularization(xi2=1e-3)
            )
            x = gen.standard_normal(12)
            op = build_operator(12, [1, 3, 6][trial % 3], rng)
            step = coarse_direction(galerkin_system(model, x, op), op)
            nd = newton_direction(model, x)
            H = model.hessian(x)
            vals, vecs = np.linalg.eigh(H)
            H_sqrt = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
            lhs = np.linalg.norm(H_sqrt @ (step.d_hat - nd.d))
            rhs = np.sqrt(max(nd.lam**2 - step.lambda_hat**2, 0.0))
            assert abs(lhs - rhs) <= 1e-7 * max(rhs, 1e-9)
            assert lhs <= nd.lam * (1.0 + 1e-9)


def _cholesky_direction(model, x, op, rows, g):
    """The n x n path: ``Q_H`` formed by the Gram's syrk and factored."""
    q = model.reduced_hessian(x, op.indices, rows)
    return spd_solve(q, -g), q


def _refined_reference(block, c, D, rhs, start, q):
    """``(c B^T B + diag(D))^-1 rhs`` by iterative refinement from ``start``,
    with every residual formed in ``np.longdouble`` from the exact ``B``,
    ``c`` and ``D``, and the corrections solved with the formed ``q``."""
    B, Dl, cl = block.astype(np.longdouble), D.astype(np.longdouble), np.longdouble(c)
    d = start.astype(np.longdouble)
    for _ in range(6):
        r = rhs.astype(np.longdouble) - (cl * (B.T @ (B @ d)) + Dl * d)
        d += spd_solve(q, r.astype(np.float64))
    return d


class TestCapacitanceSolve:
    # the Gram has fewer rows than columns and D > 0: Q_H = c B^T B + diag(D)
    # is solved through the m x m capacitance matrix, with one refinement step

    @pytest.mark.parametrize("row_sample", [None, 25])
    @pytest.mark.parametrize("reg", [Regularization(xi2=1e-3), Regularization(xi1=1e-2),
                                     Regularization(xi2=1e-6, xi1=1e-4)],
                             ids=["l2", "pseudo_huber", "both"])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    @pytest.mark.parametrize("kind", ["gaussian", "logistic", "poisson"])
    def test_agrees_with_the_n_by_n_cholesky(self, kind, layout, reg, row_sample, gen):
        # 30 rows, or 25 sampled of 80, against n = 60 columns. The two paths
        # differ by the forward error of a solve, so the bound is
        # 2 cond(Q_H) eps; measured, the gap stays below 0.35 cond(Q_H) eps.
        m, N, n = (30 if row_sample is None else 80), 90, 60
        make = {"gaussian": random_gaussian_model, "logistic": random_logistic_model,
                "poisson": random_poisson_model}[kind]
        base = make(gen, m=m, N=N, reg=reg)
        model = make_objective(kind, Dataset(layout(base.dataset.A), base.dataset.b), reg)
        if kind == "poisson":
            x = feasible_start(model) * gen.uniform(0.5, 1.5, N)
        else:
            x = 0.3 * gen.standard_normal(N)
        eps, rng = np.finfo(np.float64).eps, RngState(3)
        for _ in range(5):
            op = build_operator(N, n, rng)
            rows = None if row_sample is None else np.sort(gen.choice(m, row_sample, replace=False))
            system = galerkin_system(model, x, op, rows)
            assert isinstance(system.q, tuple)
            g = system.g
            d_ref, q = _cholesky_direction(model, x, op, rows, g)
            step = coarse_direction(system, op)
            tol = 2.0 * np.linalg.cond(q) * eps
            assert np.linalg.norm(step.d_coarse - d_ref) <= tol * np.linalg.norm(d_ref)
            lam_ref = np.sqrt(-float(g @ d_ref))
            assert abs(step.lambda_hat - lam_ref) <= tol * lam_ref
            assert np.array_equal(step.d_hat, prolong(op, step.d_coarse))
            if rows is not None:  # the step's A d takes the fallback gather
                assert step.dz is None
                continue
            block = model.dataset.A[:, op.indices]
            assert np.all(np.abs(step.dz - block @ step.d_coarse)
                          <= 1e-14 * (np.abs(block) @ np.abs(step.d_coarse)))
            dz_ref = block @ d_ref
            assert (np.linalg.norm(step.dz - dz_ref)
                    <= tol * np.linalg.norm(block, 2) * np.linalg.norm(d_ref)
                    + 1e-14 * np.linalg.norm(dz_ref))

    @staticmethod
    def _gaussian_wide():
        # the benchmark's gaussian-wide family: 50 x 2000, n = 200, xi2 = 1e-6
        A = svd_gap_matrix(SvdGapSpec(m=50, N=2000, p=10, gap=100.0, seed=0), RngState(0))
        b, _ = synth_labels(A, LabelSpec("gaussian", sigma_noise=0.01, seed=100), RngState(100))
        return make_objective("gaussian", Dataset(A, b), Regularization(xi2=1e-6))

    @staticmethod
    def _logistic_wide(xi2):
        gen = np.random.default_rng(3)
        A = gen.standard_normal((60, 800))
        b = np.where(gen.standard_normal(60) > 0, 1.0, -1.0)
        return make_objective("logistic", Dataset(A, b), Regularization(xi2=xi2))

    @pytest.mark.parametrize("case", ["gaussian_wide", "logistic_xi2_1e-6", "logistic_xi2_1e-10"])
    def test_refined_error_at_most_twice_the_cholesky(self, case):
        # At x = 0 of gaussian-wide the gradient lies in the block's row space
        # and D is 2e-6: the unrefined Woodbury direction D^-1 (B^T y - g)
        # cancels, about 300x the Cholesky's error. One refinement step
        # brings it to or below the Cholesky's.
        model = self._gaussian_wide() if case == "gaussian_wide" else self._logistic_wide(
            float(case.rsplit("_", 1)[1]))
        N = model.dataset.N
        late = sigma_solve(model, np.zeros(N), SigmaConfig(n=200, epsilon=1e-30, max_iter=300,
                                                         seed=1)).x_final
        rng = RngState(5)
        for x in (np.zeros(N), late):
            for _ in range(3):
                op = build_operator(N, 200, rng)
                system = galerkin_system(model, x, op)
                block, (c, D), g = system.block, system.q, system.g
                d_chol, q = _cholesky_direction(model, x, op, None, g)
                reference = _refined_reference(block, c, D, -g, d_chol, q)
                d_cap = coarse_direction(system, op).d_coarse

                def error(d):
                    return float(np.linalg.norm(d - reference) / np.linalg.norm(reference))

                assert error(d_cap) <= 2.0 * error(d_chol)

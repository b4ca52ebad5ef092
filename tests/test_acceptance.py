"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL`` line (run with ``-s`` or
``-rA`` to see them). The convergence-theory criteria run on the scaled
Poisson instance (positive features, synthesized counts) and on synthetic
spectral-gap data; the property criteria sweep randomized instances with
fixed seeds.
"""

import dataclasses
import time

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import fd_gradient, fd_hessian, positive_poisson_instance
from sigma_opt import (
    BaselineConfig,
    Dataset,
    LabelSpec,
    Regularization,
    RngState,
    SigmaConfig,
    SvdGapSpec,
    baseline_solve,
    build_operator,
    coarse_direction,
    eta_region,
    feasible_start,
    full_operator,
    galerkin_system,
    make_objective,
    newton_direction,
    nystrom_approximation,
    omega,
    sigma_solve,
    svd_gap_matrix,
    synth_labels,
)
from sigma_opt.cli import cli


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _random_models(gen, count, m=24, N=16):
    models = []
    for i in range(count):
        A = gen.standard_normal((m, N))
        if i % 2 == 0:
            models.append(make_objective("gaussian", Dataset(A, gen.standard_normal(m)),
                                          Regularization(xi2=1e-3)))
        else:
            b = np.where(gen.standard_normal(m) > 0, 1.0, -1.0)
            models.append(make_objective("logistic", Dataset(A, b), Regularization(xi2=1e-3)))
    return models


def test_c01_decrement_dominance():
    gen = np.random.default_rng(101)
    rng = RngState(101)
    models = _random_models(gen, 8)
    N = 16
    started = time.monotonic()
    worst = -np.inf
    trials = 1000
    for t in range(trials):
        model = models[t % len(models)]
        x = gen.standard_normal(N)
        n = (1, N // 4, N // 2, N)[t % 4]
        op = build_operator(N, n, rng)
        lam_hat = coarse_direction(galerkin_system(model, x, op), op).lambda_hat
        lam = newton_direction(model, x).lam
        worst = max(worst, lam_hat - lam)
    elapsed = time.monotonic() - started
    report(1, worst <= 1e-10 and elapsed < 10.0,
           f"{trials} trials, worst lambda_hat - lambda = {worst:.2e}, {elapsed:.1f}s")


def test_c02_decrement_identities():
    gen = np.random.default_rng(102)
    rng = RngState(102)
    models = _random_models(gen, 8)
    N = 16
    worst = 0.0
    for t in range(200):
        model = models[t % len(models)]
        x = gen.standard_normal(N)
        op = build_operator(N, (1, N // 4, N // 2, N)[t % 4], rng)
        step = coarse_direction(galerkin_system(model, x, op), op)
        g = model.gradient(x)
        H = model.hessian(x)
        d_newton = newton_direction(model, x).d
        e1 = -float(g @ step.d_hat)
        e2 = float(step.d_hat @ H @ step.d_hat)
        e3 = float(step.d_hat @ H @ d_newton)
        scale = max(abs(e1), abs(e2), abs(e3), 1e-30)
        worst = max(worst, abs(e1 - e2) / scale, abs(e1 - e3) / scale)
    report(2, worst <= 1e-8, f"three lambda_hat^2 expressions, worst rel gap {worst:.2e}")


def test_c03_norm_identity():
    gen = np.random.default_rng(103)
    rng = RngState(103)
    models = _random_models(gen, 8, m=30, N=12)
    N = 12
    worst_rel, worst_excess = 0.0, -np.inf
    for t in range(200):
        model = models[t % len(models)]
        x = gen.standard_normal(N)
        op = build_operator(N, (1, N // 4, N // 2)[t % 3], rng)
        step = coarse_direction(galerkin_system(model, x, op), op)
        nd = newton_direction(model, x)
        vals, vecs = np.linalg.eigh(model.hessian(x))
        H_sqrt = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T
        lhs = float(np.linalg.norm(H_sqrt @ (step.d_hat - nd.d)))
        rhs = float(np.sqrt(max(nd.lam**2 - step.lambda_hat**2, 0.0)))
        worst_rel = max(worst_rel, abs(lhs - rhs) / max(rhs, 1e-9))
        worst_excess = max(worst_excess, lhs - nd.lam)
    report(3, worst_rel <= 1e-7 and worst_excess <= 1e-9,
           f"||H^1/2 (d_hat - d)|| identity rel {worst_rel:.2e}, max excess over lambda "
           f"{worst_excess:.2e}")


def test_c04_full_operator_equals_newton():
    gen = np.random.default_rng(104)
    models = _random_models(gen, 8, m=30, N=14)
    worst = 0.0
    for t in range(50):
        model = models[t % len(models)]
        x = gen.standard_normal(14)
        op = full_operator(14)
        step = coarse_direction(galerkin_system(model, x, op), op)
        nd = newton_direction(model, x)
        worst = max(worst, float(np.max(np.abs(step.d_hat - nd.d))))
    report(4, worst <= 1e-10, f"n=N direction gap (inf-norm) {worst:.2e} over 50 instances")


@pytest.fixture(scope="module")
def poisson_instance():
    model, x_true = positive_poisson_instance(m=200, N=50, seed=77)
    return model, feasible_start(model)


def test_c05_unit_step_region(poisson_instance):
    model, x0 = poisson_instance
    res = sigma_solve(model, x0, SigmaConfig(n=25, epsilon=1e-12, max_iter=400, seed=3,
                                             alpha=0.25))
    qualifying = [r for r in res.trace[:-1] if r.lambda_hat <= 0.25]
    bad = [r for r in qualifying if r.step != 1.0 or r.backtracks != 0]
    report(5, len(qualifying) > 0 and not bad,
           f"{len(qualifying)} iterations with lambda_hat <= 0.25, {len(bad)} rejected t=1")


def test_c06_coarse_quadratic_contraction(poisson_instance):
    model, x0 = poisson_instance
    pairs = []
    for seed in (3, 4, 5, 6, 7):
        res = sigma_solve(model, x0, SigmaConfig(n=25, epsilon=1e-12, max_iter=400,
                                                 seed=seed, freeze_operator=True))
        tr = res.trace
        pairs += [(tr[k].lambda_hat, tr[k + 1].lambda_hat) for k in range(len(tr) - 1)
                  if tr[k].step == 1.0 and tr[k].lambda_hat < 0.3]
    viol = [(a, b) for a, b in pairs if b > 1.05 * (a / (1.0 - a)) ** 2]
    report(6, len(pairs) >= 5 and not viol,
           f"{len(pairs)} unit-step pairs with lambda_hat < 0.3, {len(viol)} above "
           f"1.05 (x/(1-x))^2")


def test_c07_damped_phase_decrease(poisson_instance):
    model, x0 = poisson_instance
    eta = eta_region(0.0)
    checked, viol = 0, 0
    runs = [sigma_solve(model, x0, SigmaConfig(n=25, epsilon=1e-12, max_iter=400, seed=s))
            for s in (3, 11)]
    gen = np.random.default_rng(7)
    A = gen.standard_normal((100, 40))
    gauss = make_objective("gaussian", Dataset(A, gen.standard_normal(100)))
    runs.append(sigma_solve(gauss, np.zeros(40),
                            SigmaConfig(n=20, epsilon=1e-12, max_iter=400, seed=5)))
    for res in runs:
        tr = res.trace
        for k in range(len(tr) - 1):
            r = tr[k]
            if r.direction == "coarse" and r.step > 0 and r.lambda_hat > eta:
                checked += 1
                bound = 0.25 * 0.5 * r.lambda_hat**2 / (1.0 + r.lambda_hat) - 1e-10
                if tr[k].f - tr[k + 1].f < bound:
                    viol += 1
    report(7, checked > 0 and viol == 0,
           f"{checked} coarse steps with lambda_hat > eta, {viol} below the Armijo bound")


def test_c08_eta_formula():
    v0 = eta_region(0.0)
    exact = (3.0 - np.sqrt(5.0)) / 2.0
    grid = [eta_region(e) for e in np.linspace(0.0, 1.0, 100)]
    monotone = all(b < a for a, b in zip(grid, grid[1:]))
    ok = abs(v0 - exact) <= 1e-12 and monotone
    report(8, ok, f"eta(0) = {v0:.12f} (target {exact:.12f}), monotone on 100-point grid: "
                  f"{monotone}")


def _gap_study_run(p, solver_seed, max_iter, data_seed=2):
    A = svd_gap_matrix(SvdGapSpec(m=400, N=200, p=p, gap=100.0, seed=data_seed),
                       RngState(data_seed))
    b, x_true = synth_labels(A, LabelSpec("poisson", seed=data_seed + 1),
                             RngState(data_seed + 1))
    model = make_objective("poisson", Dataset(A, b), Regularization(xi2=1e-6))
    cfg = SigmaConfig(n=100, epsilon=1e-16, max_iter=max_iter, max_seconds=60.0,
                      seed=solver_seed)
    res = sigma_solve(model, x_true, cfg)
    for k, r in enumerate(res.trace):
        if r.grad_norm <= 1e-6:
            return k
    return None


def test_c09_eigenvalue_gap_study():
    # data seed 2 is the first whose Haar column span meets the positive
    # orthant (the domain is empty for roughly half the draws at m = 2N);
    # solver seeds 1..5 supply the randomness under study. The time bound is
    # on this process's CPU time over all its threads, which catches a slow
    # solver but not another process sharing the cores
    started = time.process_time()
    fast = [_gap_study_run(40, s, max_iter=3000) for s in (1, 2, 3, 4, 5)]
    ok_fast = all(h is not None for h in fast)
    median_fast = float(np.median([h for h in fast if h is not None])) if ok_fast else np.inf
    cap = int(2 * median_fast) if ok_fast else 0
    slow = [_gap_study_run(160, s, max_iter=cap) for s in (1, 2, 3, 4, 5)] if ok_fast else []
    # runs that never reach the tolerance within the cap are censored at cap,
    # which only understates the slow median
    slow_censored = [h if h is not None else cap for h in slow]
    median_slow = float(np.median(slow_censored)) if slow_censored else 0.0
    elapsed = time.process_time() - started
    ok = ok_fast and median_fast <= 0.5 * median_slow and elapsed < 120.0
    report(9, ok, f"median iters to 1e-6: p=0.2N -> {median_fast:g}, p=0.8N -> "
                  f">={median_slow:g} (censored at {cap}), {elapsed:.0f}s CPU")


def test_c10_small_m_large_N_regime():
    wins = 0
    for seed in (1, 2, 3):
        A = svd_gap_matrix(SvdGapSpec(m=50, N=2000, p=10, gap=100.0, seed=seed),
                           RngState(seed))
        b, _ = synth_labels(A, LabelSpec("gaussian", sigma_noise=0.01, seed=seed + 100),
                            RngState(seed + 100))
        model = make_objective("gaussian", Dataset(A, b), Regularization(xi2=1e-6))
        sig = sigma_solve(model, np.zeros(2000),
                          SigmaConfig(n=200, epsilon=1e-22, max_iter=500, max_seconds=60.0,
                                      seed=seed))
        gd = baseline_solve(model, np.zeros(2000),
                            BaselineConfig(method="gd", epsilon=1e-22, max_iter=500,
                                           max_seconds=60.0, seed=seed))
        sig_best = min(r.grad_norm for r in sig.trace)
        gd_final = gd.trace[-1].grad_norm
        if sig_best <= 1e-8 and gd_final >= 100.0 * sig_best:
            wins += 1
    report(10, wins == 3, f"{wins}/3 seeds: multilevel solver <= 1e-8 while GD stays >= 100x")


def test_c11_suboptimality_bounds_on_quadratics():
    gen = np.random.default_rng(111)
    rng = RngState(111)
    lower_viol, upper_viol, upper_checked = 0, 0, 0
    hat_upper_log = 0
    for t in range(100):
        A = gen.standard_normal((30, 10))
        b = gen.standard_normal(30)
        model = make_objective("gaussian", Dataset(A, b))
        x_star = np.linalg.solve(A.T @ A, A.T @ b)
        f_star = model.evaluate(x_star)
        scale = 0.05 if t % 2 else 2.0
        x = x_star + scale * gen.standard_normal(10)
        gap = model.evaluate(x) - f_star
        op = build_operator(10, (1, 3, 5, 10)[t % 4], rng)
        lam_hat = coarse_direction(galerkin_system(model, x, op), op).lambda_hat
        lam = newton_direction(model, x).lam
        if omega(lam_hat) > gap + 1e-10:
            lower_viol += 1
        if lam <= 0.68:
            upper_checked += 1
            if gap > lam * lam + 1e-10:
                upper_viol += 1
        # logged, not asserted: the approximate-decrement upper bound
        if lam_hat <= 0.68 and gap > lam_hat * lam_hat + 1e-10:
            hat_upper_log += 1
    ok = lower_viol == 0 and upper_viol == 0 and upper_checked > 10
    report(11, ok, f"omega(lambda_hat) lower bound viol {lower_viol}, lambda^2 upper bound "
                   f"viol {upper_viol}/{upper_checked}; (log only) lambda_hat^2 upper bound "
                   f"exceeded {hat_upper_log} times")


def test_c12_derivative_correctness():
    gen = np.random.default_rng(112)
    regs = [Regularization(), Regularization(xi2=1e-3), Regularization(xi2=1e-3, xi1=1e-3)]
    worst_g, worst_h = 0.0, 0.0
    for kind in ("gaussian", "logistic", "poisson"):
        for reg in regs:
            if kind == "poisson":
                A = np.abs(gen.standard_normal((25, 6))) + 0.1
                b, _ = synth_labels(A, LabelSpec("poisson", seed=9), RngState(9))
                model = make_objective(kind, Dataset(A, b), reg)
                x = feasible_start(model) + 0.05 * gen.standard_normal(6)
            else:
                A = gen.standard_normal((25, 6))
                b = (gen.standard_normal(25) if kind == "gaussian"
                     else np.where(gen.standard_normal(25) > 0, 1.0, -1.0))
                model = make_objective(kind, Dataset(A, b), reg)
                x = gen.standard_normal(6)
            g = model.gradient(x)
            rel_g = np.max(np.abs(g - fd_gradient(model.evaluate, x))) / max(1.0, np.max(np.abs(g)))
            H = model.hessian(x)
            rel_h = np.max(np.abs(H - fd_hessian(model.gradient, x))) / max(1.0, np.max(np.abs(H)))
            worst_g, worst_h = max(worst_g, rel_g), max(worst_h, rel_h)
    report(12, worst_g <= 1e-5 and worst_h <= 1e-4,
           f"FD gradient rel {worst_g:.2e} (tol 1e-5), FD Hessian rel {worst_h:.2e} (tol 1e-4)")


def test_c13_nystrom_psd_order():
    gen = np.random.default_rng(113)
    rng = RngState(113)
    worst = np.inf
    for _ in range(100):
        n_dim = int(gen.integers(5, 20))
        M = gen.standard_normal((n_dim, n_dim))
        H = M.T @ M + np.eye(n_dim)
        op = build_operator(n_dim, int(gen.integers(1, n_dim + 1)), rng)
        resid = H - nystrom_approximation(H, op)
        worst = min(worst, float(np.linalg.eigvalsh(resid).min()))
    report(13, worst >= -1e-8, f"min eigenvalue of H - H_n over 100 SPD draws: {worst:.2e}")


def test_c14_cli_determinism(tmp_path):
    runner = CliRunner()
    args = ["solve", "--model", "gaussian", "--data", "synthetic", "--m", "60", "--N", "30",
            "--p", "6", "--n", "15", "--seed", "1", "--xi2", "1e-6", "--epsilon", "1e-10",
            "--max-iter", "300"]
    r1 = runner.invoke(cli, args + ["--out", str(tmp_path / "a")])
    r2 = runner.invoke(cli, args + ["--out", str(tmp_path / "b")])

    def strip(path):
        rows = []
        for line in path.read_text().strip().splitlines():
            cells = line.split(",")
            del cells[1]
            rows.append(",".join(cells))
        return "\n".join(rows)

    same = strip(tmp_path / "a" / "trace.csv") == strip(tmp_path / "b" / "trace.csv")
    report(14, r1.exit_code == 0 and r2.exit_code == 0 and same,
           f"exit codes ({r1.exit_code}, {r2.exit_code}), traces identical modulo elapsed_s: "
           f"{same}")


def test_c15_subsampled_solver():
    # (a) sampling all rows reproduces the standard direction sequence
    A = svd_gap_matrix(SvdGapSpec(m=60, N=30, p=6, gap=50.0, seed=9), RngState(9))
    b, _ = synth_labels(A, LabelSpec("logistic", sigma_noise=0.3, seed=10), RngState(10))
    model = make_objective("logistic", Dataset(A, b), Regularization(xi2=1e-4))
    cfg = SigmaConfig(n=10, epsilon=1e-12, max_iter=300, seed=4)
    r_std = sigma_solve(model, np.zeros(30), cfg)
    r_all = sigma_solve(model, np.zeros(30), dataclasses.replace(cfg, row_sample=60))
    seq_gap = max(
        float(np.max(np.abs(r_std.x_final - r_all.x_final))),
        max(abs(a.lambda_hat - c.lambda_hat) for a, c in zip(r_std.trace, r_all.trace)),
        max(abs(a.f - c.f) for a, c in zip(r_std.trace, r_all.trace)),
    )
    # (b) half the rows on an m >> n logistic synthetic still converges
    converged = 0
    for seed in (1, 2, 3):
        A = svd_gap_matrix(SvdGapSpec(m=600, N=60, p=12, gap=100.0, seed=seed + 20),
                           RngState(seed + 20))
        b, _ = synth_labels(A, LabelSpec("logistic", sigma_noise=0.3, seed=seed + 40),
                            RngState(seed + 40))
        model = make_objective("logistic", Dataset(A, b), Regularization(xi2=1e-4))
        res = sigma_solve(model, np.zeros(60),
                          SigmaConfig(n=20, epsilon=1e-16, max_iter=1500, row_sample=300,
                                      seed=seed))
        if min(r.grad_norm for r in res.trace) <= 1e-6:
            converged += 1
    report(15, seq_gap <= 1e-12 and converged == 3,
           f"full row sample gap {seq_gap:.2e} (tol 1e-12); half-sample converged "
           f"{converged}/3 seeds")

"""The benchmark's workloads, the checks on their outputs, and their metrics.

Three workloads solve synthetic GLM instances through the library API; the
fourth runs the ``sigma-opt bench`` CLI as a subprocess on a libsvm file.
Every solve is checked: it converges within the iteration cap, its final full
gradient norm is under the workload's bound, and its objective trace never
rises by more than rounding.
"""

import csv
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sigma_opt import data, objectives, solver
from sigma_opt.rng import RngState

import tracer as tracing

GAP = 100.0
# Solver traces on these workloads rise by at most ~5e-14 |f| from rounding; an accepted
# ascent step rises by orders of magnitude more.
F_RISE_SLACK = 1e-11
MIN_ATTEMPTS = 3  # set-up and solve repeats per run, for medians
MEM_ITERS = 20  # solver iterations under tracemalloc
GAUSSIAN_INSTANCES = 8
SOLVE_TIMEOUT_S = 60.0
CLI_TIMEOUT_S = 100.0


@dataclass(frozen=True)
class Spec:
    """One synthetic GLM family and the solve it gets."""

    kind: str
    m: int
    N: int
    p: int
    noise: float
    xi2: float
    n: int
    epsilon: float
    max_iter: int
    grad_bound: float
    from_x_true: bool  # start at the ground truth (Poisson) or at zero


@dataclass(frozen=True)
class Instance:
    data_seed: int
    label_seed: int
    solver_seed: int


POISSON_SMALL = Spec("poisson", 400, 200, 40, 0.0, 1e-6, 100, 1e-16, 3000, 1e-5, True)
LOGISTIC_TALL = Spec("logistic", 4000, 2000, 200, 1.0, 1e-4, 200, 1e-4, 300, 1e-2, False)
GAUSSIAN_WIDE = Spec("gaussian", 50, 2000, 10, 0.01, 1e-6, 200, 1e-22, 1000, 1e-10, False)
CLI_LIBSVM = Spec("logistic", 2000, 500, 50, 1.0, 1e-4, 100, 1e-10, 200, 1e-4, False)
CLI_SOLVERS = ("sigma", "newton", "subnewton", "newsamp")


def poisson_instances(seed):
    # The acceptance-c09 draw. About half the data seeds at 400 x 200 have no
    # positive-margin ground truth, and several feasible ones do not reach
    # 1e-16 in 6000 iterations, so the data is fixed and the seed drives the
    # solver's operator sampling.
    return [Instance(2, 3, seed)]


def logistic_instances(seed):
    return [Instance(seed, seed + 1, seed)]


def gaussian_instances(seed):
    first = GAUSSIAN_INSTANCES * seed
    return [Instance(d, d + 100, d) for d in range(first, first + GAUSSIAN_INSTANCES)]


LIBRARY = {
    "poisson-small": (POISSON_SMALL, poisson_instances),
    "logistic-tall": (LOGISTIC_TALL, logistic_instances),
    "gaussian-wide": (GAUSSIAN_WIDE, gaussian_instances),
}


def synth(spec, inst):
    A = data.svd_gap_matrix(data.SvdGapSpec(spec.m, spec.N, spec.p, GAP, inst.data_seed),
                            RngState(inst.data_seed))
    b, x_true = data.synth_labels(
        A, data.LabelSpec(spec.kind, spec.noise, inst.label_seed), RngState(inst.label_seed))
    return A, b, x_true


def ready(spec, A, b, x_true):
    model = objectives.make_objective(
        spec.kind, objectives.Dataset(A, b), objectives.Regularization(xi2=spec.xi2))
    x0 = x_true if spec.from_x_true else np.zeros(spec.N)
    return model, x0


def config(spec, inst, max_iter=None):
    return solver.SigmaConfig(n=spec.n, epsilon=spec.epsilon,
                              max_iter=spec.max_iter if max_iter is None else max_iter,
                              max_seconds=SOLVE_TIMEOUT_S, seed=inst.solver_seed)


def check(status, iterations, grad_norm, f, spec):
    """Problems with one solve's output; empty when it passes."""
    problems = []
    if status != "converged":
        problems.append(f"status {status}")
    if iterations > spec.max_iter:
        problems.append(f"{iterations} iterations > cap {spec.max_iter}")
    if not grad_norm <= spec.grad_bound:
        problems.append(f"final gradient norm {grad_norm:.3e} > {spec.grad_bound:g}")
    f = np.asarray(f, dtype=np.float64)
    if not np.all(np.isfinite(f)):
        problems.append("objective is not finite")
    else:
        rise = np.diff(f) - F_RISE_SLACK * np.maximum(np.abs(f[:-1]), np.abs(f[1:]))
        if np.any(rise > 0):
            problems.append(f"objective rises at {int(np.count_nonzero(rise > 0))} steps")
    return problems


def check_result(model, result, spec):
    grad_norm = float(np.linalg.norm(model.gradient(result.x_final)))
    return check(result.status, result.iterations, grad_norm, [r.f for r in result.trace], spec)


def iter_ms(elapsed):
    return list(np.diff(np.asarray(elapsed, dtype=np.float64)) * 1e3)


class Tally:
    """Solves attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    @property
    def failed(self):
        return len(self.problems)

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: {'; '.join(problems)}")
        return not problems


def _solve_checked(spec, model, x0, inst, tally, label):
    """Timed solve; returns (result, seconds) or (None, seconds) on failure."""
    t0 = time.perf_counter()
    try:
        result = solver.sigma_solve(model, x0, config(spec, inst))
    except Exception as exc:  # a failed solve is counted, the run goes on
        tally.add(label, [f"{type(exc).__name__}: {exc}"])
        return None, time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    ok = tally.add(label, check_result(model, result, spec))
    return (result if ok else None), seconds


def _mem_peak_mb(spec, inst, inputs):
    """Peak tracemalloc bytes from Dataset construction through MEM_ITERS solver
    iterations. Tracing allocations doubles the solve time of small instances,
    so this pass is short and separate from the timed solves; the peak per
    iteration is reached in the first iterations."""
    tracemalloc.start()
    try:
        model, x0 = ready(spec, *inputs)
        solver.sigma_solve(model, x0, config(spec, inst, max_iter=MEM_ITERS))
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def end_to_end(setup, solve, iters, per_iter, rss, mem, wall, tally):
    """The end-to-end metrics from one run's samples (seconds, iteration counts,
    per-iteration milliseconds, MB)."""
    return {
        "setup_s": (_median(setup), "s"),
        "time_to_tol_s": (_median(solve), "s"),
        "iters_to_tol": (_median(iters), "count"),
        "iter_ms_p50": (_percentile(per_iter, 50), "ms"),
        "iter_ms_p90": (_percentile(per_iter, 90), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "solve_mem_mb": (mem, "MB"),
        "wall_s": (_median(wall), "s"),
        "solved_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }


def run_library(name, seed, seconds):
    """Untraced run: set up and solve at least MIN_ATTEMPTS times (and every
    instance once) and until ``seconds`` have passed."""
    spec, make = LIBRARY[name]
    instances = make(seed)
    tally = Tally()
    setup, solve, wall, per_iter, iters = [], [], [], [], []
    started = time.perf_counter()
    k = 0
    while k < max(MIN_ATTEMPTS, len(instances)) or time.perf_counter() - started < seconds:
        inst = instances[k % len(instances)]
        t0 = time.perf_counter()
        inputs = synth(spec, inst)
        model, x0 = ready(spec, *inputs)
        t1 = time.perf_counter()
        result, seconds_solve = _solve_checked(spec, model, x0, inst, tally, f"attempt {k}")
        setup.append(t1 - t0)
        if k == 0:
            mem_mb = _mem_peak_mb(spec, inst, inputs)
        del inputs, model, x0
        if result is not None:
            solve.append(seconds_solve)
            wall.append(t1 - t0 + seconds_solve)
            per_iter += iter_ms([r.elapsed_s for r in result.trace])
            if k < len(instances):
                iters.append(result.iterations)
        k += 1
    metrics = end_to_end(setup, solve, iters, per_iter, rss_mb(), mem_mb, wall, tally)
    info = {"instances": [vars(i) for i in instances], "attempts": k,
            "iter_samples": len(per_iter), "solves_timed": len(solve)}
    return metrics, tally, info


def trace_library(name, seed, seconds, spans_path):
    """Traced run: alternate untraced and traced solves of the first instance
    until ``seconds`` have passed; layer metrics come from the traced ones."""
    spec, make = LIBRARY[name]
    inst = make(seed)[0]
    tracer = tracing.Tracer()
    with tracer.installed():
        A, b, x_true = synth(spec, inst)
    model, x0 = ready(spec, A, b, x_true)
    tally = Tally()
    plain_ms, traced_ms, traced = [], [], []
    started = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - started < seconds:
        if k % 2:
            with tracer.installed():
                result, _ = _solve_checked(spec, model, x0, inst, tally, f"traced solve {k}")
            if result is not None:
                traced.append(result)
                traced_ms += iter_ms([r.elapsed_s for r in result.trace])
        else:
            result, _ = _solve_checked(spec, model, x0, inst, tally, f"solve {k}")
            if result is not None:
                plain_ms += iter_ms([r.elapsed_s for r in result.trace])
        k += 1
    tracer.write(spans_path)
    inside, everywhere, root_s = tracing.aggregate(tracer.spans, ("solver.sigma_solve",))
    iterations = sum(r.iterations for r in traced)
    backtracks = sum(r.backtracks for res in traced for r in res.trace)
    metrics = layer_metrics(inside, everywhere, root_s, iterations, backtracks,
                            spec.m * spec.N, traced_ms, plain_ms)
    info = {"instance": vars(inst), "traced_solves": len(traced),
            "traced_iterations": iterations, "spans": len(tracer.spans)}
    return metrics, tally, info


# ---------------------------------------------------------------------------
# the CLI workload


def cli_args(path, out, seed):
    return ["bench", "--model", "logistic", "--data", str(path),
            "--solvers", ",".join(CLI_SOLVERS), "--n", str(CLI_LIBSVM.n),
            "--xi2", repr(CLI_LIBSVM.xi2), "--epsilon", repr(CLI_LIBSVM.epsilon),
            "--max-iter", str(CLI_LIBSVM.max_iter), "--seed", str(seed), "--out", str(out)]


def _run_cli(command, src, out, tally, label):
    """One ``sigma-opt bench`` subprocess, with every solver's output checked.

    Returns (wall seconds, sigma summary with its trace's ``elapsed`` column or
    None when a solver failed, iterations and backtracks over all solvers).
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    failed_before = tally.failed
    iterations = backtracks = 0
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        error = None if proc.returncode == 0 else f"exit code {proc.returncode}: {proc.stderr[-300:]}"
    except subprocess.TimeoutExpired:
        error = f"no exit within {CLI_TIMEOUT_S:g} s"
    wall = time.perf_counter() - t0
    summary_path = out / "bench_summary.json"
    if error or not summary_path.exists():
        for solver_name in CLI_SOLVERS:
            tally.add(f"{label} {solver_name}", [error or "no bench_summary.json"])
        return wall, None, iterations, backtracks
    summaries = {s["solver"]: s for s in json.loads(summary_path.read_text())}
    sigma = None
    for solver_name in CLI_SOLVERS:
        s = summaries.get(solver_name)
        if s is None or "trace" not in s:
            tally.add(f"{label} {solver_name}", [s["message"] if s else "missing from summary"])
            continue
        with open(out / s["trace"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        problems = check(s["status"], s["iterations"], float(s["final_grad_norm"]),
                         [float(r["f"]) for r in rows], CLI_LIBSVM)
        iterations += s["iterations"]
        backtracks += sum(int(r["backtracks"]) for r in rows)
        if tally.add(f"{label} {solver_name}", problems) and solver_name == "sigma":
            sigma = dict(s, elapsed=[float(r["elapsed_s"]) for r in rows])
    return wall, (sigma if tally.failed == failed_before else None), iterations, backtracks


def _write_cli_input(seed, path):
    inst = Instance(seed, seed + 1, seed)
    A, b, _ = synth(CLI_LIBSVM, inst)
    data.write_libsvm(objectives.Dataset(A, b), path)


def _cli_setup(path):
    """From the libsvm file to a ready model, as the CLI does per solver."""
    t0 = time.perf_counter()
    ds = data.load_libsvm(path)
    model = objectives.make_objective("logistic", ds, objectives.Regularization(xi2=CLI_LIBSVM.xi2))
    objectives.feasible_start(model)
    return time.perf_counter() - t0, ds


def run_cli(seed, seconds, src, out):
    """Untraced run: write the file, parse it MIN_ATTEMPTS times, then run the
    CLI at least once and until ``seconds`` have passed."""
    path = out / "data.libsvm"
    _write_cli_input(seed, path)
    setup = []
    for _ in range(MIN_ATTEMPTS):
        seconds_setup, ds = _cli_setup(path)
        setup.append(seconds_setup)
    mem_mb = _mem_peak_mb(CLI_LIBSVM, Instance(seed, seed, seed), (ds.A, ds.b, None))
    del ds
    tally = Tally()
    wall, solve, iters, per_iter = [], [], [], []
    started = time.perf_counter()
    k = 0
    while k < 1 or time.perf_counter() - started < seconds:
        bench_out = out / f"bench_{k}"
        command = [sys.executable, "-m", "sigma_opt", *cli_args(path, bench_out, seed)]
        seconds_wall, sigma, _, _ = _run_cli(command, src, bench_out, tally, f"run {k}")
        if sigma is not None:
            wall.append(seconds_wall)
            solve.append(sigma["elapsed_s"])
            iters.append(sigma["iterations"])
            per_iter += iter_ms(sigma["elapsed"])
        k += 1
    metrics = end_to_end(setup, solve, iters, per_iter, rss_mb(resource.RUSAGE_CHILDREN), mem_mb,
                         wall, tally)
    info = {"cli_runs": k, "iter_samples": len(per_iter), "file_bytes": path.stat().st_size}
    return metrics, tally, info


def trace_cli(seed, src, out, spans_path):
    """Traced run: one untraced CLI run for the overhead baseline, then one
    under perfbench/cli_traced.py, which records spans in the subprocess."""
    path = out / "data.libsvm"
    _write_cli_input(seed, path)
    tally = Tally()
    plain = out / "bench_plain"
    _, sigma_plain, _, _ = _run_cli(
        [sys.executable, "-m", "sigma_opt", *cli_args(path, plain, seed)], src, plain, tally,
        "untraced")
    traced = out / "bench_traced"
    script = Path(__file__).resolve().parent / "cli_traced.py"
    _, sigma_traced, iterations, backtracks = _run_cli(
        [sys.executable, str(script), str(spans_path), *cli_args(path, traced, seed)],
        src, traced, tally, "traced")
    spans = tracing.read_spans(spans_path) if spans_path.exists() else []
    inside, everywhere, root_s = tracing.aggregate(
        spans, ("solver.sigma_solve", "baselines.baseline_solve"))
    metrics = layer_metrics(
        inside, everywhere, root_s, iterations, backtracks, CLI_LIBSVM.m * CLI_LIBSVM.N,
        iter_ms(sigma_traced["elapsed"]) if sigma_traced else [],
        iter_ms(sigma_plain["elapsed"]) if sigma_plain else [])
    return metrics, tally, {"traced_iterations": iterations, "spans": len(spans)}


# ---------------------------------------------------------------------------
# per-layer metrics

SELF_MS = (
    "objectives.predict", "objectives.gradient", "objectives.evaluate",
    "objectives.reduced_gradient", "objectives.reduced_hessian", "objectives.hessian",
    "objectives.Ray.init", "objectives.Ray.delta", "kernels.glm_terms", "kernels.gram_gather",
    "core.spd_solve", "core.cho_factor", "core.sample_without_replacement",
    "rng.RngState.child", "coarse.build_operator", "coarse.galerkin_system",
    "coarse.coarse_direction", "coarse.newton_direction", "baselines.newsamp_hessian",
    "baselines.baseline_solve", "solver.sigma_solve", "solver.armijo_search",
    "solver.poisson_feasible_step",
)
CALLS = ("objectives.predict", "objectives.gradient", "objectives.Ray.delta",
         "kernels.glm_terms", "rng.RngState.child")
BASELINES = ("newton", "subnewton", "newsamp")


def layer_metrics(inside, everywhere, root_s, iterations, backtracks, mn, traced_ms, plain_ms):
    """Per-layer metrics from aggregated spans.

    ``*_per_iter`` figures cover the spans inside the solves and divide by the
    solves' total iterations; ``*.s`` figures are totals over the traced run.
    Counts labelled ``computed`` come from array sizes, not from measurement.
    """
    per_iter = 1.0 / max(iterations, 1)

    def row(table, name):
        if name == "baselines.baseline_solve":
            rows = [r for n, r in table.items() if n.startswith(name + ".")]
            return [sum(r[i] for r in rows) for i in range(4)] if rows else [0, 0.0, 0.0, 0.0]
        return table.get(name, [0, 0.0, 0.0, 0.0])

    out = {}
    for name in CALLS:
        out[f"{name}.calls_per_iter"] = (row(inside, name)[0] * per_iter, "count")
    for name in SELF_MS:
        out[f"{name}.self_ms_per_iter"] = (row(inside, name)[2] * 1e3 * per_iter, "ms")
    passes = (row(inside, "objectives.predict")[0] + row(inside, "objectives.gradient")[0]) * per_iter
    out["objectives.a_passes_per_iter"] = (passes, "count")
    out["objectives.bytes_per_iter_computed"] = (passes * 8.0 * mn / 1e6, "MB")
    for name, flops_name in (("kernels.gram_gather", "kernels.gram_gather"),
                             ("core.cho_factor", "core.cho_factor")):
        _, _, self_s, work = row(inside, name)
        out[f"{flops_name}.gflops_computed"] = (work * per_iter / 1e9, "GFLOP")
        out[f"{flops_name}.gflop_per_s"] = (work / 1e9 / self_s if self_s > 0 else 0.0, "GFLOP/s")
    out["core.spd_solve.shift_retries"] = (
        row(inside, "core.cho_factor")[0] - row(inside, "core.spd_solve")[0], "count")
    out["solver.backtracks_per_iter"] = (backtracks * per_iter, "count")
    delta_calls = row(inside, "objectives.Ray.delta")[0]
    out["solver.step_accept_ratio"] = (iterations / delta_calls if delta_calls else 0.0, "ratio")
    for method in BASELINES:
        out[f"baselines.baseline_solve.{method}.s"] = (
            row(everywhere, f"baselines.baseline_solve.{method}")[1], "s")
    out["data.svd_gap_matrix.s"] = (row(everywhere, "data.svd_gap_matrix")[1], "s")
    out["data.synth_labels.s"] = (row(everywhere, "data.synth_labels")[1], "s")
    out["data.load_libsvm.s"] = (row(everywhere, "data.load_libsvm")[1], "s")
    out["data.load_libsvm.calls"] = (row(everywhere, "data.load_libsvm")[0], "count")
    out["cli.import_s"] = (row(everywhere, "cli.import")[1], "s")
    out["cli._build_dataset.calls"] = (row(everywhere, "cli._build_dataset")[0], "count")
    out["cli.write_trace.s"] = (row(everywhere, "cli.write_trace")[1], "s")
    accounted = sum(row(inside, name)[2] for name in SELF_MS)
    out["trace.ms_per_iter"] = (root_s * 1e3 * per_iter, "ms")
    out["trace.accounted_share"] = (accounted / root_s if root_s > 0 else 0.0, "ratio")
    traced_p50, plain_p50 = _percentile(traced_ms, 50), _percentile(plain_ms, 50)
    out["trace.iter_ms_p50"] = (traced_p50, "ms")
    out["trace.overhead_ratio"] = (traced_p50 / plain_p50 if plain_p50 > 0 else 0.0, "ratio")
    return out


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0

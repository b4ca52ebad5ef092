"""Command-line harness: run solves and benchmarks, generate synthetic data.

Subcommands
-----------
solve    one solver on one dataset -> trace.csv + summary.json
bench    several solvers (or a p-sweep) on one dataset -> per-solver traces,
         comparison.csv (the trace rows with a gradient norm), summary.md
datagen  synthetic dataset -> libsvm file + meta.json

Configuration comes from an optional YAML file (``--config``) plus flag
overrides; every effective parameter is echoed into summary.json so a run can
be reproduced exactly. Exit codes: 0 converged, 2 budget exhausted
(max-iter/timeout), 1 error.
"""

import json
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import click
import numpy as np
import yaml

from . import baselines, solver
from . import data as data_mod
from .baselines import METHODS, BaselineConfig
from .errors import NoFeasibleStart
from .objectives import (
    GAUSSIAN,
    KINDS,
    POISSON,
    Dataset,
    Regularization,
    feasible_start,
    make_objective,
    positive_margin_start,
)
from .rng import RngState
from .solver import CHECK_MODES, SigmaConfig

TRACE_HEADER = "iter,elapsed_s,f,grad_norm,lambda_hat,lambda,step,direction,backtracks"

SOLVERS = ("sigma",) + METHODS

# Every solve option and YAML key with its default. Solver and
# regularization defaults come from their dataclasses; SigmaConfig's
# row_sample is fed by the shared "rows" key.
_SOLVE_DEFAULTS = {
    "model": GAUSSIAN,
    "data": None,
    "label_column": "last",
    "n_features": None,
    "standardize": False,
    "m": 100,
    "N": 50,
    "p": 10,
    "gap": 100.0,
    "labels": None,
    "noise": 0.0,
    "solver": "sigma",
    "n": None,
    **{f.name: f.default for cls in (SigmaConfig, BaselineConfig) for f in fields(cls)
       if f.default is not MISSING and f.name != "row_sample"},
    "xi1": Regularization.xi1,
    "xi2": Regularization.xi2,
    "huber_c": Regularization.c,
    "out": "out",
}


def _fmt(v) -> str:
    return repr(float(v))


def write_trace(path, trace) -> None:
    """One CSV row per trace record; an unknown ``lambda`` or a ``grad_norm``
    that was not formed (NaN) is left blank."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace:
            lam = "" if r.lam is None else _fmt(r.lam)
            grad_norm = "" if np.isnan(r.grad_norm) else _fmt(r.grad_norm)
            fh.write(
                f"{r.iter},{_fmt(r.elapsed_s)},{_fmt(r.f)},{grad_norm},"
                f"{_fmt(r.lambda_hat)},{lam},{_fmt(r.step)},{r.direction},{r.backtracks}\n"
            )


def _merge_config(ctx, defaults: dict, config_path) -> dict:
    """defaults <- config file <- flags that were explicitly passed."""
    merged = dict(defaults)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise click.ClickException("config file must be a YAML mapping")
        unknown = set(loaded) - set(defaults) - {"solvers", "p_list"}
        if unknown:
            raise click.ClickException(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for name, value in ctx.params.items():
        src = ctx.get_parameter_source(name)
        if src is not None and src.name == "COMMANDLINE" and name in merged:
            merged[name] = value
    return merged


# the parameters _build_dataset reads
_DATASET_KEYS = ("data", "label_column", "n_features", "standardize", "m", "N", "p", "gap",
                 "labels", "model", "noise", "seed")


def _synthetic(m, N, p, gap, labels, noise, seed):
    """``(spec, A, b, x_true)`` of the generator; the labels draw from ``seed + 1``."""
    spec = data_mod.SvdGapSpec(m=m, N=N, p=p, gap=gap, seed=seed)
    lspec = data_mod.LabelSpec(kind=labels, sigma_noise=noise, seed=seed + 1)
    A = data_mod.svd_gap_matrix(spec, RngState(spec.seed))
    b, x_true = data_mod.synth_labels(A, lspec, RngState(lspec.seed))
    return spec, A, b, x_true


def _build_dataset(p: dict):
    """Returns (Dataset, x_true or None, data_meta dict)."""
    src = p["data"]
    if src is None:
        raise click.ClickException("--data is required (a file path or 'synthetic')")
    if src == "synthetic":
        label_kind = p["labels"] or p["model"]
        spec, A, b, x_true = _synthetic(p["m"], p["N"], p["p"], p["gap"], label_kind, p["noise"],
                                        p["seed"])
        meta = {"source": "synthetic", "m": spec.m, "N": spec.N, "p": spec.p,
                "gap": spec.gap, "labels": label_kind, "noise": p["noise"]}
        ds = Dataset(A, b)
    else:
        path = Path(src)
        if not path.exists():
            raise click.ClickException(f"data file not found: {path}")
        if path.suffix.lower() == ".csv":
            ds = data_mod.load_csv(path, label_column=p["label_column"])
        else:
            ds = data_mod.load_libsvm(path, n_features=p["n_features"])
        x_true, meta = None, {"source": str(path), "m": ds.m, "N": ds.N}
    if p["standardize"]:
        ds, _ = data_mod.standardize(ds)
        meta["standardize"] = True
    return ds, x_true, meta


def _build_model(p: dict, ds):
    reg = Regularization(xi2=p["xi2"], xi1=p["xi1"], c=p["huber_c"])
    return make_objective(p["model"], ds, reg)


def _resolve_x0(model, x_true):
    try:
        return feasible_start(model)
    except NoFeasibleStart:
        if x_true is not None and model.domain_status(x_true).feasible:
            return x_true
        return positive_margin_start(model.dataset)


def _run_one(p: dict, model, x0, name: str, seed: int):
    """Dispatch to the multilevel solver or a baseline; returns SolveResult."""
    if name == "sigma":
        n = p["n"] if p["n"] is not None else max(1, model.dataset.N // 2)
        cfg = _config(SigmaConfig, p, n=n, row_sample=p["rows"], seed=seed)
        return solver.sigma_solve(model, x0, cfg), cfg
    cfg = _config(BaselineConfig, p, method=name, seed=seed)
    return baselines.baseline_solve(model, x0, cfg), cfg


def _config(cls, p: dict, **fixed):
    """``cls`` from the effective parameters that are its fields, with ``fixed`` on top."""
    return cls(**{**{f.name: p[f.name] for f in fields(cls) if f.name in p}, **fixed})


def _summary_dict(result, model, effective: dict, cfg) -> dict:
    last = result.trace[-1] if result.trace else None
    out = {
        "status": result.status,
        "iterations": result.iterations,
        "message": result.message,
        "final_f": None if last is None else last.f,
        "final_grad_norm": None if last is None else last.grad_norm,
        "final_decrement_sq": (
            None if not np.isfinite(result.final_decrement_sq) else result.final_decrement_sq
        ),
        "elapsed_s": None if last is None else last.elapsed_s,
        "config": {k: (v if not isinstance(v, Path) else str(v)) for k, v in effective.items()},
        "solver_config": asdict(cfg),
    }
    if model.kind == POISSON and last is not None:
        out["final_grad_norm_unscaled"] = last.grad_norm / model.scale
        out["poisson_scale"] = model.scale
    return out


_STATUS_EXIT = {"converged": 0, "max_iter": 2, "timeout": 2, "error": 1}


def _add_solve_options(fn):
    # no click defaults: an option only counts when given (see _merge_config)
    opts = [
        click.option("--config", type=click.Path(exists=True),
                     help="YAML config; flags override it."),
        click.option("--model", type=click.Choice(KINDS)),
        click.option("--data", help="'synthetic' or a libsvm/csv path."),
        click.option("--label-column", "label_column"),
        click.option("--n-features", "n_features", type=int),
        click.option("--standardize", is_flag=True),
        click.option("--m", type=int),
        click.option("--N", "N", type=int),
        click.option("--p", type=int),
        click.option("--gap", type=float),
        click.option("--labels", type=click.Choice(KINDS),
                     help="Synthetic label kind (defaults to the model kind)."),
        click.option("--noise", type=float),
        click.option("--n", type=int, help="Coarse dimension (default N/2)."),
        click.option("--mu", type=float),
        click.option("--nu", type=float),
        click.option("--epsilon", type=float),
        click.option("--alpha", type=float),
        click.option("--beta", type=float),
        click.option("--zeta", type=float),
        click.option("--check-mode", "check_mode", type=click.Choice(CHECK_MODES)),
        click.option("--freeze-operator", "freeze_operator", is_flag=True),
        click.option("--rows", type=int,
                     help="Row-sample size (sub-sampled solver / subnewton / newsamp)."),
        click.option("--rank", type=int, help="NewSamp truncation rank."),
        click.option("--batch", type=int),
        click.option("--sgd-t", "sgd_t", type=float),
        click.option("--sgd-gamma", "sgd_gamma", type=float),
        click.option("--xi1", type=float),
        click.option("--xi2", type=float),
        click.option("--huber-c", "huber_c", type=float),
        click.option("--max-iter", "max_iter", type=int),
        click.option("--max-seconds", "max_seconds", type=float),
        click.option("--seed", type=int),
        click.option("--out", type=click.Path()),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
def cli():
    """Multilevel randomized Newton solver and benchmark harness."""


@cli.command()
@_add_solve_options
@click.option("--solver", type=click.Choice(SOLVERS))
@click.pass_context
def solve(ctx, config, **_kwargs):
    """Run one solver on one dataset; writes trace.csv and summary.json."""
    p = _merge_config(ctx, _SOLVE_DEFAULTS, config)
    try:
        ds, x_true, data_meta = _build_dataset(p)
        model = _build_model(p, ds)
        x0 = _resolve_x0(model, x_true)
        result, cfg = _run_one(p, model, x0, p["solver"], p["seed"])
    except click.ClickException:
        raise
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc
    out = Path(p["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_trace(out / "trace.csv", result.trace)
    summary = _summary_dict(result, model, {**p, "data_meta": data_meta}, cfg)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    click.echo(f"{p['solver']}: {result.status} after {result.iterations} iterations "
               f"-> {out / 'trace.csv'}")
    sys.exit(_STATUS_EXIT[result.status])


@cli.command()
@_add_solve_options
@click.option("--solvers", default="sigma,gd,newton",
              help="Comma-separated solver list (ignored when --p-list is given).")
@click.option("--p-list", "p_list", default=None,
              help="Comma-separated gap positions as fractions of N; runs the "
                   "multilevel solver once per value.")
@click.option("--gnuplot", is_flag=True, default=False, help="Also emit plot.gp.")
@click.pass_context
def bench(ctx, config, solvers, p_list, gnuplot, **_kwargs):
    """Compare solvers on one dataset; writes one trace per solver plus
    comparison.csv and summary.md. Each distinct dataset is built once."""
    defaults = {**_SOLVE_DEFAULTS, "solvers": solvers, "p_list": p_list}
    p = _merge_config(ctx, defaults, config)
    out = Path(p["out"])
    out.mkdir(parents=True, exist_ok=True)

    def _as_list(value, cast):
        if isinstance(value, (list, tuple)):
            return [cast(v) for v in value]
        return [cast(tok.strip()) for tok in str(value).split(",") if tok.strip()]

    entries = []  # (name, params dict)
    if p.get("p_list"):
        for frac in _as_list(p["p_list"], float):
            gap_pos = max(1, min(p["N"], round(frac * p["N"])))
            entries.append((f"sigma[p={frac:g}N]", {**p, "p": gap_pos, "solver": "sigma"}))
    else:
        for name in _as_list(p["solvers"], str):
            entries.append((name, {**p, "solver": name}))

    datasets = {}  # each distinct dataset is built (its file parsed) once
    rows, summaries, failures = [], [], 0
    for idx, (name, ep) in enumerate(entries):
        seed = ep["seed"] + idx
        key = tuple(ep[k] for k in _DATASET_KEYS)
        try:
            if key not in datasets:
                datasets[key] = _build_dataset(ep)
            ds, x_true, _ = datasets[key]
            model = _build_model(ep, ds)
            x0 = _resolve_x0(model, x_true)
            result, _cfg = _run_one(ep, model, x0, ep["solver"], seed)
        except Exception as exc:
            failures += 1
            summaries.append({"solver": name, "status": "error", "iterations": 0,
                              "final_f": "", "final_grad_norm": "", "elapsed_s": "",
                              "message": str(exc)})
            continue
        safe = name.replace("/", "_").replace("[", "_").replace("]", "").replace("=", "")
        write_trace(out / f"trace_{safe}.csv", result.trace)
        last = result.trace[-1]
        summaries.append({"solver": name, "status": result.status,
                          "iterations": result.iterations, "final_f": last.f,
                          "final_grad_norm": last.grad_norm, "elapsed_s": last.elapsed_s,
                          "message": result.message, "trace": f"trace_{safe}.csv"})
        # the rows whose gradient norm was formed
        rows += [(name, r.iter, r.elapsed_s, r.grad_norm, r.f) for r in result.trace
                 if np.isfinite(r.grad_norm)]

    with open(out / "comparison.csv", "w", encoding="utf-8") as fh:
        fh.write("solver,iter,elapsed_s,grad_norm,f\n")
        for name, it, el, gn, f in rows:
            fh.write(f"{name},{it},{_fmt(el)},{_fmt(gn)},{_fmt(f)}\n")

    lines = ["| solver | status | iterations | final f | final grad norm | elapsed s |",
             "|---|---|---|---|---|---|"]
    for s in summaries:
        lines.append(
            f"| {s['solver']} | {s['status']} | {s['iterations']} | {s['final_f']} "
            f"| {s['final_grad_norm']} | {s['elapsed_s']} |"
        )
    (out / "summary.md").write_text("\n".join(lines) + "\n")
    (out / "bench_summary.json").write_text(json.dumps(summaries, indent=2) + "\n")

    if gnuplot:
        traces = [s for s in summaries if "trace" in s]
        plot = ["set datafile separator ','", "set logscale y",
                "set xlabel 'seconds'", "set ylabel 'gradient norm'", "set key outside"]
        series = ", ".join(
            f"'{s['trace']}' using 2:4 skip 1 with linespoints title '{s['solver']}'"
            for s in traces
        )
        plot.append(f"plot {series}")
        (out / "plot.gp").write_text("\n".join(plot) + "\n")

    click.echo("\n".join(f"{s['solver']}: {s['status']}" for s in summaries))
    sys.exit(1 if entries and failures == len(entries) else 0)


@cli.command()
@click.option("--m", type=int, required=True)
@click.option("--N", "N", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--gap", type=float, default=100.0)
@click.option("--labels", type=click.Choice(KINDS), required=True)
@click.option("--noise", type=float, default=0.0)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), default="dataset")
def datagen(m, N, p, gap, labels, noise, seed, out, **_kwargs):
    """Generate a synthetic dataset; writes <out>/data.libsvm and meta.json."""
    try:
        spec, A, b, x_true = _synthetic(m, N, p, gap, labels, noise, seed)
    except Exception as exc:
        raise click.ClickException(str(exc)) from exc
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    data_mod.write_libsvm(Dataset(A, b), out / "data.libsvm")
    meta = data_mod.dataset_meta(A, spec)
    meta["labels"] = labels
    meta["noise"] = noise
    meta["x_true"] = x_true.tolist()
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    click.echo(f"wrote {out / 'data.libsvm'} ({m} x {N}) and meta.json")
    sys.exit(0)


def main():
    cli(prog_name="sigma-opt")


if __name__ == "__main__":
    main()

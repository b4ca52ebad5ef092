"""Command-line harness: run solves and benchmarks, generate synthetic data.

Subcommands
-----------
solve    one solver on one dataset -> trace.csv + summary.json
bench    several solvers (or a p-sweep) on one dataset -> per-solver traces,
         comparison.csv (the trace rows with a gradient norm), summary.md,
         bench_summary.json (summary.json's fields per solver)
datagen  synthetic dataset -> libsvm file + meta.json

Configuration comes from an optional YAML file (``--config``), checked like
flags, plus flag overrides; summary.json echoes every effective parameter of
the command so a run can be reproduced exactly. Exit codes: 0 converged,
2 budget exhausted (max-iter/timeout), 1 error (a rejected value too).
"""

import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import click
import numpy as np
import yaml

from . import baselines, solver
from . import data as data_mod
from .baselines import METHODS, BaselineConfig
from .objectives import (
    GAUSSIAN,
    KINDS,
    POISSON,
    Dataset,
    Regularization,
    feasible_start,
    make_objective,
)
from .rng import RngState
from .solver import CHECK_MODES, SigmaConfig, SolveConfig

TRACE_HEADER = "iter,elapsed_s,f,grad_norm,lambda_hat,lambda,step,direction,backtracks"
# a bench entry's name in its trace file name: "/" and "[" become "_", "]" and "=" go
_SAFE_NAME = str.maketrans({"/": "_", "[": "_", "]": None, "=": None})

SOLVERS = ("sigma",) + METHODS


def _fmt(v: float) -> str:
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


def _load_config(ctx, _param, path):
    """Eager ``--config`` callback: the YAML mapping becomes click's
    ``default_map``, so each value is converted and checked by its option's
    type and an explicit flag still overrides it. One file may hold the keys of
    both ``solve`` and ``bench``; a list value is joined with commas."""
    if path is None:
        return
    with open(path, "r", encoding="utf-8") as fh:
        loaded = yaml.safe_load(fh) or {}
    if not isinstance(loaded, dict):
        raise click.ClickException("config file must be a YAML mapping")
    known = {param.name for command in (solve, bench) for param in command.params} - {"config"}
    unknown = set(map(str, loaded)) - known
    if unknown:
        raise click.ClickException(f"unknown config keys: {sorted(unknown)}")
    ctx.default_map = {k: ",".join(map(str, v)) if isinstance(v, list) else v
                       for k, v in loaded.items()}


def _synthetic(m, N, p, gap, labels, noise, seed):
    """``(spec, A, b, x_true)`` of the generator; the labels draw from ``seed + 1``."""
    spec = data_mod.SvdGapSpec(m=m, N=N, p=p, gap=gap, seed=seed)
    lspec = data_mod.LabelSpec(kind=labels, sigma_noise=noise, seed=seed + 1)
    A = data_mod.svd_gap_matrix(spec, RngState(spec.seed))
    b, x_true = data_mod.synth_labels(A, lspec, RngState(lspec.seed))
    return spec, A, b, x_true


def _build_dataset(p: dict):
    """Returns (Dataset, x_true or None, data_meta dict)."""
    if p["standardize"] and p["model"] == POISSON:
        raise click.ClickException("--standardize cannot be combined with --model poisson: a "
                                   "column-centred A has 1^T A x = 0 for every x, so the "
                                   "domain {x : A x > 0} is empty")
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
        ds = data_mod.standardize(ds)
        meta["standardize"] = True
    return ds, x_true, meta


def _run(p: dict, ds, x_true, seed: int):
    """Build the model, pick a start and run ``p["solver"]`` (the multilevel
    solver or a baseline) on it; returns ``(model, SolveResult, config)``.
    A synthetic Poisson run starts at its ground truth when that point is
    feasible; every other run starts at :func:`feasible_start`."""
    reg = Regularization(xi2=p["xi2"], xi1=p["xi1"], c=p["huber_c"])
    model = make_objective(p["model"], ds, reg)
    if model.kind == POISSON and x_true is not None and model.predict(x_true).min() > 0:
        x0 = x_true
    else:
        x0 = feasible_start(model)
    if p["solver"] == "sigma":
        n = p["n"] if p["n"] is not None else max(1, ds.N // 2)
        cfg = _config(SigmaConfig, p, n=n, row_sample=p["rows"], seed=seed)
        return model, solver.sigma_solve(model, x0, cfg), cfg
    cfg = _config(BaselineConfig, p, method=p["solver"], seed=seed)
    return model, baselines.baseline_solve(model, x0, cfg), cfg


def _config(cls, p: dict, **fixed):
    """``cls`` from the effective parameters that are its fields, with ``fixed`` on top."""
    return cls(**{**{f.name: p[f.name] for f in fields(cls) if f.name in p}, **fixed})


def _summary_dict(result, model, effective: dict, cfg) -> dict:
    """A finished run's summary.json, also the body of its bench_summary.json entry."""
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
        "config": effective,
        "solver_config": asdict(cfg),
    }
    if model.kind == POISSON and last is not None:
        out["final_grad_norm_unscaled"] = last.grad_norm / model.scale
        out["poisson_scale"] = model.scale
    return out


_STATUS_EXIT = {"converged": 0, "max_iter": 2, "timeout": 2, "error": 1}


def _add_solve_options(fn):
    # SigmaConfig's row_sample is fed by the shared --rows
    opts = [
        click.option("--config", type=click.Path(exists=True), is_eager=True,
                     expose_value=False, callback=_load_config,
                     help="YAML config; flags override it."),
        click.option("--model", type=click.Choice(KINDS), default=GAUSSIAN),
        click.option("--data", help="'synthetic' or a libsvm/csv path."),
        click.option("--label-column", "label_column", default="last"),
        click.option("--n-features", "n_features", type=int),
        click.option("--standardize", is_flag=True),
        click.option("--m", type=int, default=100),
        click.option("--N", "N", type=int, default=50),
        click.option("--p", type=int, default=10),
        click.option("--gap", type=float, default=100.0),
        click.option("--labels", type=click.Choice(KINDS),
                     help="Synthetic label kind (defaults to the model kind)."),
        click.option("--noise", type=float, default=0.0),
        click.option("--n", type=int, help="Coarse dimension (default N/2)."),
        click.option("--mu", type=float, default=SigmaConfig.mu),
        click.option("--nu", type=float, default=SigmaConfig.nu),
        click.option("--epsilon", type=float, default=SolveConfig.epsilon),
        click.option("--alpha", type=float, default=SolveConfig.alpha),
        click.option("--beta", type=float, default=SolveConfig.beta),
        click.option("--zeta", type=float, default=SolveConfig.zeta),
        click.option("--check-mode", "check_mode", type=click.Choice(CHECK_MODES),
                     default=SigmaConfig.check_mode),
        click.option("--freeze-operator", "freeze_operator", is_flag=True,
                     default=SigmaConfig.freeze_operator),
        click.option("--rows", type=int, default=BaselineConfig.rows,
                     help="Row-sample size (sub-sampled solver / subnewton / newsamp)."),
        click.option("--rank", type=int, default=BaselineConfig.rank,
                     help="NewSamp truncation rank."),
        click.option("--batch", type=int, default=BaselineConfig.batch),
        click.option("--sgd-t", "sgd_t", type=float, default=BaselineConfig.sgd_t),
        click.option("--sgd-gamma", "sgd_gamma", type=float, default=BaselineConfig.sgd_gamma),
        click.option("--xi1", type=float, default=Regularization.xi1),
        click.option("--xi2", type=float, default=Regularization.xi2),
        click.option("--huber-c", "huber_c", type=float, default=Regularization.c),
        click.option("--max-iter", "max_iter", type=int, default=SolveConfig.max_iter),
        click.option("--max-seconds", "max_seconds", type=float,
                     default=SolveConfig.max_seconds),
        click.option("--seed", type=int, default=SolveConfig.seed),
        click.option("--out", type=click.Path(), default="out"),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
def cli():
    """Multilevel randomized Newton solver and benchmark harness."""


@cli.command()
@_add_solve_options
@click.option("--solver", type=click.Choice(SOLVERS), default="sigma")
def solve(**p):
    """Run one solver on one dataset; writes trace.csv and summary.json."""
    try:
        ds, x_true, data_meta = _build_dataset(p)
        model, result, cfg = _run(p, ds, x_true, p["seed"])
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
                   "multilevel solver once per value (--data synthetic only).")
def bench(**p):
    """Compare solvers on one dataset; writes one trace per solver plus
    comparison.csv, summary.md and bench_summary.json. Each distinct dataset
    is built once; two entries that would share a trace file are rejected."""
    if p["p_list"] and p["data"] != "synthetic":
        raise click.ClickException("--p-list needs --data synthetic: p sets the synthetic "
                                   "matrix's gap position and does nothing to file data")

    def _as_list(value, cast):
        return [cast(tok.strip()) for tok in value.split(",") if tok.strip()]

    entries = []  # (name, params dict)
    if p["p_list"]:
        for frac in _as_list(p["p_list"], float):
            gap_pos = max(1, min(p["N"], round(frac * p["N"])))
            entries.append((f"sigma[p={frac:g}N]", {**p, "p": gap_pos, "solver": "sigma"}))
    else:
        for name in _as_list(p["solvers"], str):
            entries.append((name, {**p, "solver": name}))
    traces = [f"trace_{name.translate(_SAFE_NAME)}.csv" for name, _ in entries]
    shared = [t for i, t in enumerate(traces) if t in traces[:i]]
    if shared:
        raise click.ClickException(f"two bench entries would write the same trace file "
                                   f"{shared[0]}; list each solver or --p-list value once")
    out = Path(p["out"])
    out.mkdir(parents=True, exist_ok=True)

    # the entries differ only in p and the solver: a dataset is built (its
    # file parsed) once per p
    datasets = {}
    rows, summaries, failures = [], [], 0
    for idx, ((name, ep), trace) in enumerate(zip(entries, traces)):
        try:
            if ep["p"] not in datasets:
                datasets[ep["p"]] = _build_dataset(ep)
            ds, x_true, data_meta = datasets[ep["p"]]
            model, result, cfg = _run(ep, ds, x_true, ep["seed"] + idx)
        except Exception as exc:
            failures += 1
            summaries.append({"solver": name, "status": "error", "iterations": 0,
                              "final_f": "", "final_grad_norm": "", "elapsed_s": "",
                              "message": str(exc)})
            continue
        write_trace(out / trace, result.trace)
        summaries.append({"solver": name, "trace": trace,
                          **_summary_dict(result, model, {**ep, "data_meta": data_meta}, cfg)})
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
def datagen(m, N, p, gap, labels, noise, seed, out):
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
    """The console script: a rejected flag or config value exits 1, like any
    other error, not click's usage code 2, which means a spent budget here."""
    try:
        code = cli.main(prog_name="sigma-opt", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.Abort:
        click.echo("Aborted!", err=True)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()

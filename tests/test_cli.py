import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from sigma_opt import (
    BaselineConfig,
    Dataset,
    Regularization,
    SigmaConfig,
    baseline_solve,
    feasible_start,
    load_libsvm,
    make_objective,
    write_libsvm,
)
from sigma_opt import data as data_mod
from sigma_opt.cli import TRACE_HEADER, cli
from sigma_opt.solver import EXACT_MARGINS_EVERY


@pytest.fixture()
def runner():
    return CliRunner()


def _solve_args(out, extra=()):
    return [
        "solve", "--model", "gaussian", "--data", "synthetic", "--m", "100", "--N", "50",
        "--p", "10", "--n", "25", "--seed", "1", "--xi2", "1e-6", "--epsilon", "1e-10",
        "--max-iter", "400", "--out", str(out), *extra,
    ]


def _strip_elapsed(text):
    rows = []
    for line in text.strip().splitlines():
        cells = line.split(",")
        del cells[1]  # elapsed_s
        rows.append(",".join(cells))
    return "\n".join(rows)


class TestSolve:
    def test_writes_outputs_and_converges(self, runner, tmp_path):
        res = runner.invoke(cli, _solve_args(tmp_path / "o"))
        assert res.exit_code == 0, res.output
        trace = (tmp_path / "o" / "trace.csv").read_text()
        assert trace.splitlines()[0] == TRACE_HEADER
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["iterations"] == len(trace.strip().splitlines()) - 2
        assert summary["config"]["seed"] == 1

    def test_monotone_f_column(self, runner, tmp_path):
        res = runner.invoke(cli, _solve_args(tmp_path / "o"))
        assert res.exit_code == 0
        lines = (tmp_path / "o" / "trace.csv").read_text().strip().splitlines()[1:]
        fs = [float(line.split(",")[2]) for line in lines]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_determinism_modulo_elapsed(self, runner, tmp_path):
        r1 = runner.invoke(cli, _solve_args(tmp_path / "a"))
        r2 = runner.invoke(cli, _solve_args(tmp_path / "b"))
        assert r1.exit_code == 0 and r2.exit_code == 0
        t1 = _strip_elapsed((tmp_path / "a" / "trace.csv").read_text())
        t2 = _strip_elapsed((tmp_path / "b" / "trace.csv").read_text())
        assert t1 == t2

    def test_missing_data_file_exit_1(self, runner, tmp_path):
        res = runner.invoke(cli, ["solve", "--data", str(tmp_path / "nope.libsvm")])
        assert res.exit_code == 1
        assert "nope.libsvm" in res.output

    def test_budget_exhausted_exit_2(self, runner, tmp_path):
        res = runner.invoke(cli, _solve_args(tmp_path / "o", extra=["--max-iter", "1"]))
        assert res.exit_code == 2

    def test_baseline_solver(self, runner, tmp_path):
        res = runner.invoke(cli, _solve_args(tmp_path / "o", extra=["--solver", "gd"]))
        assert res.exit_code in (0, 2)
        assert (tmp_path / "o" / "trace.csv").exists()

    @pytest.mark.parametrize("solver", ["sigma", "gd"])
    def test_grad_norm_blank_where_not_formed(self, runner, tmp_path, solver):
        # SIGMA's coarse iterations form the full gradient only on the refresh
        # iterates (A x formed afresh) and at the end; a baseline reads it on
        # every iterate
        out = tmp_path / "o"
        res = runner.invoke(cli, _solve_args(out, extra=["--solver", solver, "--epsilon", "1e-30",
                                                         "--max-iter", "70"]))
        assert res.exit_code == 2, res.output
        rows = (out / "trace.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 71
        for k, line in enumerate(rows):
            cell = line.split(",")[3]
            if solver == "sigma" and k % EXACT_MARGINS_EVERY and k != len(rows) - 1:
                assert line.split(",")[7] == "coarse"
                assert cell == "", line
            else:
                assert np.isfinite(float(cell)) and float(cell) >= 0, line
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_grad_norm"] == float(rows[-1].split(",")[3])

    @pytest.mark.parametrize("solver", ["sigma", "newton"])
    def test_defaults_are_the_config_defaults(self, runner, tmp_path, solver):
        # with no tuning flags the solver runs with its dataclass defaults
        out = tmp_path / "o"
        res = runner.invoke(cli, ["solve", "--data", "synthetic", "--m", "40", "--N", "20",
                                  "--p", "4", "--solver", solver, "--out", str(out)])
        assert res.exit_code in (0, 2), res.output
        summary = json.loads((out / "summary.json").read_text())
        expected = SigmaConfig(n=10) if solver == "sigma" else BaselineConfig(method="newton")
        assert summary["solver_config"] == dataclasses.asdict(expected)

    def test_config_file_with_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "model: gaussian\ndata: synthetic\nm: 60\nN: 30\np: 6\nn: 15\n"
            "seed: 1\nepsilon: 1.0e-10\nmax_iter: 300\nout: IGNORED\n"
        )
        out = tmp_path / "fromcfg"
        res = runner.invoke(cli, ["solve", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["m"] == 60
        assert summary["config"]["out"] == str(out)

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("data: synthetic\nbogus_key: 1\n")
        res = runner.invoke(cli, ["solve", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "bogus_key" in res.output

    @pytest.mark.parametrize("text", ["5\n", "- m\n"])
    def test_config_not_a_mapping_rejected(self, runner, tmp_path, text):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text)
        res = runner.invoke(cli, ["solve", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "config file must be a YAML mapping" in res.output
        assert "Traceback" not in res.output

    def test_poisson_synthetic(self, runner, tmp_path):
        res = runner.invoke(
            cli,
            ["solve", "--model", "poisson", "--data", "synthetic", "--m", "45", "--N", "30",
             "--p", "6", "--n", "15", "--seed", "2", "--xi2", "1e-6", "--epsilon", "1e-8",
             "--max-iter", "400", "--out", str(tmp_path / "o")],
        )
        # thin-cone Poisson instances converge slowly; schema is what matters here
        assert res.exit_code in (0, 2), res.output
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert "final_grad_norm_unscaled" in summary
        assert summary["poisson_scale"] > 1

    def test_no_data_exit_1(self, runner, tmp_path):
        res = runner.invoke(cli, ["solve", "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "--data is required" in res.output

    def test_csv_with_label_column(self, runner, tmp_path):
        gen = np.random.default_rng(3)
        A = gen.standard_normal((30, 4))
        b = A @ gen.standard_normal(4)
        path = tmp_path / "data.csv"
        np.savetxt(path, np.column_stack([b, A]), delimiter=",", header="y,f1,f2,f3,f4",
                   comments="")
        res = runner.invoke(cli, ["solve", "--model", "gaussian", "--data", str(path),
                                  "--label-column", "0", "--solver", "newton",
                                  "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        meta = summary["config"]["data_meta"]
        assert (meta["m"], meta["N"]) == (30, 4)
        assert summary["final_f"] < 1e-20  # b lies in the span of A


    def test_standardized_file(self, runner, tmp_path):
        gen = np.random.default_rng(4)
        A = 3.0 + gen.standard_normal((40, 5))
        path = tmp_path / "d.libsvm"
        write_libsvm(Dataset(A, A @ gen.standard_normal(5) + 1.0), path)
        res = runner.invoke(cli, ["solve", "--model", "gaussian", "--data", str(path),
                                  "--solver", "newton", "--xi2", "1e-6", "--max-iter", "1",
                                  "--standardize", "--out", str(tmp_path / "o")])
        assert res.exit_code in (0, 2), res.output
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["config"]["data_meta"]["standardize"] is True
        model = make_objective("gaussian", data_mod.standardize(load_libsvm(path)),
                               Regularization(xi2=1e-6))
        want = baseline_solve(model, np.zeros(5), BaselineConfig(method="newton", max_iter=1))
        rows = (tmp_path / "o" / "trace.csv").read_text().strip().splitlines()[1:]
        assert [float(line.split(",")[2]) for line in rows] == [r.f for r in want.trace]

    def test_library_error_exits_1(self, runner, tmp_path):
        res = runner.invoke(cli, _solve_args(tmp_path / "o", extra=["--rows", "500"]))
        assert res.exit_code == 1
        assert "rows=500 exceeds m=100" in res.output

def _mixed_sign_poisson_file(runner, tmp_path):
    """A Haar-random Poisson dataset written by ``datagen``: its row sums have
    mixed signs, so the all-ones start fails, and m <= 2N keeps its domain
    nonempty."""
    out = tmp_path / "ds"
    res = runner.invoke(cli, ["datagen", "--m", "50", "--N", "30", "--p", "5",
                              "--labels", "poisson", "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    sums = load_libsvm(out / "data.libsvm").A.sum(axis=1)
    assert sums.min() < 0 < sums.max()
    return out / "data.libsvm"


class TestPoissonFileStart:
    def _solve(self, runner, path, out, extra=()):
        return runner.invoke(cli, ["solve", "--model", "poisson", "--data", str(path), "--n", "15",
                                   "--xi2", "1e-6", "--max-iter", "20", "--out", str(out), *extra])

    def test_starts_at_the_positive_margin_search(self, runner, tmp_path):
        path = _mixed_sign_poisson_file(runner, tmp_path)
        res = self._solve(runner, path, tmp_path / "o")
        assert res.exit_code in (0, 2), res.output
        model = make_objective("poisson", load_libsvm(path), Regularization(xi2=1e-6))
        x0 = feasible_start(model)
        assert model.predict(x0).min() > 0
        first = (tmp_path / "o" / "trace.csv").read_text().splitlines()[1].split(",")
        assert float(first[2]) == model.evaluate(x0)

    def test_standardized_file_has_no_start(self, runner, tmp_path):
        # a column-centred A has 1^T A x = 0 for every x: no margin vector is positive
        path = _mixed_sign_poisson_file(runner, tmp_path)
        res = self._solve(runner, path, tmp_path / "o", ["--standardize"])
        assert res.exit_code == 1
        assert "the domain {x : A x > 0} is empty" in res.output

    def test_standardize_rejected_before_the_file_is_read(self, runner, tmp_path, monkeypatch):
        path = _mixed_sign_poisson_file(runner, tmp_path)

        def unread(*args, **kwargs):
            raise AssertionError("load_libsvm called")

        monkeypatch.setattr(data_mod, "load_libsvm", unread)
        res = self._solve(runner, path, tmp_path / "o", ["--standardize"])
        assert res.exit_code == 1
        assert "--standardize cannot be combined with --model poisson" in res.output
        assert "the domain {x : A x > 0} is empty" in res.output
        assert not (tmp_path / "o").exists()

    def test_bench_entries_reject_standardized_poisson(self, runner, tmp_path, monkeypatch):
        def ungenerated(*args, **kwargs):
            raise AssertionError("svd_gap_matrix called")

        monkeypatch.setattr(data_mod, "svd_gap_matrix", ungenerated)
        res = runner.invoke(cli, ["bench", "--model", "poisson", "--data", "synthetic",
                                  "--m", "40", "--N", "30", "--p", "5", "--standardize",
                                  "--solvers", "sigma,gd", "--out", str(tmp_path / "b")])
        assert res.exit_code == 1
        summaries = json.loads((tmp_path / "b" / "bench_summary.json").read_text())
        assert [s["status"] for s in summaries] == ["error", "error"]
        assert all("the domain {x : A x > 0} is empty" in s["message"] for s in summaries)


class TestBench:
    def test_three_solvers(self, runner, tmp_path):
        out = tmp_path / "bench"
        res = runner.invoke(
            cli,
            ["bench", "--data", "synthetic", "--m", "50", "--N", "30", "--p", "6",
             "--n", "15", "--seed", "1", "--solvers", "sigma,gd,newton",
             "--epsilon", "1e-8", "--max-iter", "150", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        comparison = (out / "comparison.csv").read_text().strip().splitlines()
        assert comparison[0] == "solver,iter,elapsed_s,grad_norm,f"
        solvers = {line.split(",")[0] for line in comparison[1:]}
        assert solvers == {"sigma", "gd", "newton"}
        # grad_norm column positive and finite
        for line in comparison[1:]:
            g = float(line.split(",")[3])
            assert np.isfinite(g) and g >= 0
        assert (out / "summary.md").exists()
        assert (out / "trace_sigma.csv").exists()

    def test_p_sweep_layout(self, runner, tmp_path):
        out = tmp_path / "sweep"
        res = runner.invoke(
            cli,
            ["bench", "--data", "synthetic", "--model", "gaussian", "--m", "40", "--N", "20",
             "--n", "10", "--seed", "1", "--p-list", "0.2,0.5,0.8",
             "--epsilon", "1e-8", "--max-iter", "100", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        comparison = (out / "comparison.csv").read_text().strip().splitlines()
        solvers = {line.split(",")[0] for line in comparison[1:]}
        assert solvers == {"sigma[p=0.2N]", "sigma[p=0.5N]", "sigma[p=0.8N]"}

    def test_partial_failure_continues(self, runner, tmp_path):
        out = tmp_path / "partial"
        # newsamp with rank >= N fails; the bench must still finish with exit 0
        res = runner.invoke(
            cli,
            ["bench", "--data", "synthetic", "--m", "30", "--N", "10", "--p", "3",
             "--n", "5", "--seed", "1", "--solvers", "sigma,newsamp", "--rank", "10",
             "--epsilon", "1e-8", "--max-iter", "50", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        summaries = json.loads((out / "bench_summary.json").read_text())
        by_name = {s["solver"]: s for s in summaries}
        assert by_name["newsamp"]["status"] == "error"
        assert by_name["sigma"]["status"] in ("converged", "max_iter")

    @pytest.mark.parametrize(("args", "builds"), [
        (["--solvers", "sigma,gd,newton"], 1),
        (["--p-list", "0.2,0.5"], 2),  # the synthetic p differs per entry
    ])
    def test_dataset_built_once_per_distinct_input(self, runner, tmp_path, monkeypatch, args,
                                                   builds):
        from sigma_opt import cli as cli_mod

        if "--p-list" in args:
            data_args = ["--data", "synthetic", "--m", "30", "--N", "10"]
        else:
            runner.invoke(cli, ["datagen", "--m", "30", "--N", "10", "--p", "3",
                                "--labels", "gaussian", "--out", str(tmp_path)])
            data_args = ["--data", str(tmp_path / "data.libsvm")]
        calls = []

        def counted(p, _orig=cli_mod._build_dataset):
            calls.append(p)
            return _orig(p)

        monkeypatch.setattr(cli_mod, "_build_dataset", counted)
        res = runner.invoke(cli, ["bench", *data_args, "--n", "5", "--seed", "1", *args,
                                  "--epsilon", "1e-8", "--max-iter", "50",
                                  "--out", str(tmp_path / "b")])
        assert res.exit_code == 0, res.output
        assert len(calls) == builds
        summaries = json.loads((tmp_path / "b" / "bench_summary.json").read_text())
        assert len(summaries) == (3 if builds == 1 else 2)
        assert all(s["status"] != "error" for s in summaries)

    def test_p_list_rejected_for_file_data(self, runner, tmp_path):
        # p places the synthetic matrix's spectral gap; a file has no p to sweep
        runner.invoke(cli, ["datagen", "--m", "30", "--N", "10", "--p", "3",
                            "--labels", "gaussian", "--out", str(tmp_path)])
        res = runner.invoke(cli, ["bench", "--data", str(tmp_path / "data.libsvm"),
                                  "--p-list", "0.2,0.5,0.8", "--out", str(tmp_path / "b")])
        assert res.exit_code == 1
        assert "--p-list needs --data synthetic" in res.output
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(("args", "trace"), [
        (["--solvers", "sigma,sigma"], "trace_sigma.csv"),
        (["--p-list", "0.2,0.20"], "trace_sigma_p0.2N.csv"),
    ])
    def test_shared_trace_file_rejected(self, runner, tmp_path, args, trace):
        # two entries that write one trace file would leave one trace for two
        # summaries; the bench stops before it creates --out or runs anything
        out = tmp_path / "b"
        res = runner.invoke(cli, ["bench", "--data", "synthetic", "--m", "30", "--N", "10",
                                  "--n", "5", "--seed", "1", *args, "--max-iter", "20",
                                  "--out", str(out)])
        assert res.exit_code == 1
        assert trace in res.output
        assert not out.exists()

    def test_entry_summarizes_like_solve(self, runner, tmp_path):
        data = ["--model", "poisson", "--data", "synthetic", "--m", "45", "--N", "30",
                "--p", "6", "--n", "15", "--seed", "2", "--xi2", "1e-6", "--epsilon", "1e-8",
                "--max-iter", "60"]
        res = runner.invoke(cli, ["solve", *data, "--solver", "sigma",
                                  "--out", str(tmp_path / "s")])
        assert res.exit_code in (0, 2), res.output
        res = runner.invoke(cli, ["bench", *data, "--solvers", "sigma",
                                  "--out", str(tmp_path / "b")])
        assert res.exit_code == 0, res.output
        solo = json.loads((tmp_path / "s" / "summary.json").read_text())
        (entry,) = json.loads((tmp_path / "b" / "bench_summary.json").read_text())
        assert set(solo) <= set(entry)
        assert entry["solver"] == "sigma" and entry["trace"] == "trace_sigma.csv"
        for key in ("status", "iterations", "final_f", "final_grad_norm", "final_decrement_sq",
                    "final_grad_norm_unscaled", "poisson_scale", "solver_config"):
            assert entry[key] == solo[key], key
        assert entry["config"]["data_meta"] == solo["config"]["data_meta"]

    def test_all_fail_exit_1(self, runner, tmp_path):
        res = runner.invoke(
            cli,
            ["bench", "--data", str(tmp_path / "missing.libsvm"), "--solvers", "gd,newton",
             "--out", str(tmp_path / "x")],
        )
        assert res.exit_code == 1
        # every entry gets its own error row
        summaries = json.loads((tmp_path / "x" / "bench_summary.json").read_text())
        assert [(s["solver"], s["status"]) for s in summaries] == [("gd", "error"),
                                                                   ("newton", "error")]

    def test_time_budget_respected(self, runner, tmp_path):
        out = tmp_path / "budget"
        res = runner.invoke(
            cli,
            ["bench", "--data", "synthetic", "--m", "60", "--N", "40", "--p", "8",
             "--n", "4", "--seed", "1", "--solvers", "gd", "--epsilon", "1e-16",
             "--max-iter", "10000000", "--max-seconds", "1.0", "--out", str(out)],
        )
        assert res.exit_code == 0
        lines = (out / "trace_gd.csv").read_text().strip().splitlines()[1:]
        assert float(lines[-1].split(",")[1]) <= 1.2  # soft overshoot allowance


class TestDatagen:
    def test_writes_dataset_and_meta(self, runner, tmp_path):
        out = tmp_path / "ds"
        res = runner.invoke(
            cli,
            ["datagen", "--m", "30", "--N", "20", "--p", "4", "--gap", "100",
             "--labels", "poisson", "--seed", "3", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        ds = load_libsvm(out / "data.libsvm", n_features=20)
        assert ds.m == 30
        assert np.all(ds.b >= 1)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["m"] == 30 and meta["p"] == 4
        assert len(meta["x_true"]) == 20

    def test_meta_singular_values_survive_round_trip(self, runner, tmp_path):
        out = tmp_path / "ds"
        res = runner.invoke(
            cli,
            ["datagen", "--m", "25", "--N", "12", "--p", "3", "--gap", "50",
             "--labels", "gaussian", "--noise", "0.1", "--seed", "4", "--out", str(out)],
        )
        assert res.exit_code == 0
        meta = json.loads((out / "meta.json").read_text())
        ds = load_libsvm(out / "data.libsvm", n_features=12)
        realized = np.linalg.svd(ds.A, compute_uv=False)
        stored = np.asarray(meta["realized_singular_values"])
        assert np.max(np.abs(realized - stored) / stored) <= 1e-5

    def test_same_seed_identical_files(self, runner, tmp_path):
        args = ["datagen", "--m", "15", "--N", "8", "--p", "2", "--labels", "logistic",
                "--seed", "5"]
        r1 = runner.invoke(cli, args + ["--out", str(tmp_path / "a")])
        r2 = runner.invoke(cli, args + ["--out", str(tmp_path / "b")])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (tmp_path / "a" / "data.libsvm").read_text() == (tmp_path / "b" / "data.libsvm").read_text()

    def test_invalid_spec_exit_1(self, runner, tmp_path):
        res = runner.invoke(
            cli,
            ["datagen", "--m", "10", "--N", "5", "--p", "9", "--labels", "gaussian",
             "--out", str(tmp_path / "bad")],
        )
        assert res.exit_code == 1

    def test_solve_on_generated_file(self, runner, tmp_path):
        out = tmp_path / "ds"
        runner.invoke(
            cli,
            ["datagen", "--m", "40", "--N", "16", "--p", "4", "--labels", "gaussian",
             "--noise", "0.05", "--seed", "6", "--out", str(out)],
        )
        res = runner.invoke(
            cli,
            ["solve", "--model", "gaussian", "--data", str(out / "data.libsvm"),
             "--n", "12", "--xi2", "1e-6", "--epsilon", "1e-8", "--max-iter", "600",
             "--out", str(tmp_path / "run")],
        )
        assert res.exit_code == 0, res.output

    def test_same_data_as_solve_synthetic(self, runner, tmp_path, monkeypatch):
        from sigma_opt import cli as cli_mod

        flags = ["--m", "40", "--N", "16", "--p", "4", "--gap", "50", "--labels", "logistic",
                 "--noise", "0.05", "--seed", "6"]
        res = runner.invoke(cli, ["datagen", *flags, "--out", str(tmp_path / "ds")])
        assert res.exit_code == 0, res.output
        built = []

        def recorded(p, _orig=cli_mod._build_dataset):
            built.append(_orig(p))
            return built[-1]

        monkeypatch.setattr(cli_mod, "_build_dataset", recorded)
        res = runner.invoke(cli, ["solve", "--model", "logistic", "--data", "synthetic", *flags,
                                  "--max-iter", "1", "--out", str(tmp_path / "run")])
        assert res.exit_code in (0, 2), res.output
        (ds, _, _), = built
        written = load_libsvm(tmp_path / "ds" / "data.libsvm", n_features=16)
        assert np.array_equal(written.A, ds.A)
        assert np.array_equal(written.b, ds.b)


# Inherited BLAS thread counts would stand in for the variable under test.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs a small CLI solve into argv[1], then prints the thread count of every
# loaded OpenBLAS.
_POOL_PROBE = """
import ctypes, json, sys
from sigma_opt import cli
out = sys.argv[1]
sys.argv = ["sigma-opt", "solve", "--model", "gaussian", "--data", "synthetic", "--m", "30",
            "--N", "15", "--p", "3", "--n", "8", "--seed", "1", "--max-iter", "50", "--out", out]
try:
    cli.main()
except SystemExit as exc:
    assert exc.code in (0, 2), exc.code
with open("/proc/self/maps", encoding="utf-8") as fh:
    paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line.lower()})
counts = {}
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        get = getattr(lib, name, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            counts[path] = get()
            break
print(json.dumps({"paths": paths, "counts": counts}))
"""


def _loaded_openblas():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            return [line for line in fh if "openblas" in line.lower()]
    except OSError:
        return []


@pytest.mark.skipif(not _loaded_openblas(), reason="no OpenBLAS library is loaded")
def test_openblas_num_threads_pins_every_pool(tmp_path):
    # the one thread setting: OPENBLAS_NUM_THREADS, set before start, reaches
    # the pools of numpy's and scipy's OpenBLAS alike
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["OPENBLAS_NUM_THREADS"] = "1"
    out = tmp_path / "pinned"
    res = subprocess.run([sys.executable, "-c", _POOL_PROBE, str(out)], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert (out / "trace.csv").exists()
    found = json.loads(res.stdout.splitlines()[-1])
    assert found["paths"] and sorted(found["counts"]) == found["paths"], found
    assert set(found["counts"].values()) == {1}, found


class TestConfigValues:
    """YAML values are click defaults: converted and checked like flags."""

    _BASE = "data: synthetic\nm: 40\nN: 20\np: 4\nseed: 1\nmax_iter: 50\n"

    def _config(self, tmp_path, text):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(self._BASE + text)
        return cfg

    def test_float_in_exponent_form(self, runner, tmp_path):
        # PyYAML reads 1e-8 (no dot) as a string
        out = tmp_path / "o"
        cfg = self._config(tmp_path, f"epsilon: 1e-8\nout: {out}\n")
        res = runner.invoke(cli, ["solve", "--config", str(cfg)])
        assert res.exit_code in (0, 2), res.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["epsilon"] == 1e-8
        assert summary["solver_config"]["epsilon"] == 1e-8

    def test_quoted_int(self, runner, tmp_path):
        out = tmp_path / "o"
        cfg = self._config(tmp_path, f'n: "5"\nout: {out}\n')
        res = runner.invoke(cli, ["solve", "--config", str(cfg)])
        assert res.exit_code in (0, 2), res.output
        assert json.loads((out / "summary.json").read_text())["solver_config"]["n"] == 5

    def test_gnuplot_key_unknown(self, runner, tmp_path):
        # bench writes no gnuplot script; the key is rejected like any unknown one
        out = tmp_path / "o"
        cfg = self._config(tmp_path, f"solvers: sigma,gd\ngnuplot: true\nout: {out}\n")
        res = runner.invoke(cli, ["bench", "--config", str(cfg)])
        assert res.exit_code != 0
        assert "unknown config keys: ['gnuplot']" in res.output
        assert not out.exists()

    def test_bad_choice_rejected_like_a_flag(self, runner, tmp_path):
        cfg = self._config(tmp_path, "model: poisonn\n")
        res = runner.invoke(cli, ["solve", "--config", str(cfg)])
        assert res.exit_code != 0
        assert "Invalid value for '--model'" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize(("text", "solvers"), [
        ("solvers: [sigma, gd]\n", {"sigma", "gd"}),
        ("p_list: [0.2, 0.5]\n", {"sigma[p=0.2N]", "sigma[p=0.5N]"}),
    ])
    def test_list_values(self, runner, tmp_path, text, solvers):
        out = tmp_path / "o"
        cfg = self._config(tmp_path, f"{text}out: {out}\n")
        res = runner.invoke(cli, ["bench", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        summaries = json.loads((out / "bench_summary.json").read_text())
        assert {s["solver"] for s in summaries} == solvers
        assert all(s["status"] != "error" for s in summaries)

    def test_solve_accepts_bench_keys(self, runner, tmp_path):
        # one file serves both commands; solve ignores bench's keys
        out = tmp_path / "o"
        cfg = self._config(tmp_path, f"solvers: [sigma, gd]\np_list: 0.5\nout: {out}\n")
        res = runner.invoke(cli, ["solve", "--config", str(cfg)])
        assert res.exit_code in (0, 2), res.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["solver"] == "sigma"
        assert not {"solvers", "p_list"} & set(summary["config"])


def test_console_script_usage_error_exits_1():
    # exit 2 means a spent budget; a rejected flag is an error
    res = subprocess.run([sys.executable, "-m", "sigma_opt", "solve", "--data", "synthetic",
                          "--model", "poisonn"], capture_output=True, text=True)
    assert res.returncode == 1, res.stderr
    assert "Invalid value for '--model'" in res.stderr


def test_console_script_help_exits_0():
    res = subprocess.run([sys.executable, "-m", "sigma_opt", "--help"], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert "solve" in res.stdout and "bench" in res.stdout

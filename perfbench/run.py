"""sigma-opt benchmark: time to tolerance, per-iteration cost and memory of
SIGMA solves, plus a traced run that splits an iteration by module.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: poisson-small, logistic-tall, gaussian-wide (library API) and
cli-libsvm (``sigma-opt bench`` subprocess). ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones. The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it, prefixed ``env``, records the machine and
library versions.

A run measures for at least ``--seconds``: library workloads set up and
solve at least three times (gaussian-wide: each of its eight instances once),
cli-libsvm parses its file three times and runs the CLI at least once. A
traced run alternates untraced and traced solves of one instance (cli-libsvm:
one untraced and one traced CLI run). Run files (inputs, spans, CLI
outputs) go to ``perfbench/out/<workload>/``. The package is imported from
``src/`` of the checkout that holds this file; the run fails without it.
"""

import argparse
import ctypes
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("poisson-small", "logistic-tall", "gaussian-wide", "cli-libsvm")


def _openblas():
    """Version string and runtime thread count of each loaded OpenBLAS."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                found[Path(path).name] = {"config": get_config().decode(),
                                          "threads": get_threads()}
    return found


def environment():
    import numpy
    import scipy

    from sigma_opt import kernels

    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "using_numba": kernels.using_numba(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "sigma_opt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sigma_opt package under {SRC}")
    # One BLAS thread, set before numpy loads: the default two threads on a
    # two-core machine are slower and much noisier.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spans = out / "spans.json"
    if args.workload == "cli-libsvm":
        if args.trace:
            metrics, tally, info = workloads.trace_cli(args.seed, SRC, out, spans)
        else:
            metrics, tally, info = workloads.run_cli(args.seed, args.seconds, SRC, out)
    elif args.trace:
        metrics, tally, info = workloads.trace_library(args.workload, args.seed, args.seconds, spans)
    else:
        metrics, tally, info = workloads.run_library(args.workload, args.seed, args.seconds)

    env = environment()
    result = {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "info": info, "problems": tally.problems, **result}
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in tally.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print("env " + json.dumps({**env, **info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

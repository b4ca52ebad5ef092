"""Fixed-seed solves, one digest line each, for comparing two checkouts.

Prints one ``name sha256`` line per run, or ``name raised <ExceptionType>``
for a run that raises. The hash covers the status, the message, ``x_final``
and the ``float.hex`` of every trace column except ``elapsed_s``, so two
checkouts that print the same lines produced the same trace bits. The runs
cover the three GLMs on row- and column-major ``A`` (SIGMA in each check
mode, with ``row_sample`` and with ``freeze_operator``, and the five
baselines), a matrix with fewer rows than the coarse dimension, with and
without a regularizer (the capacitance solve and the shifted n x n
Cholesky; SIGMA in its default and ``full_decrement`` modes, Newton and
sub-sampled Newton, whose full-operator systems take the same two routes),
an SGD run whose last iterate's exact Poisson margins leave the domain,
and NewSamp at the cli-libsvm benchmark's shape (logistic, ``xi2`` 1e-4,
default rows and rank, 10 iterations) on the loaded 2000 x 500 file.
Before the runs come the generator lines: the sha256 of one ``haar_frame``
and of ``svd_gap_matrix`` for a tall, a square and a wide spec, for
1200 x 300 and 2040 x 257 (written into ``U`` in row blocks, the first with
its remainder joined to the last block, the second with a tail block of its
own), for 2047 x 257 (``m`` not a multiple of 8, formed whole) and at the
logistic-tall benchmark's 4000 x 2000, each hashed in row-major order
whatever its layout. Then come the loader lines, the sha256 of ``A`` and ``b``
as loaded: ``load_libsvm`` on a ``write_libsvm`` file of a generated 2000 x
500 matrix, on 20000 lines of one entry each and on a file with a tab in one
line, which the token parser reads, once as one chunk and once in chunks
of 4096 bytes, the tab line in a middle one, and ``load_csv`` on a 200 x 51
file with a header. Last come the start lines: the sha256 of ``feasible_start``'s
point on a Haar-random Poisson draw whose row sums have mixed signs, which
the positive-margin search decides, and a SIGMA run from that point.

BLAS is pinned to one thread before numpy loads: with more threads the
order of BLAS reductions, and so the low bits of a trace, may change.
The package is imported from ``PYTHONPATH``, so one copy of this script
compares any two checkouts (run from the repository root)::

    PYTHONPATH=src python tools/trace_digest.py > change.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/trace_digest.py > parent.txt
    diff parent.txt change.txt
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import logging  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import sigma_opt as so  # noqa: E402
from sigma_opt import data  # noqa: E402
from sigma_opt.core import haar_frame  # noqa: E402

CHECK_MODES = ("always_coarse", "full_decrement", "euclidean_proxy", "nu_only")
BASELINES = ("gd", "sgd", "newton", "subnewton", "newsamp")


def digest(result) -> str:
    h = hashlib.sha256(f"{result.status}\n{result.message}\n".encode())
    h.update(" ".join(float(v).hex() for v in result.x_final).encode())
    for r in result.trace:
        row = [getattr(r, f.name) for f in dataclasses.fields(r) if f.name != "elapsed_s"]
        h.update(("\n" + ",".join(v.hex() if isinstance(v, float) else repr(v)
                                  for v in row)).encode())
    return h.hexdigest()


def generated():
    """``(name, array)`` for each generator line."""
    yield "haar_frame-500x200", haar_frame(500, 200, so.RngState(31).child())
    for m, N in ((600, 300), (300, 300), (50, 2000), (1200, 300), (2040, 257), (2047, 257)):
        spec = so.SvdGapSpec(m=m, N=N, p=max(1, min(m, N) // 5), gap=30.0, seed=m + N)
        yield f"svd_gap_matrix-{m}x{N}", so.svd_gap_matrix(spec, so.RngState(m + N))
    # the logistic-tall benchmark's matrix
    spec = so.SvdGapSpec(m=4000, N=2000, p=200, gap=100.0, seed=1)
    yield "svd_gap_matrix-4000x2000", so.svd_gap_matrix(spec, so.RngState(1))


def loaded():
    """``(name, dataset)`` for each loader line, from files written to a
    temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data"
        spec = so.SvdGapSpec(m=2000, N=500, p=100, gap=30.0, seed=41)
        A = so.svd_gap_matrix(spec, so.RngState(41))
        so.write_libsvm(so.Dataset(A, np.where(A[:, 0] > 0, 1.0, 0.0)), path)
        yield "load_libsvm-2000x500", so.load_libsvm(path)
        gen = np.random.default_rng(42)
        cols, vals = gen.integers(1, 51, 20000), gen.standard_normal(20000)
        path.write_text("".join(f"{i % 2} {j}:{v!r}\n"
                                for i, (j, v) in enumerate(zip(cols.tolist(), vals.tolist()))))
        yield "load_libsvm-20000-one-entry", so.load_libsvm(path)
        A = gen.standard_normal((300, 40))
        A[gen.random(A.shape) < 0.3] = 0.0
        so.write_libsvm(so.Dataset(A, gen.standard_normal(300)), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[150] = lines[150].replace(" ", "\t", 1)  # not canonical: the token parser reads it
        path.write_text("".join(lines))
        yield "load_libsvm-fallback-300x40", so.load_libsvm(path)
        chunk_bytes, data._PARSE_CHUNK_BYTES = data._PARSE_CHUNK_BYTES, 4096
        try:  # about 6 lines a chunk: the tab line is in a middle chunk
            ds = so.load_libsvm(path)
        finally:
            data._PARSE_CHUNK_BYTES = chunk_bytes
        yield "load_libsvm-fallback-300x40-chunks", ds
        X = gen.standard_normal((200, 51))
        path.write_text(",".join(f"x{j}" for j in range(51)) + "\n"
                        + "".join(",".join(map(repr, row)) + "\n" for row in X.tolist()))
        yield "load_csv-200x51", so.load_csv(path)


def instance(kind, m, N, seed, xi2=1e-6):
    """A fixed draw of ``kind``: positive features for Poisson, a spectral-gap
    matrix otherwise."""
    if kind == "poisson":
        A = np.random.default_rng(seed).uniform(0.1, 1.1, size=(m, N))
    else:
        A = so.svd_gap_matrix(so.SvdGapSpec(m=m, N=N, p=max(1, N // 5), gap=30.0, seed=seed),
                              so.RngState(seed))
    b, x_true = so.synth_labels(A, so.LabelSpec(kind, sigma_noise=0.1, seed=seed + 1),
                                so.RngState(seed + 1))
    return A, b, x_true, so.Regularization(xi2=xi2)


def runs(libsvm):
    """``(name, solve, model, x0, config)`` for each run; ``libsvm`` is the
    loaded 2000 x 500 dataset."""
    common = dict(epsilon=1e-12, max_iter=40)
    for kind, seed in itertools.product(("gaussian", "logistic", "poisson"), (11, 12)):
        A, b, _, reg = instance(kind, 90, 30, seed)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            model = so.make_objective(kind, so.Dataset(layout(A), b), reg)
            x0 = so.feasible_start(model)
            tag = f"{kind}{seed}-{'C' if layout is np.ascontiguousarray else 'F'}"
            sigmas = [(mode, dict(check_mode=mode)) for mode in CHECK_MODES]
            sigmas += [("row_sample", dict(row_sample=45)),
                       ("freeze_operator", dict(freeze_operator=True))]
            for name, extra in sigmas:
                cfg = so.SigmaConfig(n=15, seed=3, **common, **extra)
                yield f"{tag}-sigma-{name}", so.sigma_solve, model, x0, cfg
            for method in BASELINES:
                cfg = so.BaselineConfig(method=method, sgd_t=0.05, seed=4, **common)
                yield f"{tag}-{method}", so.baseline_solve, model, x0, cfg
    for kind, seed in (("gaussian", 21), ("logistic", 22)):
        for xi2 in (1e-4, 0.0):
            A, b, _, reg = instance(kind, 20, 120, seed, xi2=xi2)
            model = so.make_objective(kind, so.Dataset(A, b), reg)
            x0, tag = so.feasible_start(model), f"{kind}-wide-xi2={xi2:g}"
            yield tag, so.sigma_solve, model, x0, so.SigmaConfig(n=60, seed=5, **common)
            cfg = so.SigmaConfig(n=60, seed=5, check_mode="full_decrement", **common)
            yield f"{tag}-sigma-full_decrement", so.sigma_solve, model, x0, cfg
            for method in ("newton", "subnewton"):
                cfg = so.BaselineConfig(method=method, seed=4, **common)
                yield f"{tag}-{method}", so.baseline_solve, model, x0, cfg
    # SGD from the ground truth: the carried margins stay positive, but the
    # last iterate's exact A x, formed for the terminal row, has a margin below 0
    A, b, x_true, reg = instance("poisson", 80, 20, 77)
    model = so.make_objective("poisson", so.Dataset(np.asfortranarray(A), b), reg)
    cfg = so.BaselineConfig(method="sgd", epsilon=1e-14, max_iter=25, seed=2)
    yield "poisson77-F-sgd-terminal", so.baseline_solve, model, x_true, cfg
    model = so.make_objective("logistic", libsvm, so.Regularization(xi2=1e-4))
    cfg = so.BaselineConfig(method="newsamp", epsilon=1e-12, max_iter=10, seed=1)
    yield "load_libsvm-2000x500-newsamp", so.baseline_solve, model, so.feasible_start(model), cfg


def searched():
    """``(name, compute)`` for each start line: ``compute()`` gives the line's
    digest. The draw is 50 x 30, so ``m <= 2N`` keeps its domain nonempty."""
    A = so.svd_gap_matrix(so.SvdGapSpec(m=50, N=30, p=6, gap=30.0, seed=51), so.RngState(51))
    b, _ = so.synth_labels(A, so.LabelSpec("poisson", seed=52), so.RngState(52))
    model = so.make_objective("poisson", so.Dataset(A, b), so.Regularization(xi2=1e-6))
    cfg = so.SigmaConfig(n=15, seed=3, epsilon=1e-12, max_iter=40)
    yield ("poisson-haar50x30-feasible_start",
           lambda: hashlib.sha256(so.feasible_start(model).tobytes()).hexdigest())
    yield ("poisson-haar50x30-sigma",
           lambda: digest(so.sigma_solve(model, so.feasible_start(model), cfg)))


def _line(compute) -> str:
    try:
        return compute()
    except Exception as exc:  # an escape shows as one line, not a traceback
        return f"raised {type(exc).__name__}"


def main():
    # the shifted Cholesky of the unregularized wide runs warns every iteration
    logging.getLogger("sigma_opt").setLevel(logging.ERROR)
    for name, arr in generated():
        h = hashlib.sha256(repr(arr.shape).encode())
        h.update(arr.tobytes(order="C"))
        print(name, h.hexdigest(), flush=True)
    loads = {}
    for name, ds in loaded():
        h = hashlib.sha256(repr(ds.A.shape).encode())
        h.update(ds.A.tobytes(order="C"))
        h.update(ds.b.tobytes())
        print(name, h.hexdigest(), flush=True)
        loads[name] = ds
    for name, solve, model, x0, cfg in runs(loads["load_libsvm-2000x500"]):
        print(name, _line(lambda: digest(solve(model, x0, cfg))), flush=True)
    for name, compute in searched():
        print(name, _line(compute), flush=True)


if __name__ == "__main__":
    main()

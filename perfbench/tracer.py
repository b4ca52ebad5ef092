"""Span tracing of sigma_opt from outside the package.

The package binds most helpers with ``from .x import y``, so a function is
wrapped at every lookup site the solver path goes through, not only where it
is defined. Each wrapped call records one span ``[name, start, end, parent,
work]`` in memory; ``parent`` is the index of the enclosing span, which lets
self time (span minus its child spans) partition a solve exactly. ``work`` is
an optional operation count computed from the call's arguments.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import scipy.linalg

from sigma_opt import baselines, cli, coarse, data, kernels, objectives, rng, solver


def _gram_flops(A, w, cols, rows):
    return 2.0 * len(rows) * len(cols) ** 2


def _cholesky_flops(a, *args, **kwargs):
    return a.shape[0] ** 3 / 3.0


def _baseline_name(model, x0, cfg):
    return f"baselines.baseline_solve.{cfg.method}"


# (owner, attribute, span name or callable(args) -> name, work callable or None)
SITES = [
    (objectives.ObjectiveModel, "predict", "objectives.predict", None),
    (objectives.ObjectiveModel, "gradient", "objectives.gradient", None),
    (objectives.ObjectiveModel, "evaluate", "objectives.evaluate", None),
    (objectives.ObjectiveModel, "hessian", "objectives.hessian", None),
    (objectives.ObjectiveModel, "reduced_gradient", "objectives.reduced_gradient", None),
    (objectives.ObjectiveModel, "reduced_hessian", "objectives.reduced_hessian", None),
    (objectives.Ray, "__init__", "objectives.Ray.init", None),
    (objectives.Ray, "delta", "objectives.Ray.delta", None),
    (kernels, "glm_terms", "kernels.glm_terms", None),
    (kernels, "gram_gather", "kernels.gram_gather", _gram_flops),
    (coarse, "spd_solve", "core.spd_solve", None),
    (baselines, "spd_solve", "core.spd_solve", None),
    (scipy.linalg, "cho_factor", "core.cho_factor", _cholesky_flops),
    (coarse, "sample_without_replacement", "core.sample_without_replacement", None),
    (solver, "sample_without_replacement", "core.sample_without_replacement", None),
    (baselines, "sample_without_replacement", "core.sample_without_replacement", None),
    (rng.RngState, "child", "rng.RngState.child", None),
    (solver, "build_operator", "coarse.build_operator", None),
    (solver, "galerkin_system", "coarse.galerkin_system", None),
    (solver, "coarse_direction", "coarse.coarse_direction", None),
    (solver, "newton_direction", "coarse.newton_direction", None),
    (baselines, "newton_direction", "coarse.newton_direction", None),
    (baselines, "newsamp_hessian", "baselines.newsamp_hessian", None),
    (baselines, "baseline_solve", _baseline_name, None),
    (solver, "sigma_solve", "solver.sigma_solve", None),
    (solver, "armijo_search", "solver.armijo_search", None),
    (baselines, "armijo_search", "solver.armijo_search", None),
    (solver, "poisson_feasible_step", "solver.poisson_feasible_step", None),
    (data, "svd_gap_matrix", "data.svd_gap_matrix", None),
    (data, "synth_labels", "data.synth_labels", None),
    (data, "load_libsvm", "data.load_libsvm", None),
    (cli, "_build_dataset", "cli._build_dataset", None),
    (cli, "write_trace", "cli.write_trace", None),
]


class Tracer:
    """Collects spans while installed; spans stay in memory until written."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, label, work):
        span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, work]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, work=None):
        def traced(*args, **kwargs):
            span = self._open(name(*args, **kwargs) if callable(name) else name,
                              work(*args, **kwargs) if work else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    @contextmanager
    def span(self, name):
        """A span around a block, e.g. the whole CLI invocation."""
        span = self._open(name, 0.0)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def installed(self):
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in SITES]
        try:
            for owner, attr, name, work in SITES:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], work))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, fh)


def read_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def aggregate(spans, root_prefixes):
    """Per-name totals ``{name: [calls, total_s, self_s, work]}``.

    ``inside`` holds spans at or under a root whose name starts with one of
    ``root_prefixes`` (the solves); ``everywhere`` holds all spans.
    ``root_s`` is the summed duration of those roots.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    in_root = [False] * len(spans)
    inside = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    everywhere = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    root_s = 0.0
    for i, (name, start, end, parent, work) in enumerate(spans):
        is_root = name.startswith(root_prefixes) and not (parent >= 0 and in_root[parent])
        in_root[i] = is_root or (parent >= 0 and in_root[parent])
        if is_root:
            root_s += end - start
        tables = (inside, everywhere) if in_root[i] else (everywhere,)
        for table in tables:
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_s[i]
            row[3] += work
    return inside, everywhere, root_s

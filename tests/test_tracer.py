"""The contract between the package and the benchmark's span tracer.

``perfbench/tracer.py`` wraps the attributes its ``SITES`` table names; a
renamed or removed one would only show as a ``KeyError`` in a traced
benchmark run. The tracer is imported from its file and never modified.
"""

import importlib.util
from pathlib import Path

import pytest

from helpers import positive_poisson_instance
from sigma_opt import BaselineConfig, SigmaConfig, baseline_solve, feasible_start, sigma_solve

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_owner_has_its_attribute(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.SITES if attr not in vars(owner)]
    assert not missing


def test_solves_record_the_layer_spans(tracing):
    model, _ = positive_poisson_instance(m=40, N=10)
    x0 = feasible_start(model)
    tracer = tracing.Tracer()
    with tracer.installed():
        sigma = sigma_solve(model, x0, SigmaConfig(n=4, epsilon=1e-12, max_iter=5, seed=1))
        newton = baseline_solve(model, x0, BaselineConfig(method="newton", epsilon=1e-12,
                                                          max_iter=5, seed=1))
    assert sigma.iterations >= 1 and newton.iterations >= 1
    recorded = {span[0] for span in tracer.spans}
    expected = {"objectives.predict", "objectives.gradient", "kernels.glm_terms",
                "kernels.gram_gather", "core.spd_solve", "coarse.galerkin_system",
                "solver.poisson_feasible_step", "solver.armijo_search",
                "coarse.newton_direction"}
    assert expected <= recorded, sorted(expected - recorded)


def test_sigma_gram_is_traced_under_the_galerkin_system(tracing):
    # coarse.py must call kernels.gram_gather through the module: a name
    # imported into coarse would escape the tracer's wrapper, and only the
    # Newton Hessian's Gram would keep the span name in the recorded set
    model, _ = positive_poisson_instance(m=40, N=10)
    tracer = tracing.Tracer()
    with tracer.installed():
        sigma_solve(model, feasible_start(model), SigmaConfig(n=4, epsilon=1e-12, max_iter=5,
                                                              seed=1))
    spans = tracer.spans
    parents = {spans[parent][0] for name, _, _, parent, _ in spans
               if name == "kernels.gram_gather" and parent >= 0}
    assert "coarse.galerkin_system" in parents


def test_subnewton_is_traced_as_a_newton_direction(tracing):
    # sub-sampled Newton solves its system through coarse.newton_direction,
    # so its Gram is charged to that span, not to baseline_solve's self time
    model, _ = positive_poisson_instance(m=40, N=10)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = baseline_solve(model, feasible_start(model),
                                BaselineConfig(method="subnewton", rows=20, epsilon=1e-12,
                                               max_iter=5, seed=1))
    assert result.iterations >= 1
    spans = tracer.spans
    newton = {i for i, span in enumerate(spans) if span[0] == "coarse.newton_direction"}
    assert newton
    gram_parents = {parent for name, _, _, parent, _ in spans if name == "kernels.gram_gather"}
    assert newton <= gram_parents

"""The contract between the package and the benchmark runner.

``perfbench/run.py`` records its environment with what it reads from the
package (``kernels.using_numba``); a renamed or removed name would only show
as an error at the end of a benchmark run. The runner is imported from its
file and never modified.
"""

import importlib.util
import json
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.skipif(not Path("/proc/cpuinfo").is_file(), reason="the runner reads /proc/cpuinfo")
def test_runner_environment_reads_the_package(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    env = runner.environment()
    assert env["using_numba"] is False
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] == "1"
    assert env["nproc"] >= 1
    json.dumps(env)  # the runner prints it as JSON

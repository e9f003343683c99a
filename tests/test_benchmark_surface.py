"""The benchmark's call surface: every job in perfbench's four grids must
bind to the current signature of the function it names.  The jobs are
built, not run, so a dropped name or positional parameter fails here
rather than in a benchmark run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    if not WORKLOADS.is_file():
        pytest.skip("no perfbench/ in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    module.load_package()
    return module


def test_every_benchmark_job_binds_to_its_function(workloads):
    for name in workloads.WORKLOADS:
        jobs = workloads.build_grid(name)
        assert jobs, name
        for job in jobs:
            func = getattr(sys.modules[f"suffixfree.{job.module}"], job.func)
            inspect.signature(func).bind(*job.args)

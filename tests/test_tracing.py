"""The benchmark's tracer still counts the solve's transforms and kernel values.

``perfbench/tracing.py`` counts FFTs by wrapping ``freepoisson.boundary``'s
``sfft`` and kernel values by wrapping its ``green_values``; a change to
either binding that the tracer no longer sees would read as zero work.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from freepoisson import PolyBump, SolverConfig, UniformGrid, boundary, solve_free_space, transforms

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_traced_solves_count_ffts_and_kernel_values(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for request, dim in enumerate((2, 3)):
            g = UniformGrid([-1.0] * dim, [1.0] * dim, [16] * dim)
            with tracer.request(request):
                solve_free_space(PolyBump(dim, 0.4, 5, (0.1, 0.0, -0.1)[:dim]), g,
                                 SolverConfig(order=6))
    finally:
        tracer.uninstall()
    assert boundary.sfft is transforms.sfft
    for request in (0, 1):
        counters = tracer.counters[request]
        assert counters.get("fft_calls", 0) > 0
        assert counters.get("kernel_evals", 0) > 0

"""The library names the benchmark tracer wraps and the prox cases it counts.

perfbench/tracing.py wraps module attributes from outside the library and
reports a layer whose attribute is missing as absent, so a rename there
silently drops declared per-layer metrics.  The tracer is read from its file
and executed in a fresh namespace; nothing under perfbench/ is imported or
written.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from pfbundle import prox
from pfbundle.prox import solve_prox

from conftest import criterion_2_triples

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_attribute_resolves(tracing):
    for module_name, attr, span in tracing.TARGETS:
        module = importlib.import_module(f"pfbundle.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span})"


def test_prox_cases_are_the_traced_ones(tracing, monkeypatch):
    seen = {}
    for center, intercepts, slopes, n_box in criterion_2_triples(count=100):
        case = solve_prox(center, intercepts, slopes, 4.0, 0.1, n_box).case_used
        seen.setdefault(case, (center, intercepts, slopes, n_box))
    assert set(seen) == {"vertex", "edge", "interior"}

    # The safety net's label, forced by an interior solve that is off.
    exact = prox.interior_case

    def off(*args):
        z, theta, evals = exact(*args)
        return z, np.roll(theta, 1), evals

    monkeypatch.setattr(prox, "interior_case", off)
    center, intercepts, slopes, n_box = seen["interior"]
    seen[solve_prox(center, intercepts, slopes, 4.0, 0.1, n_box).case_used] = None
    assert "fallback" in seen
    assert set(seen) <= set(tracing.PROX_CASES)

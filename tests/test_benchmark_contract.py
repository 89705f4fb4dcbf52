"""The library names the benchmark tracer wraps and the prox cases it counts.

perfbench/tracing.py wraps module attributes from outside the library and
reports a layer whose attribute is missing as absent, so a rename there
silently drops declared per-layer metrics.  The tracer is read from its file
and executed in a fresh namespace; nothing under perfbench/ is imported or
written.  One test installs it on a Lanczos-path solve and checks the spans
its per-layer metrics are computed from.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from pfbundle import bundle, prox
from pfbundle.operators import DENSE_MAX_DIM
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

    # The safety net's label, forced by a Newton step that is off: its
    # weights are permuted.
    exact = prox.newton_step

    def off(vals, G, theta, rho):
        return tuple(np.roll(exact(vals, G, theta, rho), 1))

    monkeypatch.setattr(prox, "newton_step", off)
    center, intercepts, slopes, n_box = seen["interior"]
    seen[solve_prox(center, intercepts, slopes, 4.0, 0.1, n_box).case_used] = None
    assert "fallback" in seen
    assert set(seen) <= set(tracing.PROX_CASES)


def test_traced_lanczos_solve_counts_what_the_solver_did(tracing, lanczos_problem,
                                                          monkeypatch):
    assert lanczos_problem.dim > DENSE_MAX_DIM
    results = []
    solved = bundle.leading_eigenpair

    def recorded(*args, **kwargs):
        results.append(solved(*args, **kwargs))
        return results[-1]

    # The tracer wraps the recorder, so each eig span sees one result.
    monkeypatch.setattr(bundle, "leading_eigenpair", recorded)
    tracer = tracing.Tracer()
    tracer.install({name: importlib.import_module(f"pfbundle.{name}")
                    for name in ("network", "instances", "operators", "bundle", "prox")})
    try:
        report = bundle.solve(lanczos_problem)
    finally:
        tracer.uninstall()
    assert bundle.leading_eigenpair is recorded

    def named(name):
        return [span for span in tracer.spans if span["name"] == name]

    assert len(named("operators.eig")) == report.iterations + 1 == len(results)
    lanczos = named("operators.lanczos")
    assert [span["matvecs"] for span in lanczos] == [eig.matvecs for eig in results]
    assert all(span["matvecs"] > 0 for span in lanczos)
    assembles = named("operators.assemble")
    assert len(assembles) == report.iterations + 1
    assert all(span["nnz"] > 0 for span in assembles)

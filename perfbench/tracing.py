"""Outside-in tracing of pfbundle's layers for the per-layer benchmark metrics.

The tracer replaces the module attributes that the setup path and the bundle
loop call with wrappers that record one span per call: layer name, case id,
parent span, start and end.  The library itself is not modified, and the
untraced benchmark run installs no wrappers.  Spans stay in memory until the
run ends and are then written out as JSON lines.

A layer's self time is its spans' durations minus the part covered by their
child spans, so the solve-side self times plus `trace.unaccounted_s` (the
self time of the root `bundle.solve` span) add up to the traced solve time.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np

# (module, attribute, span name).  Several attributes may feed one span name:
# `bundle.dual_matrix` (rank-one recovery) and `operators.dual_matrix` (inside
# `leading_eigenpair`) are both H assemblies.
TARGETS = (
    ("network", "load_network", "network.load"),
    ("network", "replicate_feeder", "network.replicate"),
    ("instances", "plant_feasible", "instances.plant"),
    ("instances", "plant_infeasible", "instances.plant"),
    ("operators", "build_problem", "operators.build_problem"),
    ("bundle", "solve", "bundle.solve"),
    ("bundle", "init_state", "bundle.init"),
    ("bundle", "step", "bundle.step"),
    ("bundle", "recover_primal", "bundle.recover"),
    ("bundle", "solve_prox", "prox.solve"),
    ("bundle", "leading_eigenpair", "operators.eig"),
    ("bundle", "penalty_subgradient", "operators.subgradient"),
    ("bundle", "dual_matrix", "operators.assemble"),
    ("operators", "dual_matrix", "operators.assemble"),
    ("operators", "lanczos_extreme", "operators.lanczos"),
    ("prox", "qp_support_enumeration", "oracle.support_enum"),
)

# Per-layer time metrics: metric name -> span name whose self times are summed.
SELF_TIMES = {
    "network.load_s": "network.load",
    "network.replicate_s": "network.replicate",
    "instances.plant_s": "instances.plant",
    "operators.build_problem_s": "operators.build_problem",
    "operators.assemble_s": "operators.assemble",
    "operators.lanczos_s": "operators.lanczos",
    "operators.eig_self_s": "operators.eig",
    "operators.subgradient_s": "operators.subgradient",
    "prox.solve_self_s": "prox.solve",
    "oracle.support_enum_s": "oracle.support_enum",
    "bundle.init_s": "bundle.init",
    "bundle.step_self_s": "bundle.step",
    "bundle.recover_s": "bundle.recover",
    "trace.unaccounted_s": "bundle.solve",
}

PROX_CASES = ("vertex", "edge", "interior", "fallback")


class Tracer:
    """Span recorder for one benchmark process; single-threaded by design."""

    def __init__(self):
        self.spans = []
        self.case = None
        self.present = set()
        self._stack = []
        self._saved = []

    def install(self, modules: dict) -> None:
        """Wrap every target attribute that exists; record which layers are present."""
        for module_name, attr, span_name in TARGETS:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name, fn))
            self.present.add(span_name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "operators.lanczos":
                args, counter = _count_matvecs(args, kwargs)
            span = {
                "id": len(self.spans),
                "name": name,
                "case": self.case,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if name == "operators.lanczos":
                    span["matvecs"] = counter[0]
            if name == "operators.assemble":
                span["nnz"] = int(result.nnz)
            elif name == "prox.solve":
                span["prox_case"] = result.case_used
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_matvecs(args, kwargs):
    """Swap lanczos_extreme's operator argument for one that counts its calls."""
    counter = [0]
    matvec = args[0] if args else kwargs["matvec"]

    def counted(vec):
        counter[0] += 1
        return matvec(vec)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs["matvec"] = counted
    return args, counter


def layer_metrics(spans, present, seconds) -> dict:
    """Per-layer totals of one pass over a workload's cases.

    `seconds(starts, ends)` turns perf_counter readings into durations.
    Returns {metric: (value, unit)}.  A metric whose layer had no attribute to
    wrap is absent from the result rather than reported as zero.
    """
    by_id = {s["id"]: s for s in spans}
    durations = seconds(
        np.array([s["start"] for s in spans]), np.array([s["end"] for s in spans])
    )
    duration = dict(zip(by_id, durations.tolist()))
    covered = dict.fromkeys(by_id, 0.0)
    for s in spans:
        if s["parent"] in covered:
            covered[s["parent"]] += duration[s["id"]]
    self_time = {}
    count = {}
    for s in spans:
        self_time[s["name"]] = (
            self_time.get(s["name"], 0.0) + duration[s["id"]] - covered[s["id"]]
        )
        count[s["name"]] = count.get(s["name"], 0) + 1

    out = {}
    for metric, name in SELF_TIMES.items():
        if name in present:
            out[metric] = (self_time.get(name, 0.0), "s")

    if "operators.assemble" in present:
        out["operators.assemble_calls"] = (count.get("operators.assemble", 0), "count")
        nnz = [s["nnz"] for s in spans if "nnz" in s]
        # Computed from H's sparsity pattern, not measured.
        out["operators.h_nnz"] = (statistics.median(nnz) if nnz else 0, "nnz")
    if "operators.eig" in present:
        out["operators.eig_calls"] = (count.get("operators.eig", 0), "count")
    if "operators.lanczos" in present:
        lanczos = [s for s in spans if s["name"] == "operators.lanczos"]
        failures = [s for s in lanczos if s.get("error") == "EigenFailure"]
        matvecs = sum(s["matvecs"] for s in lanczos)
        out["operators.matvecs"] = (matvecs, "count")
        out["operators.lanczos_failures"] = (len(failures), "count")
        if "operators.eig" in present:
            eig_calls = count.get("operators.eig", 0)
            out["operators.matvecs_per_eig"] = (
                matvecs / eig_calls if eig_calls else 0.0, "count",
            )
            # The eigensolve still returned after Lanczos failed: dense eigh.
            out["operators.dense_fallbacks"] = (
                sum(
                    1
                    for s in failures
                    if by_id.get(s["parent"], {}).get("name") == "operators.eig"
                    and "error" not in by_id[s["parent"]]
                ),
                "count",
            )
    if "prox.solve" in present:
        cases = [s.get("prox_case") for s in spans if s["name"] == "prox.solve"]
        out["prox.calls"] = (len(cases), "count")
        for case in PROX_CASES:
            out[f"prox.case_{case}"] = (cases.count(case), "count")
        newton = cases.count("interior") + cases.count("fallback")
        # Every fallback is a failed interior Newton solve; no attempts reads 0.
        out["prox.newton_success_ratio"] = (
            cases.count("interior") / newton if newton else 0.0, "ratio",
        )
    if "oracle.support_enum" in present:
        out["oracle.support_enum_calls"] = (count.get("oracle.support_enum", 0), "count")
    return out

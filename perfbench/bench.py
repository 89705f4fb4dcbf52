"""Measurement for the pfbundle benchmark; imported by run.py once BLAS threads are capped."""

from __future__ import annotations

import ctypes
import glob
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.special import betainc

from hostclock import HostClock
from pfbundle import bundle, instances, network, operators, prox
from tracing import Tracer, layer_metrics

# Calls below go through these module objects, so traced runs see the wrappers.
MODULES = {"network": network, "instances": instances, "operators": operators,
           "prox": prox, "bundle": bundle}

# Relative accuracy a planted-feasible case must reach: |f_best - f*| / (1 + |f*|).
# Worst values at the defining commit: 2.0e-6 at 271 buses, 3.7e-7 at 10 buses.
F_GAP_TOL = 1e-5
SETUP_REPS = 6


@dataclass
class Outcome:
    case: object
    t_setup: float = 0.0    # perf_counter at set-up start, solve start, end
    t_solve: float = 0.0
    t_end: float = 0.0
    ok: bool = False
    reason: str = ""
    iterations: int = 0
    serious_steps: int = 0
    converged: bool = False
    f_gap: float | None = None


def environment(nproc: int) -> dict:
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": None,
        "nproc": nproc,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": None,
    }
    try:
        env["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "version"
        ]
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    return env


def prepare(cases, docs_dir: Path) -> dict:
    """Write each base feeder's network document once (untimed)."""
    params = network.RadialParams(series_min=0.5, series_max=1.25, shunt=0.1)
    docs = {}
    for seed in sorted({c.base_seed for c in cases}):
        net, limits = network.synth_radial(10, seed, params)
        docs[seed] = docs_dir / f"feeder-{seed}.json"
        network.save_network(docs[seed], net, limits)
    return docs


def set_up(case, doc: Path):
    net, limits = network.load_network(doc)
    net, limits = network.replicate_feeder(net, limits, case.copies)
    plant = instances.plant_feasible if case.feasible else instances.plant_infeasible
    planted = plant(net)
    return planted, operators.build_problem(net, planted.limits, planted.u)


def run_case(case, doc: Path, config) -> Outcome:
    """Set up and solve one case; any exception makes it a failed case."""
    out = Outcome(case)
    out.t_setup = time.perf_counter()
    stage = "setup"
    try:
        planted, problem = set_up(case, doc)
        out.t_solve = time.perf_counter()
        stage = "solve"
        report = bundle.solve(problem, config)
        out.t_end = time.perf_counter()
    except Exception as exc:  # a failed case must not stop the benchmark
        out.t_end = time.perf_counter()
        if stage == "setup":
            out.t_solve = out.t_end
        out.reason = f"{stage} raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
        return out
    out.iterations = report.iterations
    out.serious_steps = report.serious_steps
    out.converged = report.converged
    expected = "feasible" if case.feasible else "infeasible_or_undecided"
    if case.feasible:
        out.f_gap = abs(report.f_best - planted.f_star) / (1.0 + abs(planted.f_star))
    if not report.converged:
        out.reason = "did not converge"
    elif report.verdict != expected:
        out.reason = f"verdict {report.verdict}, planted {expected}"
    elif out.f_gap is not None and not out.f_gap <= F_GAP_TOL:
        out.reason = f"relative f gap {out.f_gap:.3e} above {F_GAP_TOL:.0e}"
    else:
        out.ok = True
    return out


def timed_passes(seconds: float, one_pass) -> list:
    """Whole passes until the next one would overrun `seconds`; at least one."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return results


def hd_quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics.  Case times cluster by whole iteration counts, so the
    plain sample median jumps between clusters as the seed changes the case
    set; this estimate moves smoothly instead."""
    ordered = np.sort(values)
    n = ordered.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ ordered)


def tail(values: list) -> tuple:
    """Highest percentile with at least ten samples beyond it; the max below 11."""
    n = len(values)
    if n < 11:
        return max(values), 100.0
    q = (n - 10) / n
    return hd_quantile(values, q), 100.0 * q


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def wall(t0, t1):
    return t1 - t0


def end_to_end(cases, docs, config, seconds) -> tuple:
    def setup_rep():
        t0 = time.perf_counter()
        for case in cases:
            try:
                set_up(case, docs[case.base_seed])
            except Exception:  # counted as a failure in the measured passes
                pass
        return t0, time.perf_counter()

    def one_pass(_):
        t0 = time.perf_counter()
        outcomes = [run_case(c, docs[c.base_seed], config) for c in cases]
        return outcomes, (t0, time.perf_counter())

    with HostClock() as clock:
        setup_reps = [setup_rep() for _ in range(SETUP_REPS // 2)]
        passes = timed_passes(seconds, one_pass)
        setup_reps += [setup_rep() for _ in range(SETUP_REPS - SETUP_REPS // 2)]
    outcomes = [o for pass_outcomes, _ in passes for o in pass_outcomes]
    failed = sum(not o.ok for o in outcomes)

    def timings(duration):
        per_case = [
            statistics.median(duration(o.t_solve, o.t_end) for o in outcomes if o.case == c)
            for c in cases
        ]
        solve_tail, percentile = tail(per_case)
        return percentile, {
            "setup_s": metric(statistics.median(duration(*r) for r in setup_reps), "s"),
            "solve_s": metric(hd_quantile(per_case, 0.5), "s"),
            "solve_s_tail": metric(solve_tail, "s"),
            "cases_per_s": metric(len(outcomes) / sum(duration(*w) for _, w in passes), "1/s"),
        }

    percentile, metrics = timings(clock.seconds)
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    metrics["verified_frac"] = metric(1.0 - failed / len(outcomes), "fraction")
    metrics = {k: {"value": float(v["value"]), "unit": v["unit"]} for k, v in metrics.items()}
    info = {
        "samples": {
            "cases": len(cases),
            "passes": len(passes),
            "solve_s": f"{len(cases)} cases, each the median of its {len(passes)} passes",
            "estimator": "Harrell-Davis median and tail quantile across cases",
            "solve_s_tail_percentile": percentile,
            "setup_reps": SETUP_REPS,
            "host_probes": clock.probes(),
        },
        "failed_frac": metric(failed / len(outcomes), "fraction"),
        "wall_clock": {k: v["value"] for k, v in timings(wall)[1].items()},
    }
    return outcomes, metrics, info


def per_layer(cases, docs, config, seconds, spans_path: Path) -> tuple:
    tracer = Tracer()

    def one_pass(index):
        first = len(tracer.spans)
        outcomes = []
        for c in cases:
            tracer.case = f"{index}:{c.name}"
            outcomes.append(run_case(c, docs[c.base_seed], config))
        return outcomes, (first, len(tracer.spans))

    with HostClock() as clock:
        reference = [run_case(c, docs[c.base_seed], config) for c in cases]
        tracer.install(MODULES)
        try:
            passes = timed_passes(seconds, one_pass)
        finally:
            tracer.uninstall()

    tracer.write(spans_path)

    def solve_total(outcomes):
        return float(sum(clock.seconds(o.t_solve, o.t_end) for o in outcomes))

    untraced_solve = solve_total(reference)
    samples = {}
    for outcomes, (first, last) in passes:
        iterations = sum(o.iterations for o in outcomes)
        gaps = [o.f_gap for o in outcomes if o.f_gap is not None]
        row = layer_metrics(tracer.spans[first:last], tracer.present, clock.seconds)
        row["bundle.iterations"] = (iterations, "count")
        row["bundle.serious_ratio"] = (
            sum(o.serious_steps for o in outcomes) / iterations if iterations else 0.0, "ratio",
        )
        row["bundle.converged_ratio"] = (
            sum(o.converged for o in outcomes) / len(outcomes), "ratio",
        )
        # Computed: untraced reference solve time over this pass's iterations.
        row["bundle.s_per_iter"] = (
            untraced_solve / iterations if iterations else 0.0, "s/iter",
        )
        # Worst planted-feasible accuracy; 0 when the workload plants none.
        row["bundle.f_gap_rel"] = (max(gaps) if gaps else 0.0, "ratio")
        row["trace.overhead_s"] = (solve_total(outcomes) - untraced_solve, "s")
        for name, (value, unit) in row.items():
            samples.setdefault(name, ([], unit))[0].append(value)
    metrics = {
        name: metric(statistics.median_low(values), unit)
        for name, (values, unit) in sorted(samples.items())
    }
    outcomes = reference + [o for pass_outcomes, _ in passes for o in pass_outcomes]
    info = {
        "samples": {"cases": len(cases), "traced_passes": len(passes),
                    "host_probes": clock.probes()},
        "computed": ["operators.h_nnz", "operators.matvecs_per_eig", "bundle.s_per_iter"],
        "split": split(metrics),
    }
    return outcomes, metrics, info


def split(metrics: dict) -> dict:
    """Share of traced setup-plus-solve time per layer (self times)."""
    groups = {
        "setup": ["network.load_s", "network.replicate_s", "instances.plant_s",
                  "operators.build_problem_s"],
        "operators.assemble": ["operators.assemble_s"],
        "operators.eig": ["operators.lanczos_s", "operators.eig_self_s"],
        "operators.subgradient": ["operators.subgradient_s"],
        "prox": ["prox.solve_self_s"],
        "oracle": ["oracle.support_enum_s"],
        "bundle": ["bundle.init_s", "bundle.step_self_s", "bundle.recover_s"],
        "unaccounted": ["trace.unaccounted_s"],
    }
    seconds = {
        group: sum(metrics[m]["value"] for m in names if m in metrics)
        for group, names in groups.items()
    }
    total = sum(seconds.values())
    return {group: round(s / total, 4) if total else 0.0 for group, s in seconds.items()}

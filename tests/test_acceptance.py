"""Acceptance gate: one test per numbered criterion, at the stated tolerance.

Each test measures the quantity its criterion pins down, appends a one-line
summary to the terminal report, and fails if the threshold is missed.  The
scaling check (criterion 9) is a soft gate: its line reports the measured
factor but only data-production problems fail the test.
"""

import json
import time

import numpy as np
import pytest

from pfbundle import (
    RadialParams,
    SolverConfig,
    build_problem,
    plant_feasible,
    plant_infeasible,
    replicate_feeder,
    save_network,
    solve,
    synth_radial,
)
from pfbundle.bundle import ETA, init_state, step
from pfbundle.cli import EXIT_NOT_FEASIBLE, main
from pfbundle.operators import (
    apply_constraint_rank1,
    dual_matrix,
    lanczos_extreme,
    leading_eigenpair,
)
from pfbundle.oracle import (
    dense_lambda_max,
    dense_penalty_value,
    projected_subgradient_reference,
    qp_support_enumeration,
)
from pfbundle.prox import solve_prox

from conftest import (
    ACCEPTANCE_LINES,
    constraint_adjoint_matrix,
    criterion_2_triples,
    criterion_4_feeders,
    criterion_4_walk_step,
    shift_invert,
    slack_block_matrix,
)


def record(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {number}] {status}: {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (raw + raw.conj().T)


def test_criterion_1_adjoint_identity_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_a = 0.0
    worst_b_numeric = 0.0
    embedding_exact = True
    networks = []
    for _ in range(100):
        n = int(rng.integers(2, 31))
        net, lim = synth_radial(n, seed=int(rng.integers(0, 1_000_000)))
        u = rng.normal(size=3 * n)
        networks.append(build_problem(net, lim, u))
    for trial in range(1000):
        problem = networks[trial % len(networks)]
        dim = problem.dim
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        y = rng.normal(size=problem.n_box)
        lhs = float(y @ apply_constraint_rank1(problem, v))
        rhs = float(np.vdot(v, constraint_adjoint_matrix(problem, y) @ v).real)
        scale = 1.0 + max(abs(lhs), abs(rhs))
        worst_a = max(worst_a, abs(lhs - rhs) / scale)

        gamma = random_hermitian(rng, 3)
        B = slack_block_matrix(gamma, problem.n_buses)
        corner = B.toarray()[:3, :3]
        if not (np.array_equal(corner, gamma) and B.nnz <= 9):
            embedding_exact = False
        lhs_b = float(np.vdot(v[:3], gamma @ v[:3]).real)
        rhs_b = float(np.vdot(v, B @ v).real)
        worst_b_numeric = max(
            worst_b_numeric, abs(lhs_b - rhs_b) / (1.0 + abs(lhs_b))
        )
    elapsed = time.perf_counter() - t0
    ok = worst_a <= 1e-10 and embedding_exact and elapsed < 10.0
    record(
        1,
        ok,
        f"1000 triples, capacity adjoint err {worst_a:.2e} (<= 1e-10 scaled), "
        f"slack-block embedding bitwise exact ({embedding_exact}, numeric route "
        f"{worst_b_numeric:.1e}), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_prox_oracle_equivalence():
    t0 = time.perf_counter()
    worst_obj = 0.0
    worst_kkt = 0.0
    for center, intercepts, slopes, n_box in criterion_2_triples():
        sol = solve_prox(center, intercepts, slopes, 4.0, 0.1, n_box)
        ref = qp_support_enumeration(
            center, np.asarray(intercepts), slopes, 4.0, 0.1, n_box
        )
        worst_obj = max(worst_obj, abs(sol.objective - ref.objective))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_obj <= 1e-8 and worst_kkt <= 1e-8 and elapsed < 60.0
    record(
        2,
        ok,
        f"1000 triples, objective err {worst_obj:.2e} (<= 1e-8), "
        f"KKT residual {worst_kkt:.2e} (<= 1e-8), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_edge_sweep_monotonicity():
    rng = np.random.default_rng(103)
    grid = np.linspace(0.0, 1.0, 1000)
    worst_increase = -np.inf
    for _ in range(500):
        dim = int(rng.integers(2, 30))
        n_box = int(rng.integers(0, dim + 1))
        center = rng.normal(size=dim)
        hi = rng.normal(size=dim)
        hj = rng.normal(size=dim)
        ai, aj = rng.normal(size=2)
        rho, beta = 4.0, 0.1
        # phi(s) at all grid points: project the moving anchor, then take the
        # height difference of the two cuts.
        W = center[None, :] - (np.outer(grid, hi - hj) + hj[None, :]) / rho
        Z = W.copy()
        if n_box:
            np.clip(Z[:, :n_box], 0.0, beta, out=Z[:, :n_box])
        phi = (ai - aj) + Z @ (hi - hj)
        worst_increase = max(worst_increase, float(np.diff(phi).max()))
    ok = worst_increase <= 1e-12
    record(
        3,
        ok,
        f"500 edges x 1000 grid points, max increase {worst_increase:.2e}"
        " (<= 1e-12)",
    )


def test_criterion_4_lanczos_vs_dense():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst_val = 0.0
    worst_resid = 0.0
    for trial in range(200):
        dim = int(rng.integers(2, 301))
        A = random_hermitian(rng, dim)
        if trial % 4 == 0:
            # Cluster the top of the spectrum to stress the iteration.
            evals, evecs = np.linalg.eigh(A)
            evals[-3:] = evals[-1] - np.array([2e-4, 1e-4, 0.0])
            A = (evecs * evals) @ evecs.conj().T
            A = 0.5 * (A + A.conj().T)
        # Lanczos on (sigma I - A)^-1, with the shift 1%, 10% or 100% of
        # 1 + |lambda_max| above the top.
        lam, _ = dense_lambda_max(A)
        sigma = lam + 10.0 ** -(trial % 3) * (1.0 + abs(lam))
        matvec, forward = shift_invert(A, sigma)
        eig = lanczos_extreme(matvec, dim, rng, forward=forward, start=np.ones(dim),
                              tol=1e-10)
        value = sigma - 1.0 / eig.value
        worst_val = max(worst_val, abs(value - lam) / (1.0 + abs(lam)))
        worst_resid = max(
            worst_resid, float(np.linalg.norm(A @ eig.vector - value * eig.vector)))
    # leading_eigenpair's factor path on feeders above DENSE_MAX_DIM: a call
    # at the start point without a start vector, then calls along a random
    # walk of points, each started from the previous eigenvector as the
    # bundle loop does.
    feeder_calls = 0
    for problem in criterion_4_feeders():
        x = problem.start_point()
        start = None
        for _ in range(6):
            eig = leading_eigenpair(problem, x, rng, start=start)
            mat = -dual_matrix(problem, x).toarray()
            lam, _ = dense_lambda_max(mat)
            worst_val = max(worst_val, abs(eig.value - lam) / (1.0 + abs(lam)))
            worst_resid = max(
                worst_resid, float(np.linalg.norm(mat @ eig.vector - eig.value * eig.vector)))
            feeder_calls += 1
            start = eig.vector
            x = criterion_4_walk_step(rng, problem, x)
    elapsed = time.perf_counter() - t0
    ok = worst_val <= 1e-9 and worst_resid <= 1e-9
    record(
        4,
        ok,
        f"200 operators (dim <= 300) and {feeder_calls} feeder eigensolves above "
        f"DENSE_MAX_DIM, eigenvalue err {worst_val:.2e} (<= 1e-9), "
        f"residual {worst_resid:.2e} (<= 1e-9), {elapsed:.1f}s",
    )


def test_criterion_5_planted_feasible_end_to_end(
    two_bus, two_bus_planted, ten_bus, ten_bus_planted, tight_config
):
    t0 = time.perf_counter()
    results = []
    for name, net, inst in (
        ("2-bus", two_bus, two_bus_planted),
        ("10-bus", ten_bus, ten_bus_planted),
    ):
        problem = build_problem(net, inst.limits, inst.u)
        report = solve(problem, tight_config)
        results.append((name, problem, report))
    elapsed = time.perf_counter() - t0
    parts = []
    ok = elapsed < 30.0
    for name, problem, report in results:
        cert = report.certificate
        # Complementarity of the voltage with H at the center, relative to
        # ||H||_F.
        H = dual_matrix(problem, report.center)
        v = cert.voltage
        comp = np.linalg.norm(H @ v) * np.linalg.norm(v) if v is not None else np.inf
        case_ok = (
            report.converged
            and report.final_delta <= 1e-5
            and report.verdict == "feasible"
            and cert.slack_total <= 1e-6
            and cert.top_block_err <= 1e-6
            and comp <= 1e-6 * np.linalg.norm(H.data)
            and cert.duality_gap <= 1e-4
        )
        ok = ok and case_ok
        parts.append(
            f"{name}: delta {report.final_delta:.1e}, verdict {report.verdict}, "
            f"slack {cert.slack_total:.1e}, corner {cert.top_block_err:.1e}, "
            f"comp {comp:.1e}, duality {cert.duality_gap:.1e}"
        )
    record(5, ok, "; ".join(parts) + f"; {elapsed:.1f}s (< 30s)")


def test_criterion_6_infeasible_instance_exit_code(tmp_path, capsys, two_bus):
    inst = plant_infeasible(two_bus)
    net_path = tmp_path / "infeasible.json"
    u_path = tmp_path / "infeasible.u.json"
    report_path = tmp_path / "report.json"
    save_network(net_path, two_bus, inst.limits)
    u_path.write_text(json.dumps({"u": [float(v) for v in inst.u]}))
    code = main([
        "assess", str(net_path), "--injection", str(u_path),
        "--out", str(report_path),
    ])
    capsys.readouterr()
    doc = json.loads(report_path.read_text())
    slack = doc["certificate"]["slack_total"]
    ok = code == EXIT_NOT_FEASIBLE and slack > 1e-3
    record(
        6,
        ok,
        f"shrunk voltage caps: slack_total {slack:.3f} (> 1e-3), "
        f"exit code {code} (== 2)",
    )


def check_bundle_invariants(problem, config, rng, n_points=100):
    """Run the loop manually, checking descent-test and minorant invariants."""
    samples = []
    for _ in range(n_points):
        y = rng.uniform(0.0, config.beta, size=problem.n_box)
        tail = rng.normal(size=9)
        samples.append(np.concatenate([y, tail]))
    samples = np.array(samples)
    f_samples = np.array([
        dense_penalty_value(problem, s)[0]
        for s in samples
    ])

    state = init_state(problem, config)
    worst_delta = np.inf
    worst_gap = np.inf  # min over (f(sample) - cut(sample))
    serious_ok = True
    prev = state.f_center
    while not state.converged and state.iteration < config.max_iters:
        vals = samples @ state.S.T + state.a       # one column per cut
        worst_gap = min(worst_gap, float((f_samples[:, None] - vals).min()))
        rec = step(state)
        worst_delta = min(worst_delta, rec.delta / (1.0 + abs(prev)))
        if rec.serious and not (
            rec.f_candidate <= prev - ETA * rec.delta
        ):
            serious_ok = False
        prev = state.f_center
    return state, worst_delta, worst_gap, serious_ok


def test_criterion_7_bundle_invariants(
    two_bus, two_bus_planted, ten_bus, ten_bus_planted, tight_config
):
    rng = np.random.default_rng(107)
    runs = [
        (build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u),
         tight_config),
        (build_problem(ten_bus, ten_bus_planted.limits, ten_bus_planted.u),
         tight_config),
        (build_problem(two_bus, plant_infeasible(two_bus).limits,
                       plant_infeasible(two_bus).u), SolverConfig()),
    ]
    worst_delta = np.inf
    worst_gap = np.inf
    serious_ok = True
    converged_all = True
    for problem, config in runs:
        state, wd, wg, so = check_bundle_invariants(problem, config, rng)
        worst_delta = min(worst_delta, wd)
        worst_gap = min(worst_gap, wg)
        serious_ok = serious_ok and so
        converged_all = converged_all and state.converged
    f_scale = 1.0  # gaps already absolute; report against a unit yardstick
    ok = (
        worst_delta >= -1e-12
        and serious_ok
        and worst_gap >= -1e-9
        and converged_all
    )
    record(
        7,
        ok,
        f"3 runs: min scaled delta {worst_delta:.2e} (>= -1e-12), serious-step "
        f"decrease honored ({serious_ok}), min cut slack at 100 sampled points "
        f"{worst_gap:.2e} (>= -1e-9)",
    )


def test_criterion_8_cross_method_bound(
    two_bus, two_bus_planted, ten_bus, ten_bus_planted, tight_config
):
    t0 = time.perf_counter()
    margins = []
    for net, inst, iters in (
        (two_bus, two_bus_planted, 20000),
        (ten_bus, ten_bus_planted, 8000),
    ):
        problem = build_problem(net, inst.limits, inst.u)
        report = solve(problem, tight_config)
        ref = projected_subgradient_reference(problem, iterations=iters)
        margins.append(ref.best_value + 1e-3 - report.f_best)
    elapsed = time.perf_counter() - t0
    ok = all(m >= 0.0 for m in margins)
    record(
        8,
        ok,
        f"bundle value below subgradient reference + 1e-3 by "
        f"{min(margins):.2e} at worst, {elapsed:.1f}s",
    )


def test_criterion_9_prox_scaling_soft_gate():
    params = RadialParams(series_min=0.5, series_max=1.25, shunt=0.1)
    base, base_limits = synth_radial(10, seed=3, params=params)
    config = SolverConfig()
    prox_means = {1: [], 10: []}
    ok_runs = True
    for k, means in prox_means.items():
        net = base if k == 1 else replicate_feeder(base, base_limits, k)[0]
        inst = plant_feasible(net)
        problem = build_problem(net, inst.limits, inst.u)
        for _ in range(2):
            report = solve(problem, config)
            ok_runs = ok_runs and report.converged
            means.append(np.mean([rec.prox_seconds for rec in report.history]))

    factor = np.mean(prox_means[10]) / np.mean(prox_means[1])
    soft_ok = factor <= 8.0
    status = "within" if soft_ok else "EXCEEDS"
    # Soft gate: the measured factor is reported; only broken runs fail.
    record(
        9,
        ok_runs,
        f"mean prox time factor k=1 -> k=10: {factor:.2f} ({status} soft"
        f" bound 8.0; machine-dependent, not hard-failed)",
    )

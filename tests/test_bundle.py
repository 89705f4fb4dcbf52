"""Bundle loop invariants, certificates, and end-to-end planted solves."""

import dataclasses
import json

import numpy as np
import pytest

from pfbundle import (
    OperatingLimits,
    SolverConfig,
    ThreePhaseNetwork,
    build_problem,
    solve,
)
from pfbundle import bundle
from pfbundle.bundle import init_state, recover_primal, step
from pfbundle.operators import (
    DENSE_MAX_DIM,
    DualPoint,
    EigenFailure,
    leading_eigenpair,
    penalty_value,
)
from pfbundle.oracle import dense_penalty_value


def generous_limits(n_buses):
    m = 3 * n_buses
    return OperatingLimits(
        p_upper=np.full(m, 50.0),
        p_lower=np.full(m, -50.0),
        q_upper=np.full(m, 50.0),
        q_lower=np.full(m, -50.0),
        v_upper=np.full(m, 50.0),
        v_lower=np.zeros(m),
    )


def network_with_flat_matrix(H):
    """Two-bus network whose assembled admittance equals the Hermitian H."""
    blocks = {
        (0, 0): H[0:3, 0:3].copy(),
        (0, 1): H[0:3, 3:6].copy(),
        (1, 0): H[3:6, 0:3].copy(),
        (1, 1): H[3:6, 3:6].copy(),
    }
    net = ThreePhaseNetwork(n_buses=2, blocks=blocks, topology="constructed")
    net.validate()
    return net


def psd_with_null_vector(v_unit, rng, eigenvalues=(1.0, 2.0, 3.0, 4.0, 5.0)):
    """Hermitian PSD matrix with the given unit null vector and known spectrum."""
    dim = v_unit.size
    cols = [v_unit]
    while len(cols) < dim:
        w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for q in cols:
            w = w - np.vdot(q, w) * q
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            cols.append(w / norm)
    H = np.zeros((dim, dim), dtype=complex)
    for lam, q in zip(eigenvalues, cols[1:]):
        H += lam * np.outer(q, q.conj())
    return 0.5 * (H + H.conj().T)


def test_solver_config_validation():
    with pytest.raises(ValueError, match="rho"):
        SolverConfig(rho=0.0).validate()
    with pytest.raises(ValueError, match="eta"):
        SolverConfig(eta=1.0).validate()
    with pytest.raises(ValueError, match="eps"):
        SolverConfig(eps=0.0).validate()
    with pytest.raises(ValueError, match="beta"):
        SolverConfig(beta=-1.0).validate()
    with pytest.raises(ValueError, match="beta"):
        SolverConfig(beta=0.0).validate()
    with pytest.raises(ValueError, match="alpha"):
        SolverConfig(alpha=-1.0).validate()
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0).validate()
    with pytest.raises(ValueError, match="max_krylov"):
        SolverConfig(max_krylov=0).validate()
    with pytest.raises(ValueError, match="max_restarts"):
        SolverConfig(max_restarts=-1).validate()
    with pytest.raises(ValueError, match="eps must be a number"):
        SolverConfig(eps="abc").validate()
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        SolverConfig(max_iters="10").validate()
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        SolverConfig(max_iters=10.0).validate()
    with pytest.raises(ValueError, match="seed must be an integer"):
        SolverConfig(seed=True).validate()
    with pytest.raises(ValueError, match="rho must be a number"):
        SolverConfig(rho=False).validate()
    with pytest.raises(ValueError, match="alpha must be a number"):
        SolverConfig(alpha="1").validate()
    SolverConfig(alpha=3, rho=4, seed=np.int64(2)).validate()
    with pytest.raises(ValueError, match="gap_tol must be finite"):
        SolverConfig(gap_tol=float("inf")).validate()
    with pytest.raises(ValueError, match="rho must be finite"):
        SolverConfig(rho=float("nan")).validate()
    cfg = SolverConfig()
    assert (cfg.rho, cfg.eta, cfg.eps, cfg.beta) == (4.0, 0.1, 1e-5, 0.1)
    assert json.loads(json.dumps(bundle.as_json_dict(cfg))) == dataclasses.asdict(cfg)


def test_init_state_builds_linear_model(two_bus, two_bus_planted):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    state = init_state(problem, SolverConfig())
    np.testing.assert_array_equal(state.a, np.zeros(3))
    assert state.S.shape == (3, problem.n_flat)
    for slope in state.S:
        np.testing.assert_array_equal(slope, problem.fixed_slope)
    np.testing.assert_array_equal(
        state.center[: problem.n_box], np.full(problem.n_box, 0.05)
    )
    f_dense, _, _ = dense_penalty_value(
        problem, DualPoint(flat=state.center, n_buses=2)
    )
    assert state.f_center == pytest.approx(f_dense, abs=1e-8)


def test_manual_stepping_invariants(ten_bus, ten_bus_planted):
    problem = build_problem(ten_bus, ten_bus_planted.limits, ten_bus_planted.u)
    config = SolverConfig()
    state = init_state(problem, config)
    prev_center_value = state.f_center
    while not state.converged and state.iteration < config.max_iters:
        record = step(state)
        scale = 1.0 + abs(prev_center_value)
        assert record.delta >= -1e-12 * scale
        if record.serious:
            assert record.f_candidate <= prev_center_value - config.eta * record.delta
            assert state.f_center == record.f_candidate
        else:
            assert state.f_center == prev_center_value
        assert record.prox_seconds >= 0.0
        assert record.case_used in ("vertex", "edge", "interior", "fallback")
        prev_center_value = state.f_center
    assert state.converged
    assert state.history[-1].delta <= config.eps
    # Center values never increase across the run.
    centers = [r.f_center for r in state.history]
    assert all(b <= a + 1e-15 for a, b in zip(centers, centers[1:]))


def test_cut_refresh_makes_model_tight_at_candidate(two_bus, two_bus_planted):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    config = SolverConfig()
    state = init_state(problem, config)
    record = step(state)
    if not state.converged:
        # The refreshed current cut touches the sampled value at the
        # candidate, and the aggregate reproduces the model optimum there.
        z = state.center if record.serious else None
        # Recover the candidate: it is where the current cut was anchored.
        # Its value there must match the unclipped objective sample.
        cur, agg = state.a[1:] + state.S[1:] @ state.center
        x = DualPoint(flat=np.asarray(
            state.center if record.serious else state.center), n_buses=2)
        if record.serious:
            _, f_lambda, _ = dense_penalty_value(problem, x)
            assert cur == pytest.approx(f_lambda, abs=1e-8)
            assert agg == pytest.approx(record.model_value, abs=1e-9)


def test_final_cuts_minorize_the_objective(two_bus, two_bus_planted):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    state = init_state(problem, SolverConfig())
    for _ in range(6):
        if state.converged:
            break
        step(state)
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = rng.uniform(0.0, problem.beta, size=problem.n_box)
        tail = rng.normal(size=9)
        flat = np.concatenate([y, tail])
        f, _, _ = dense_penalty_value(problem, DualPoint(flat=flat, n_buses=2))
        for value in state.a + state.S @ flat:
            assert value <= f + 1e-9 * (1.0 + abs(f))


def test_two_bus_planted_reaches_analytic_value(two_bus, two_bus_planted, tight_config):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    report = solve(problem, tight_config)
    assert report.converged
    assert report.verdict == "feasible"
    assert report.f_best == pytest.approx(two_bus_planted.f_star, abs=1e-9)
    cert = report.certificate
    assert cert.slack_total <= 1e-8
    assert cert.top_block_err <= 1e-6
    assert cert.comp_res <= cert.comp_tol
    assert cert.eigen_gap >= 0.1
    assert cert.duality_gap <= 1e-6
    # The certificate voltage reproduces the planted profile up to phase.
    v = cert.voltage
    target = two_bus_planted.voltage
    phase = np.vdot(v, target) / abs(np.vdot(v, target))
    assert np.abs(phase * v - target).max() <= 1e-3


def test_ten_bus_planted_reaches_analytic_value(ten_bus, ten_bus_planted, tight_config):
    problem = build_problem(ten_bus, ten_bus_planted.limits, ten_bus_planted.u)
    report = solve(problem, tight_config)
    assert report.converged
    assert report.verdict == "feasible"
    assert report.f_best == pytest.approx(ten_bus_planted.f_star, abs=1e-8)
    assert report.certificate.top_block_err <= 1e-6


def test_infeasible_instance_is_not_certified(two_bus, two_bus_infeasible):
    problem = build_problem(two_bus, two_bus_infeasible.limits, two_bus_infeasible.u)
    report = solve(problem, SolverConfig())
    assert report.converged
    assert report.verdict == "infeasible_or_undecided"
    assert report.certificate.slack_total > 1e-3


def test_recovery_reproduces_known_null_vector():
    rng = np.random.default_rng(11)
    slack = np.array([1.0, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3)])
    tail = np.array([0.3 - 0.2j, -0.1 + 0.4j, 0.25 + 0.05j])
    target = np.concatenate([slack, tail])
    v_unit = target / np.linalg.norm(target)
    H = psd_with_null_vector(v_unit, rng)
    net = network_with_flat_matrix(H)
    problem = build_problem(net, generous_limits(2), np.zeros(6))
    x = DualPoint(flat=np.zeros(problem.n_flat), n_buses=2)
    cert = recover_primal(problem, x, leading_eigenpair(problem, x, rng), SolverConfig())
    assert cert.recovered
    # The rescaling aligns the slack block exactly with the reference
    # voltage, reproducing the planted vector to near machine precision.
    assert np.abs(cert.voltage - target).max() <= 1e-10
    assert cert.top_block_err <= 1e-10
    assert abs(cert.lambda_min) <= 1e-10
    assert cert.eigen_gap == pytest.approx(1.0, abs=1e-8)
    assert cert.verdict == "feasible"
    assert cert.duality_gap == np.inf  # no dual value supplied


def test_recovery_flags_zero_slack_block():
    rng = np.random.default_rng(12)
    tail = np.array([0.5 + 0.1j, -0.3 + 0.2j, 0.8 - 0.4j])
    target = np.concatenate([np.zeros(3), tail])
    v_unit = target / np.linalg.norm(target)
    H = psd_with_null_vector(v_unit, rng)
    net = network_with_flat_matrix(H)
    problem = build_problem(net, generous_limits(2), np.zeros(6))
    x = DualPoint(flat=np.zeros(problem.n_flat), n_buses=2)
    cert = recover_primal(problem, x, leading_eigenpair(problem, x, rng), SolverConfig())
    assert not cert.recovered
    assert cert.verdict == "infeasible_or_undecided"
    assert "zero slack block" in cert.detail
    assert cert.voltage is None


def test_penalty_vanishes_at_convergence(two_bus, two_bus_planted, tight_config):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    report = solve(problem, tight_config)
    x = DualPoint(flat=report.center, n_buses=2)
    f, _, lam = dense_penalty_value(problem, x)
    # At the solution the eigenvalue penalty is inactive (or vanishing), so
    # the penalized value coincides with the plain dual objective.
    assert problem.alpha * max(lam, 0.0) <= 1e-6
    linear = float(problem.fixed_slope @ report.center)
    assert abs(f - linear) <= 1e-6


def test_penalty_equals_plain_dual_objective_where_inactive(two_bus, two_bus_planted):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    C = 0.5 * (problem.Y.toarray() + problem.Y.toarray().conj().T)
    S = C[:3, :3] - C[:3, 3:] @ np.linalg.solve(C[3:, 3:], C[3:, :3])
    gamma = -S + 0.1 * np.eye(3)
    x = problem.point(np.zeros(problem.n_box), gamma)
    eig = leading_eigenpair(problem, x, np.random.default_rng(0))
    f, f_lambda = penalty_value(problem, x, eig)
    assert eig.value < 0.0
    # With the positive part clipped to zero the penalized value equals the
    # plain dual objective bitwise.
    assert f == float(problem.fixed_slope @ x.flat)
    assert f_lambda < f
    f_dense, _, lam = dense_penalty_value(problem, x)
    assert lam < 0.0
    assert f_dense == pytest.approx(f, abs=1e-10)


def test_solve_reports_are_serializable_and_consistent(two_bus, two_bus_planted):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    report = solve(problem, SolverConfig())
    assert report.iterations == len(report.history)
    assert report.serious_steps == sum(1 for r in report.history if r.serious)
    assert report.wall_seconds > 0.0
    doc = report.to_dict()
    encoded = json.dumps(doc)
    decoded = json.loads(encoded)
    assert decoded["verdict"] == report.verdict
    assert decoded["certificate"]["slack_total"] == report.certificate.slack_total
    assert len(decoded["history"]) == report.iterations
    assert len(decoded["center"]) == problem.n_flat
    # The key sets are pinned: they are the report format.
    assert set(doc) == {
        "n_buses", "config", "converged", "iterations", "serious_steps", "f_best",
        "final_delta", "verdict", "certificate", "center", "warnings",
        "wall_seconds", "history",
    }
    assert set(doc["certificate"]) == {
        "recovered", "verdict", "slack_total", "top_block_err", "comp_res",
        "comp_tol", "eigen_gap", "lambda_min", "primal_objective", "duality_gap",
        "detail", "voltage",
    }
    assert set(doc["history"][0]) == {
        "iteration", "f_center", "f_candidate", "model_value", "delta", "serious",
        "case_used", "kkt_residual", "lambda_neg", "eig_matvecs", "prox_seconds",
        "step_norm",
    }


def test_iteration_budget_exhaustion_is_reported(two_bus, two_bus_planted):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    report = solve(problem, SolverConfig(max_iters=1, eps=1e-14))
    assert not report.converged
    assert report.verdict == "not_converged"
    assert any("model gap" in w for w in report.warnings)


@pytest.mark.parametrize("stage", ["init_state"])
def test_eigen_failure_ends_in_a_named_report(two_bus, two_bus_planted, monkeypatch, stage):
    def fail(*args, **kwargs):
        raise EigenFailure("forced")

    monkeypatch.setattr(bundle, stage, fail)
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    report = solve(problem)
    assert report.verdict == "not_converged"
    where = "at the start point"
    assert report.warnings[-1] == f"eigen solver failed {where}: forced"
    assert not report.certificate.recovered
    json.dumps(report.to_dict(), allow_nan=False)


def count_eigensolves(monkeypatch, fail_at=None):
    """Count bundle.leading_eigenpair calls; raise EigenFailure on call fail_at."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        if len(calls) == fail_at:
            raise EigenFailure("forced")
        return leading_eigenpair(*args, **kwargs)

    monkeypatch.setattr(bundle, "leading_eigenpair", counted)
    return calls


def test_eigen_failure_mid_run_ends_in_a_named_report(two_bus, two_bus_planted, monkeypatch):
    # Calls 1 and 2 are the start point and iteration 1; call 3 fails in
    # iteration 2, and the certificate reuses the center's eigenpair.
    calls = count_eigensolves(monkeypatch, fail_at=3)
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    report = solve(problem)
    assert len(calls) == 3
    assert report.verdict == "not_converged"
    assert report.iterations == 2
    assert "eigen solver failed at iteration 2: forced" in report.warnings
    assert report.certificate.recovered
    json.loads(json.dumps(report.to_dict(), allow_nan=False))


def test_solve_runs_one_eigensolve_per_point(ten_bus, ten_bus_planted, monkeypatch):
    # One at the start point and one per candidate; none in recovery.
    calls = count_eigensolves(monkeypatch)
    problem = build_problem(ten_bus, ten_bus_planted.limits, ten_bus_planted.u)
    report = solve(problem)
    assert report.converged
    assert len(calls) == report.iterations + 1


def test_lanczos_solve_warm_starts_every_eigensolve_after_the_first(
    lanczos_problem, monkeypatch
):
    starts = []

    def recorded(*args, **kwargs):
        starts.append(kwargs.get("start"))
        return leading_eigenpair(*args, **kwargs)

    monkeypatch.setattr(bundle, "leading_eigenpair", recorded)
    report = solve(lanczos_problem)
    assert lanczos_problem.dim > DENSE_MAX_DIM
    assert report.converged and len(starts) == report.iterations + 1
    assert starts[0] is None
    assert all(start is not None for start in starts[1:])
    assert all(record.eig_matvecs > 0 for record in report.history)


def test_config_alpha_overrides_problem_alpha(two_bus, two_bus_planted):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    override = 3.0 * problem.alpha
    report = solve(problem, SolverConfig(alpha=override))
    assert report.converged
    strong = dataclasses.replace(problem, alpha=override)
    f_dense, _, _ = dense_penalty_value(
        strong, DualPoint(flat=report.center, n_buses=2)
    )
    assert report.f_best == pytest.approx(f_dense, abs=1e-8)


def test_config_beta_sets_the_whole_run(ten_bus, ten_bus_infeasible):
    # Start point, prox box and the certificate's slack price all take the
    # config's beta: the run equals one on a problem built with that box.
    problem = build_problem(ten_bus, ten_bus_infeasible.limits, ten_bus_infeasible.u)
    config = SolverConfig(beta=1.0)
    report = solve(problem, config).to_dict()
    reference = solve(dataclasses.replace(problem, beta=1.0), config).to_dict()
    for doc in (report, reference):
        del doc["wall_seconds"]
        for row in doc["history"]:
            del row["prox_seconds"]
    assert report == reference
    assert report["certificate"]["duality_gap"] <= 1e-3


def test_init_state_configures_a_hand_driven_run(ten_bus, ten_bus_infeasible):
    # init_state applies the config's beta, so stepping by hand runs the
    # same objective as solve, on a problem built with the default box.
    problem = build_problem(ten_bus, ten_bus_infeasible.limits, ten_bus_infeasible.u)
    config = SolverConfig(beta=1.0)
    state = init_state(problem, config)
    assert state.problem.beta == 1.0
    while state.iteration < config.max_iters and not state.converged:
        step(state)
    report = solve(problem, config)
    assert state.iteration == report.iterations
    assert state.f_center == report.f_best
    np.testing.assert_array_equal(state.center, report.center)


def test_invalid_config_alpha_is_rejected_by_solve(two_bus, two_bus_planted):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    with pytest.raises(ValueError, match="alpha must be positive"):
        solve(problem, SolverConfig(alpha=-2.0))


def test_small_alpha_triggers_dominance_warning(two_bus, two_bus_planted):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    report = solve(problem, SolverConfig(alpha=0.5))
    assert any("does not dominate" in w for w in report.warnings)

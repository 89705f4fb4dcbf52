"""Bundle loop invariants, certificates, and end-to-end planted solves."""

import dataclasses
import importlib
import json
from collections import Counter

import numpy as np
import pytest

from pfbundle import (
    OperatingLimits,
    SolverConfig,
    ThreePhaseNetwork,
    build_problem,
    load_network,
    plant_feasible,
    plant_infeasible,
    replicate_feeder,
    save_network,
    solve,
    synth_radial,
)
from pfbundle import bundle, prox
from pfbundle.bundle import init_state, recover_primal, step
from pfbundle.operators import (
    DENSE_MAX_DIM,
    EigenFailure,
    dual_matrix,
    leading_eigenpair,
    penalty_value,
    svec3,
)
from pfbundle.oracle import dense_apply_constraint, dense_penalty_value, qp_support_enumeration
from pfbundle.prox import solve_prox

from conftest import TEN_BUS_PARAMS, assert_bitwise
# The benchmark tracer, read from its file (a fixture).
from test_benchmark_contract import tracing  # noqa: F401


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
    return ThreePhaseNetwork(2, list(blocks), list(blocks.values()), topology="constructed")


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
        SolverConfig(rho=0.0)
    with pytest.raises(ValueError, match="eps"):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError, match="beta"):
        SolverConfig(beta=-1.0)
    with pytest.raises(ValueError, match="beta"):
        SolverConfig(beta=0.0)
    with pytest.raises(ValueError, match="alpha"):
        SolverConfig(alpha=-1.0)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError, match="eig_tol must be positive"):
        SolverConfig(eig_tol=0.0)
    with pytest.raises(ValueError, match="eig_tol must be positive"):
        SolverConfig(eig_tol=-1e-9)
    with pytest.raises(ValueError, match="eps must be a number"):
        SolverConfig(eps="abc")
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        SolverConfig(max_iters="10")
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        SolverConfig(max_iters=10.0)
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        SolverConfig(max_iters=True)
    with pytest.raises(ValueError, match="rho must be a number"):
        SolverConfig(rho=False)
    with pytest.raises(ValueError, match="alpha must be a number"):
        SolverConfig(alpha="1")
    SolverConfig(alpha=3, rho=4, max_iters=np.int64(2))
    with pytest.raises(ValueError, match="eig_tol must be finite"):
        SolverConfig(eig_tol=float("inf"))
    with pytest.raises(ValueError, match="rho must be finite"):
        SolverConfig(rho=float("nan"))
    cfg = SolverConfig()
    assert (cfg.rho, cfg.eps, cfg.beta) == (4.0, 1e-5, 0.1)
    assert [f.name for f in dataclasses.fields(cfg)] == [
        "rho", "eps", "beta", "alpha", "max_iters", "eig_tol"]
    assert (bundle.ETA, bundle.FEAS_TOL, bundle.BLEND_SEED) == (0.1, 1e-6, 0)
    assert json.loads(json.dumps(bundle.as_json_dict(cfg))) == dataclasses.asdict(cfg)


def test_init_state_builds_linear_model(two_bus, two_bus_planted):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    state = init_state(problem, SolverConfig())
    np.testing.assert_array_equal(state.a, np.zeros(3))
    assert state.S.shape == (3, problem.n_box + 9)
    for slope in state.S:
        np.testing.assert_array_equal(slope, problem.fixed_slope)
    np.testing.assert_array_equal(
        state.center[: problem.n_box], np.full(problem.n_box, 0.05)
    )
    f_dense, _, _ = dense_penalty_value(problem, state.center)
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
            assert record.f_candidate <= prev_center_value - bundle.ETA * record.delta
            assert state.f_center == record.f_candidate
        else:
            assert state.f_center == prev_center_value
        assert record.prox_seconds >= 0.0
        assert record.case_used in ("vertex", "edge", "interior", "fallback")
        assert record.prox_evals >= 1
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
        # Recover the candidate: it is where the current cut was anchored.
        # Its value there must match the unclipped objective sample.
        cur, agg = state.a[1:] + state.S[1:] @ state.center
        if record.serious:
            _, f_lambda, _ = dense_penalty_value(problem, state.center)
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
        f, _, _ = dense_penalty_value(problem, flat)
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
    # The voltage is complementary to H at the center, whose least eigenvalue
    # is well separated from the next.
    H = dual_matrix(problem, report.center)
    v = cert.voltage
    comp = np.linalg.norm(H @ v) * np.linalg.norm(v)
    assert comp <= 1e-6 * np.linalg.norm(H.data)
    low = np.linalg.eigvalsh(H.toarray())[:2]
    assert low[1] - low[0] >= 0.1
    assert cert.duality_gap <= 1e-6
    # The certificate voltage reproduces the planted profile up to phase.
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


def planted_feasible_runs(group, two_bus, ten_bus, tight_config):
    """(name, network, config) of the planted-feasible runs in one group."""
    if group == "screen_small":
        # The benchmark's 40 planted-feasible ten-bus feeders at seed 0.
        return [(f"seed {seed}", synth_radial(10, seed=seed, params=TEN_BUS_PARAMS)[0],
                 SolverConfig()) for seed in range(40)]
    if group == "k30":
        net, limits = synth_radial(10, seed=3, params=TEN_BUS_PARAMS)
        return [("k30", replicate_feeder(net, limits, 30)[0], SolverConfig())]
    # Acceptance criterion 5's two cases.
    return [("2-bus", two_bus, tight_config), ("10-bus", ten_bus, tight_config)]


@pytest.mark.parametrize("group", ["screen_small", "k30", "criterion_5"])
def test_every_feasible_verdict_carries_a_checked_witness(group, two_bus, ten_bus,
                                                          tight_config):
    # A feasible verdict rests on the report's voltage alone: its slack block
    # is the slack voltage, and its rows, evaluated from their definitions on
    # the dense rank-one matrix, leave at most FEAS_TOL of limit slack.
    for name, net, config in planted_feasible_runs(group, two_bus, ten_bus, tight_config):
        inst = plant_feasible(net)
        problem = build_problem(net, inst.limits, inst.u)
        report = solve(problem, config)
        assert report.verdict == "feasible", name
        v = report.certificate.voltage
        assert_bitwise(v[:3], problem.slack_voltage)
        rows = dense_apply_constraint(np.outer(v, v.conj()), problem.Y.toarray()) + problem.m_vec
        assert np.clip(rows, 0.0, None).sum() <= bundle.FEAS_TOL, name


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
    x = np.zeros(problem.n_box + 9)
    cert = recover_primal(problem, leading_eigenpair(problem, x, rng))
    assert cert.recovered
    # The rescaling aligns the slack block exactly with the reference
    # voltage, reproducing the planted vector to near machine precision.
    assert np.abs(cert.voltage - target).max() <= 1e-10
    assert cert.top_block_err <= 1e-10
    assert abs(cert.lambda_min) <= 1e-10
    low = np.linalg.eigvalsh(dual_matrix(problem, x).toarray())[:2]
    assert low[1] - low[0] == pytest.approx(1.0, abs=1e-8)
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
    x = np.zeros(problem.n_box + 9)
    cert = recover_primal(problem, leading_eigenpair(problem, x, rng))
    assert not cert.recovered
    assert cert.verdict == "infeasible_or_undecided"
    assert "zero slack block" in cert.detail
    assert cert.voltage is None


def test_penalty_vanishes_at_convergence(two_bus, two_bus_planted, tight_config):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    report = solve(problem, tight_config)
    f, _, lam = dense_penalty_value(problem, report.center)
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
    x = np.concatenate([np.zeros(problem.n_box), svec3(gamma)])
    eig = leading_eigenpair(problem, x, np.random.default_rng(0))
    f, f_lambda = penalty_value(problem, x, eig)
    assert eig.value < 0.0
    # With the positive part clipped to zero the penalized value equals the
    # plain dual objective bitwise.
    assert f == float(problem.fixed_slope @ x)
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
    assert len(decoded["center"]) == problem.n_box + 9
    # The key sets are pinned: they are the report format.
    assert set(doc) == {
        "n_buses", "config", "converged", "iterations", "serious_steps", "f_best",
        "final_delta", "verdict", "certificate", "center", "warnings",
        "wall_seconds", "history",
    }
    assert set(doc["certificate"]) == {
        "recovered", "verdict", "slack_total", "top_block_err", "lambda_min",
        "primal_objective", "duality_gap", "detail", "voltage",
    }
    assert set(doc["history"][0]) == {
        "iteration", "f_center", "f_candidate", "model_value", "delta", "serious",
        "case_used", "kkt_residual", "lambda_neg", "eig_matvecs", "eig_factors",
        "prox_seconds", "prox_evals", "step_norm", "rho", "gamma_scale",
        "box_scale_min", "box_scale_max",
    }
    # Two buses run the dense eigen path: no solves and no factors.
    assert {(h["eig_matvecs"], h["eig_factors"]) for h in doc["history"]} == {(0, 0)}
    assert doc["history"][0]["rho"] == report.config.rho
    assert doc["history"][0]["gamma_scale"] == 1.0
    # The box weights are 1 until the first new cut, then spread.
    first = doc["history"][0]
    assert first["box_scale_min"] == first["box_scale_max"] == 1.0
    later = doc["history"][1]
    assert 1.0 / bundle.BOX_SCALE_CLIP <= later["box_scale_min"] < 1.0
    assert 1.0 < later["box_scale_max"] <= bundle.BOX_SCALE_CLIP


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


def test_eigen_failure_in_the_first_step_names_no_model_gap(two_bus, two_bus_planted,
                                                            monkeypatch):
    # Call 1 is the start point; call 2 fails in iteration 1, so no step
    # completed and there is no model gap to report.
    calls = count_eigensolves(monkeypatch, fail_at=2)
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    report = solve(problem)
    assert len(calls) == 2
    assert report.verdict == "not_converged"
    assert report.iterations == 1 and report.history == ()
    assert report.warnings[:2] == (
        "eigen solver failed at iteration 1: forced",
        "no iteration completed, so no model gap to compare with eps 1.0e-05",
    )
    assert not any("model gap inf" in w for w in report.warnings)
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
    f_dense, _, _ = dense_penalty_value(strong, report.center)
    assert report.f_best == pytest.approx(f_dense, abs=1e-8)


def timeless(doc):
    """A report dict without its timings, which differ between runs."""
    del doc["wall_seconds"]
    for row in doc["history"]:
        del row["prox_seconds"]
    return doc


def test_config_beta_sets_the_whole_run(ten_bus, ten_bus_infeasible):
    # Start point, prox box and the certificate's slack price all take the
    # config's beta: the run equals one on a problem built with that box.
    problem = build_problem(ten_bus, ten_bus_infeasible.limits, ten_bus_infeasible.u)
    config = SolverConfig(beta=1.0)
    report = timeless(solve(problem, config).to_dict())
    reference = timeless(solve(dataclasses.replace(problem, beta=1.0), config).to_dict())
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


def planted_case(n_buses=10, copies=1, feasible=True):
    """Feeder synth_radial(n_buses, seed=3) tiled copies times, planted."""
    net, limits = synth_radial(n_buses, seed=3, params=TEN_BUS_PARAMS)
    if copies > 1:
        net, _ = replicate_feeder(net, limits, copies)
    planted = (plant_feasible if feasible else plant_infeasible)(net)
    return build_problem(net, planted.limits, planted.u), planted


@pytest.mark.parametrize("rho", [0.25, 4.0, 64.0])
@pytest.mark.parametrize("n_buses, copies", [(10, 1), (10, 10), (46, 1)])
def test_converged_is_near_optimal_at_any_start_rho(n_buses, copies, rho):
    # With a fixed weight the absolute stop delta <= eps ended some of these
    # runs 1.75e-5 (k=1, rho 64) to 3.4e-5 (k=10, rho 64) away from f*.
    problem, planted = planted_case(n_buses, copies)
    report = solve(problem, SolverConfig(rho=rho))
    assert report.converged
    gap = abs(report.f_best - planted.f_star) / (1.0 + abs(planted.f_star))
    assert gap <= 1e-5


def test_iterations_stay_flat_in_k():
    # Under one weight on the box, a fixed weight of 4 took 41 and 124
    # iterations here.
    for copies in (10, 30):
        problem, _ = planted_case(copies=copies)
        report = solve(problem)
        assert report.converged
        assert report.iterations <= 40
    # With one prox weight on the multiplier box and the slack block, the
    # planted-infeasible feeders took 25, 147 and 242 iterations.
    for copies in (10, 20, 30):
        problem, _ = planted_case(copies=copies, feasible=False)
        report = solve(problem)
        assert report.converged
        assert report.verdict == "infeasible_or_undecided"
        assert report.iterations <= 80


def test_box_weights_take_a_deep_feeder_to_its_optimum_in_fewer_iterations():
    # One weight on the box took 58 iterations here, at a gap of 6.1e-6.
    problem, planted = planted_case(n_buses=181)
    report = solve(problem)
    assert report.verdict == "feasible"
    assert report.iterations <= 40
    assert abs(report.f_best - planted.f_star) / (1.0 + abs(planted.f_star)) <= 1e-5
    assert all(r.case_used != "fallback" for r in report.history)
    last = report.history[-1]
    assert last.box_scale_min == 1.0 / bundle.BOX_SCALE_CLIP
    assert last.box_scale_max == bundle.BOX_SCALE_CLIP


def test_refresh_metric_folds_new_slopes_into_clipped_rms_weights(two_bus, two_bus_planted):
    problem = build_problem(two_bus, two_bus_planted.limits, two_bus_planted.u)
    state = init_state(problem, SolverConfig())
    n_box = problem.n_box
    d = state.metric
    assert d.tobytes() == np.ones(n_box + 9).tobytes() and state.box_scale == (1.0, 1.0)
    # Slopes that vanish on the box keep w = 1; the tail follows t.
    state.gamma_scale = 0.5
    bundle.refresh_metric(state, np.concatenate([np.zeros(n_box), np.ones(9)]))
    assert (d[:n_box] == 1.0).all() and (d[n_box:] == 0.5).all()
    rng = np.random.default_rng(5)
    slopes = [rng.normal(size=n_box + 9) * np.exp(rng.uniform(-6.0, 6.0, size=n_box + 9))
              for _ in range(4)]
    slopes.append(np.zeros(n_box + 9))
    slopes[-1][0] = 1e8     # one coordinate far above the mean: the top clip
    for k, g in enumerate(slopes, start=1):
        bundle.refresh_metric(state, g)
        r = np.sqrt(sum(s[:n_box] ** 2 for s in slopes[:k]))
        w = np.clip(r / r.mean(), 1.0 / bundle.BOX_SCALE_CLIP, bundle.BOX_SCALE_CLIP)
        np.testing.assert_allclose(d[:n_box] ** 2, w, rtol=1e-12)
        assert state.box_scale == pytest.approx((w.min(), w.max()), rel=1e-12)
        assert (d[n_box:] == 0.5).all()
    assert state.box_scale == (1.0 / bundle.BOX_SCALE_CLIP, bundle.BOX_SCALE_CLIP)


def test_gamma_scale_stays_one_on_every_ten_bus_planted_case():
    # The screening traffic: the rule must leave these runs as they were.
    for seed in range(40):
        net, _ = synth_radial(10, seed=seed, params=TEN_BUS_PARAMS)
        for plant in (plant_feasible, plant_infeasible):
            planted = plant(net)
            report = solve(build_problem(net, planted.limits, planted.u))
            assert report.converged
            assert {r.gamma_scale for r in report.history} == {1.0}


def test_reports_are_deterministic_at_a_fixed_start_rho():
    problem, _ = planted_case(copies=10)
    first, second = (timeless(solve(problem, SolverConfig(rho=64.0)).to_dict())
                     for _ in range(2))
    assert first == second


@pytest.mark.parametrize("rho", [8.0, 0.25])
def test_weight_changes_keep_the_descent_test_and_the_cuts_valid(
    ten_bus, ten_bus_infeasible, rho
):
    # On these runs the weight both falls and rises (from the default start
    # of 4 this case lowers it once and never raises it).  Each step must still
    # pass the descent test it claims, and after each change the three cuts
    # must stay below f, evaluated densely at sampled points.  (The dense
    # oracle builds a basis of all Hermitian matrices, so it stays at dim 30.)
    problem = build_problem(ten_bus, ten_bus_infeasible.limits, ten_bus_infeasible.u)
    config = SolverConfig(rho=rho)
    state = init_state(problem, config)
    problem = state.problem
    rng = np.random.default_rng(19)
    samples = np.array([
        np.concatenate([rng.uniform(0.0, problem.beta, size=problem.n_box),
                        rng.normal(size=9)])
        for _ in range(40)
    ])
    f_samples = np.array([
        dense_penalty_value(problem, x)[0]
        for x in samples
    ])
    weights = [state.rho]
    checked = 0
    while not state.converged and state.iteration < config.max_iters:
        f_before = state.f_center
        record = step(state)
        assert record.rho == weights[-1]
        if record.serious:
            assert record.f_candidate <= f_before - bundle.ETA * record.delta
        if state.rho != record.rho:
            cuts = samples @ state.S.T + state.a
            slack = f_samples[:, None] - cuts
            assert slack.min() >= -1e-9 * (1.0 + np.abs(f_samples).max())
            checked += 1
        weights.append(state.rho)
    assert state.converged
    moves = np.diff(weights)
    assert (moves < 0).any() and (moves > 0).any()
    assert checked == np.count_nonzero(moves)


def test_next_rho_moves_within_its_bounds():
    next_rho = bundle.next_rho
    # rho, rho0, ratio, delta, last_delta, serious, lin_err.  A good serious
    # step that progresses slowly lowers the weight, by at most 4x, to no
    # less than 1e-3 of the start value.
    assert next_rho(4.0, 4.0, 0.75, 1.0, 1.5, True, 0.0) == 2.0
    assert next_rho(4.0, 4.0, 1.2, 1.0, 1.5, True, 0.0) == 1.0
    assert next_rho(0.005, 4.0, 1.0, 1.0, 1.0, True, 0.0) == 0.004
    # Fast progress or a poor ratio keeps it.
    assert next_rho(4.0, 4.0, 0.75, 1.0, 3.0, True, 0.0) == 4.0
    assert next_rho(4.0, 4.0, 0.3, 1.0, 1.5, True, 0.0) == 4.0
    # A null step whose cut is off by more than delta at the center raises
    # it, by at most 4x, to no more than 1e3 times the start value.
    assert next_rho(4.0, 4.0, 0.0, 1.0, 1.0, False, 2.0) == 8.0
    assert next_rho(4.0, 4.0, -5.0, 1.0, 1.0, False, 2.0) == 16.0
    assert next_rho(3000.0, 4.0, -5.0, 1.0, 1.0, False, 2.0) == 4000.0
    assert next_rho(4.0, 4.0, 0.0, 1.0, 1.0, False, 0.5) == 4.0


def test_next_gamma_scale_moves_within_its_bounds():
    next_scale = bundle.next_gamma_scale
    # scale, |y_c - y0|, |Gamma_c - Gamma0|.  A ratio within [scale / 4,
    # 2 scale] keeps the scale; outside, the scale moves to the ratio, by at
    # most 4x, to at most 1 and to no less than 1e-3.
    assert next_scale(1.0, 0.6, 1.0) == 1.0
    assert next_scale(1.0, 0.3, 1.0) == 1.0
    assert next_scale(1.0, 0.2, 1.0) == 0.25
    assert next_scale(0.25, 0.05, 1.0) == 0.0625
    assert next_scale(0.25, 0.3, 1.0) == 0.25
    assert next_scale(0.25, 0.8, 1.0) == 0.8
    assert next_scale(0.1, 5.0, 1.0) == pytest.approx(0.4)
    assert next_scale(0.5, 5.0, 1.0) == 1.0
    assert next_scale(1.0, 10.0, 1.0) == 1.0
    assert next_scale(0.002, 0.0, 1.0) == 1e-3
    # A center with no tail displacement moves the scale toward the cap.
    assert next_scale(0.1, 1.0, 0.0) == pytest.approx(0.4)


def random_metric(rng, n_box):
    """A scale vector d: sqrt of box weights within the clip, then a tail t."""
    clip = np.log(bundle.BOX_SCALE_CLIP)
    w = np.exp(rng.uniform(-clip, clip, size=n_box))
    scale = float(np.exp(rng.uniform(np.log(0.05), 0.0)))
    return np.concatenate([np.sqrt(w), np.full(9, scale)])


def test_scaled_prox_is_the_weighted_metric_prox_point():
    # The metric rho d_i^2 is the plain prox in the variables d x, whose box
    # is [0, beta d_i].  The enumeration oracle, run on that change of
    # variables with the vector bound, gives the same point; and in true
    # coordinates the point meets the weighted metric's own optimality
    # condition in the box [0, beta].
    rng = np.random.default_rng(22)
    beta = 0.1
    seen = set()
    for trial in range(60):
        rho = 4.0 if trial % 2 else 0.25
        n_box = int(rng.integers(3, 30))
        dim = n_box + 9
        center = np.concatenate([rng.uniform(-0.05, 0.15, size=n_box),
                                 rng.normal(size=9)])
        a = rng.normal(size=3)
        S = rng.normal(size=(3, dim))
        if trial % 6 == 0:
            # Cuts parallel to cut 0 and below it: a vertex solution.
            S[1:] = S[0]
            a[1:] = a[0] - np.array([1.0, 2.0])
        d = random_metric(rng, n_box)
        sol = bundle.scaled_prox(center, a, S, rho, d, beta, n_box)
        seen.add(sol.case_used)

        ref = qp_support_enumeration(center * d, a, S / d, rho, beta * d[:n_box], n_box)
        np.testing.assert_allclose(sol.z * d, ref.z, atol=1e-7)

        metric = d * d
        diff = sol.z - center
        weighted = float((a + S @ sol.z).max()) + 0.5 * rho * float(metric @ (diff * diff))
        assert weighted == pytest.approx(ref.objective, abs=1e-8 * (1.0 + abs(ref.objective)))
        w = center - (S.T @ sol.theta) / (rho * metric)
        np.testing.assert_allclose(sol.z[:n_box], np.clip(w[:n_box], 0.0, beta), atol=1e-9)
        np.testing.assert_allclose(sol.z[n_box:], w[n_box:],
                                   atol=1e-9 * (1.0 + np.abs(w[n_box:]).max()))
    assert seen >= {"vertex", "edge", "interior"}
    # At d = 1 it is the plain prox, bit for bit.
    plain = solve_prox(center, a, S, rho, beta, n_box)
    unit = bundle.scaled_prox(center, a, S, rho, np.ones(dim), beta, n_box)
    assert unit.z.tobytes() == plain.z.tobytes()
    assert unit.theta.tobytes() == plain.theta.tobytes()


def test_scaled_prox_fallback_takes_the_vector_bound_to_the_oracle(monkeypatch):
    # A scaled solve that does not settle hands the oracle the rescaled data
    # with the bound beta d on the box, and returns the oracle's point divided
    # back: in true coordinates the box stays [0, beta], top bound reached.
    rng = np.random.default_rng(24)
    rho, beta, n_box = 4.0, 0.1, 20
    exact = prox.newton_step
    for _ in range(200):
        center = np.concatenate([rng.uniform(-0.05, 0.15, size=n_box), rng.normal(size=9)])
        a = rng.normal(size=3)
        S = rng.normal(size=(3, n_box + 9))
        d = random_metric(rng, n_box)
        if bundle.scaled_prox(center, a, S, rho, d, beta, n_box).case_used == "interior":
            break
    else:
        pytest.fail("no interior case drawn")

    def perturbed(vals, G, theta, rho):
        return tuple(np.array(exact(vals, G, theta, rho)) + np.array([1e-3, -1e-3, 0.0]))

    monkeypatch.setattr(prox, "newton_step", perturbed)
    sol = bundle.scaled_prox(center, a, S, rho, d, beta, n_box)
    assert sol.case_used == "fallback"
    ref = qp_support_enumeration(center * d, a, S / d, rho, beta * d[:n_box], n_box)
    assert sol.z.tobytes() == (ref.z / d).tobytes()
    box = sol.z[:n_box]
    assert box.min() >= 0.0 and box.max() <= beta * (1.0 + 1e-15)
    assert np.isclose(box, beta, rtol=0.0, atol=1e-15).any()
    # The oracle's own projection of its weights agrees with its point.
    assert sol.kkt_residual <= 1e-8


def test_metric_moves_keep_the_descent_test_and_the_cuts_valid():
    # The base feeder replicated 3 times, planted infeasible (dim 84), in a
    # box narrow enough that the tail scale moves off 1 at this size.  Each
    # step must still pass the descent test it claims, the scale may move
    # only at serious steps, and after each move the three cuts must stay
    # below f at the center and at sampled points evaluated densely (about
    # 0.2 s each at this size, so few).
    problem, _ = planted_case(copies=3, feasible=False)
    config = SolverConfig(beta=0.03)
    state = init_state(problem, config)
    problem = state.problem
    assert problem.dim <= 138
    rng = np.random.default_rng(23)
    samples = np.array([
        np.concatenate([rng.uniform(0.0, problem.beta, size=problem.n_box),
                        rng.normal(scale=2.0, size=9)])
        for _ in range(5)
    ])
    f_samples = np.array([
        dense_penalty_value(problem, x)[0]
        for x in samples
    ])
    scales = [state.gamma_scale]
    checked = 0
    while not state.converged and state.iteration < config.max_iters:
        f_before = state.f_center
        record = step(state)
        assert record.gamma_scale == scales[-1]
        if record.serious:
            assert record.f_candidate <= f_before - bundle.ETA * record.delta
        elif not state.converged:
            assert state.gamma_scale == record.gamma_scale
        if state.gamma_scale != record.gamma_scale:
            tol = 1e-9 * (1.0 + np.abs(f_samples).max())
            cuts = samples @ state.S.T + state.a
            assert (f_samples[:, None] - cuts).min() >= -tol
            assert (state.a + state.S @ state.center).max() <= state.f_center + tol
            checked += 1
        scales.append(state.gamma_scale)
    assert state.converged
    assert min(scales) < 1.0
    assert checked == np.count_nonzero(np.diff(scales))
    assert not all(r.serious for r in state.history)


def load_one(kind, path):
    """A new object of the named kind, built from the saved network at path."""
    net, limits = load_network(path)
    planted = plant_feasible(net)
    problem = build_problem(net, planted.limits, planted.u)
    state = init_state(problem, SolverConfig())
    report = solve(problem)
    return {
        "network": net,
        "limits": limits,
        "planted": planted,
        "pattern": problem.pattern,
        "problem": problem,
        "eigen": state.center_eig,
        "prox": solve_prox(state.center, state.a, state.S, state.rho, problem.beta,
                           problem.n_box),
        "certificate": report.certificate,
        "report": report,
    }[kind]


@pytest.mark.parametrize("kind", ["network", "limits", "planted", "pattern", "problem",
                                  "eigen", "prox", "certificate", "report"])
def test_objects_holding_arrays_compare_and_hash_by_identity(kind, tmp_path, two_bus,
                                                             two_bus_planted):
    path = tmp_path / "net.json"
    save_network(path, two_bus, two_bus_planted.limits)
    a, b = load_one(kind, path), load_one(kind, path)
    assert (a == b) is False and a != b
    assert a == a
    assert len({a, b, a}) == 2


def test_traced_dense_solve_counts_what_the_solver_did(tracing, ten_bus, ten_bus_planted):
    # The loop must call each layer through the module global the tracer
    # wraps; on the dense path no Lanczos runs and nothing assembles H.
    problem = build_problem(ten_bus, ten_bus_planted.limits, ten_bus_planted.u)
    assert problem.dim <= DENSE_MAX_DIM
    tracer = tracing.Tracer()
    tracer.install({name: importlib.import_module(f"pfbundle.{name}")
                    for name in ("network", "instances", "operators", "bundle", "prox")})
    try:
        report = bundle.solve(problem)
    finally:
        tracer.uninstall()
    n = report.iterations
    assert n > 0
    counts = Counter(span["name"] for span in tracer.spans)
    assert dict(counts) == {
        "bundle.solve": 1, "bundle.init": 1, "operators.eig": n + 1, "bundle.step": n,
        "prox.solve": n, "operators.subgradient": n, "bundle.recover": 1,
    }

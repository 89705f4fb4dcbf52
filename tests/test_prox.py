"""Proximal subproblem: active-set Newton on the cut weights, safety net."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfbundle import prox
from pfbundle.oracle import qp_support_enumeration
from pfbundle.prox import ProxSolution, project_box, solve_prox

from conftest import criterion_2_triples


def cut_arrays(intercepts, slopes):
    return np.asarray(intercepts, dtype=float), np.asarray(slopes, dtype=float)


def random_triple(rng, engineered=None):
    """One random prox instance; `engineered` injects degenerate structure."""
    dim = int(rng.integers(3, 40))
    n_box = int(rng.integers(0, dim + 1))
    center = rng.normal(size=dim)
    if n_box:
        # Mix interior, boundary, and out-of-box anchor coordinates.
        center[:n_box] = rng.uniform(-0.05, 0.15, size=n_box)
    slopes = rng.normal(size=(3, dim))
    intercepts = rng.normal(size=3)
    if engineered == "duplicate":
        slopes[1] = slopes[0]
        intercepts[1] = intercepts[0]
    elif engineered == "tail_only":
        slopes[1][:n_box] = slopes[0][:n_box]
    elif engineered == "tied":
        z = project_box(center - slopes[0] / 4.0, 0.1, n_box)
        common = 0.3
        intercepts = np.array([common - s @ z for s in slopes])
    beta = 0.1
    rho = 4.0
    return (center, *cut_arrays(intercepts, slopes), rho, beta, n_box)


def test_project_box_clips_only_leading_coordinates():
    flat = np.array([-1.0, 0.05, 2.0, -3.0, 7.0])
    out = project_box(flat, 0.1, 3)
    np.testing.assert_array_equal(out, [0.0, 0.05, 0.1, -3.0, 7.0])
    np.testing.assert_array_equal(flat, [-1.0, 0.05, 2.0, -3.0, 7.0])


def test_identical_cuts_resolve_at_the_vertex():
    # Every vertex is optimal; the solve keeps its start, the aggregate cut.
    slope = np.array([1.0, -2.0, 0.5, 3.0])
    a, S = cut_arrays([0.2, 0.2, 0.2], [slope, slope, slope])
    center = np.array([0.05, 0.02, -0.5, 1.0])
    sol = solve_prox(center, a, S, 4.0, 0.1, 2)
    assert sol.case_used == "vertex"
    expect = project_box(center - slope / 4.0, 0.1, 2)
    np.testing.assert_allclose(sol.z, expect, atol=1e-15)
    assert sol.theta[2] == 1.0
    assert sol.diagnostics["evals"] == 1
    assert sol.kkt_residual <= 1e-12


def test_two_cut_toy_has_known_interior_weight():
    # One free coordinate, opposite unit slopes, anchor at 0.1 with weight 4:
    # the equal-height weight is 0.7 and the prox point lands exactly at 0.
    a, S = cut_arrays([0.0, 0.0, -10.0], [[1.0], [-1.0], [0.0]])
    center = np.array([0.1])
    sol = solve_prox(center, a, S, 4.0, 0.1, 0)
    assert sol.case_used == "edge"
    assert sol.diagnostics["support"] == (0, 1)
    assert sol.theta[0] == pytest.approx(0.7, abs=1e-12)
    assert sol.theta[1] == pytest.approx(0.3, abs=1e-12)
    assert sol.theta[2] == 0.0
    assert sol.z[0] == pytest.approx(0.0, abs=1e-12)
    assert sol.objective == pytest.approx(0.02, abs=1e-12)


def dual_value(theta, center, a, S, rho, beta, n_box):
    """psi(theta) of the subproblem's dual, straight from its definition."""
    z = project_box(center - (S.T @ theta) / rho, beta, n_box)
    diff = z - center
    return float(theta @ (a + S @ z) + 0.5 * rho * (diff @ diff))


def test_a_vertex_another_cut_dominates_is_not_the_solution():
    # At each cut's own prox point the other cut of the toy is higher, so no
    # single-cut support is optimal and the solve settles on the edge.
    a, S = cut_arrays([0.0, 0.0, -10.0], [[1.0], [-1.0], [0.0]])
    center = np.array([0.1])
    for i, j in ((0, 1), (1, 0)):
        vals = a + S @ project_box(center - S[i] / 4.0, 0.1, 0)
        assert vals[j] > vals[i]
    sol = solve_prox(center, a, S, 4.0, 0.1, 0)
    assert sol.case_used == "edge"
    assert sol.theta[0] > 0.0 and sol.theta[1] > 0.0


def test_edge_solution_matches_brute_force_scan():
    # An edge solve's weight is a root of the equal-height function of its
    # two cuts, the third cut stays below, and no weight on a fine grid of
    # that edge has a higher dual value.
    rng = np.random.default_rng(3)
    checked = 0
    grid = np.linspace(0.0, 1.0, 2001)
    for _ in range(200):
        center, a, S, rho, beta, n_box = random_triple(rng)
        sol = solve_prox(center, a, S, rho, beta, n_box)
        if sol.case_used != "edge":
            continue
        checked += 1
        i, j = sol.diagnostics["support"]
        s = float(sol.theta[i])
        vals = a + S @ sol.z
        assert 0.0 < s < 1.0
        assert vals[i] - vals[j] == pytest.approx(0.0, abs=1e-9)
        assert vals[3 - i - j] <= vals[i] + 1e-9
        best = -np.inf
        for t in grid:
            theta = np.zeros(3)
            theta[i], theta[j] = t, 1.0 - t
            best = max(best, dual_value(theta, center, a, S, rho, beta, n_box))
        assert dual_value(sol.theta, center, a, S, rho, beta, n_box) >= best - 1e-12
    assert checked > 30


def test_edge_height_difference_is_nonincreasing():
    rng = np.random.default_rng(4)
    grid = np.linspace(0.0, 1.0, 200)
    for _ in range(50):
        center, a, S, rho, beta, n_box = random_triple(rng)
        i, j = (0, 1) if rng.random() < 0.5 else (1, 2)
        vals = []
        for t in grid:
            theta = np.zeros(3)
            theta[i], theta[j] = t, 1.0 - t
            z = project_box(center - (S.T @ theta) / rho, beta, n_box)
            v = a + S @ z
            vals.append(float(v[i] - v[j]))
        diffs = np.diff(vals)
        assert diffs.max() <= 1e-12


def test_tied_breakpoints_settle_without_the_oracle():
    # Along the edge of cuts 0 and 1, eighteen box coordinates reach a bound
    # at the same weight theta_0 = 0.2 (twelve clamp at zero, six at beta),
    # so the clamp pattern changes in one block there.  The intercept gaps
    # put the optimum before the tie, on it (gap 0.333), past it and at cut 0's
    # vertex; each time the Newton solve settles on the oracle's point.
    rho, beta, n_box = 2.0, 0.1, 18
    dh = np.concatenate([np.full(6, 1.0), np.full(6, 0.5), np.full(6, -0.5), [0.3, -0.2]])
    center = np.concatenate([np.full(6, 0.1), np.full(6, 0.05), np.full(6, 0.05),
                             [0.4, 0.7]]) - 0.5 * dh / rho
    S = np.stack([0.5 * dh, -0.5 * dh, np.zeros(dh.size)])
    for gap in (0.05, 0.2, 0.333, 0.36, 0.45):
        a = np.array([0.5 * gap, -0.5 * gap, -10.0])
        sol = solve_prox(center, a, S, rho, beta, n_box)
        ref = qp_support_enumeration(center, a, S, rho, beta, n_box)
        assert sol.case_used in ("vertex", "edge")
        assert sol.objective == pytest.approx(ref.objective, abs=1e-12)
        assert sol.kkt_residual <= 1e-12


def test_unmoved_and_on_bound_coordinates_settle_without_the_oracle():
    # Box coordinates that no slope difference moves, and anchors exactly on
    # a bound, leave the clamp pattern flat or one-sided at the start: the
    # solve still settles on the oracle's point.
    rng = np.random.default_rng(21)
    rho, beta, n_box = 2.0, 0.1, 30
    for _ in range(50):
        S = rng.normal(size=(3, n_box + 9))
        still = rng.random(n_box + 9) < 0.2
        S[1:, still] = S[0, still]
        center = rng.uniform(-0.1, 0.2, size=n_box + 9)
        center[:n_box][rng.random(n_box) < 0.2] = 0.0
        center[:n_box][rng.random(n_box) < 0.2] = beta
        a = rng.normal(size=3)
        sol = solve_prox(center, a, S, rho, beta, n_box)
        ref = qp_support_enumeration(center, a, S, rho, beta, n_box)
        assert sol.case_used != "fallback"
        assert sol.objective == pytest.approx(ref.objective, abs=1e-9)
        assert sol.kkt_residual <= 1e-12


def test_interior_newton_symmetric_instance():
    # Three balanced slopes in a free plane meet at the anchor itself, so the
    # full support is optimal with equal weights.
    s3 = np.sqrt(3.0) / 2.0
    a, S = cut_arrays(
        [0.0, 0.0, 0.0], [[1.0, 0.0], [-0.5, s3], [-0.5, -s3]]
    )
    center = np.zeros(2)
    sol = solve_prox(center, a, S, 4.0, 0.1, 0)
    assert sol.case_used == "interior"
    np.testing.assert_allclose(sol.theta, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(sol.z, [0.0, 0.0], atol=1e-12)
    # With no box the dual is one quadratic: the start and one exact step.
    assert sol.diagnostics["evals"] == 2


def test_interior_newton_recovers_planted_weights():
    # Plant an interior optimum: choose weights, derive the prox point, then
    # pick intercepts so all three cuts share the same height there.
    rng = np.random.default_rng(5)
    for _ in range(25):
        dim = int(rng.integers(2, 12))
        slopes = rng.normal(size=(3, dim))
        theta_star = rng.dirichlet([3.0, 3.0, 3.0])
        center = rng.normal(size=dim)
        rho = 4.0
        z_star = center - (slopes.T @ theta_star) / rho
        common = float(rng.normal())
        intercepts = [common - s @ z_star for s in slopes]
        a, S = cut_arrays(intercepts, slopes)
        sol = solve_prox(center, a, S, rho, 0.1, 0)
        if sol.case_used != "interior":
            # Planted weights very close to an edge can legitimately resolve
            # there; the optimum itself must still match.
            assert min(theta_star) < 1e-3
        np.testing.assert_allclose(sol.z, z_star, atol=1e-7)
        np.testing.assert_allclose(sol.theta, theta_star, atol=1e-6)
        assert sol.kkt_residual <= 1e-8
        assert sol.diagnostics["evals"] <= 2


def test_inexact_interior_solve_falls_back_to_oracle(monkeypatch):
    # Perturb the Newton step's weights, as an inexact solve would: the solve
    # never settles at a KKT point and must hand the instance to the
    # enumeration oracle and land on its objective.
    rng = np.random.default_rng(6)
    found = None
    for _ in range(2000):
        center, a, S, rho, beta, n_box = random_triple(rng)
        if solve_prox(center, a, S, rho, beta, n_box).case_used == "interior":
            found = (center, a, S, rho, beta, n_box)
            break
    assert found is not None
    center, a, S, rho, beta, n_box = found
    exact = prox.newton_step

    def perturbed(vals, G, theta, rho):
        return tuple(np.array(exact(vals, G, theta, rho)) + np.array([1e-3, -1e-3, 0.0]))

    monkeypatch.setattr(prox, "newton_step", perturbed)
    sol = solve_prox(center, a, S, rho, beta, n_box)
    assert sol.case_used == "fallback"
    assert sol.diagnostics["newton_kkt"] > 1e-10
    ref = qp_support_enumeration(center, a, S, rho, beta, n_box)
    assert sol.objective == pytest.approx(ref.objective, abs=1e-8)


def test_exact_cases_return_the_projection_of_their_weights():
    # The KKT residual leaves out the projection term for these cases, since
    # each builds z as exactly this projection.
    rng = np.random.default_rng(13)
    seen = set()
    for _ in range(300):
        center, a, S, rho, beta, n_box = random_triple(rng)
        sol = solve_prox(center, a, S, rho, beta, n_box)
        if sol.case_used == "fallback":
            continue
        seen.add(sol.case_used)
        zhat = project_box(center - (S.T @ sol.theta) / rho, beta, n_box)
        assert sol.z.dtype == zhat.dtype and sol.z.tobytes() == zhat.tobytes()
    assert seen == {"vertex", "edge", "interior"}


def test_forced_fallback_reports_its_projection_error(monkeypatch):
    rng = np.random.default_rng(14)
    while True:
        center, a, S, rho, beta, n_box = random_triple(rng)
        if solve_prox(center, a, S, rho, beta, n_box).case_used == "interior":
            break
    exact = prox.newton_step
    oracle = prox.qp_support_enumeration

    def perturbed(vals, G, theta, rho):
        return tuple(np.array(exact(vals, G, theta, rho)) + np.array([1e-3, -1e-3, 0.0]))

    def shifted(*args):
        ref = oracle(*args)
        z = ref.z.copy()
        z[-1] += 1e-3
        return dataclasses.replace(ref, z=z)

    monkeypatch.setattr(prox, "newton_step", perturbed)
    monkeypatch.setattr(prox, "qp_support_enumeration", shifted)
    sol = solve_prox(center, a, S, rho, beta, n_box)
    assert sol.case_used == "fallback"
    zhat = project_box(center - (S.T @ sol.theta) / rho, beta, n_box)
    proj_err = float(np.abs(sol.z - zhat).max())
    assert proj_err == pytest.approx(1e-3, rel=1e-6)
    assert sol.kkt_residual >= proj_err


def test_interior_with_equal_box_slopes_and_clamped_box():
    # Cuts 0 and 1 agree on every box coordinate and the anchor sits outside
    # the box, so every box coordinate stays clamped: the box part of the
    # equal-height Jacobian has rank one and only the 9-coordinate tail
    # separates the cuts.
    rng = np.random.default_rng(12)
    interior = 0
    for _ in range(40):
        n_box = int(rng.integers(1, 30))
        center = rng.normal(size=n_box + 9)
        center[:n_box] = rng.choice([-1.0, 1.0], size=n_box)
        slopes = rng.normal(size=(3, n_box + 9))
        slopes[1][:n_box] = slopes[0][:n_box]
        theta_star = rng.dirichlet([3.0, 3.0, 3.0])
        z_star = project_box(center - (slopes.T @ theta_star) / 4.0, 0.1, n_box)
        a = np.array([0.3 - s @ z_star for s in slopes])
        sol = solve_prox(center, a, slopes, 4.0, 0.1, n_box)
        interior += sol.case_used == "interior"
        ref = qp_support_enumeration(center, a, slopes, 4.0, 0.1, n_box)
        assert abs(sol.objective - ref.objective) <= 1e-12
        np.testing.assert_allclose(sol.z, z_star, atol=1e-9)
        assert sol.kkt_residual <= 1e-12
    assert interior > 30


def test_criterion_2_triples_never_reach_the_fallback():
    cases = set()
    for center, intercepts, slopes, n_box in criterion_2_triples():
        sol = solve_prox(center, intercepts, slopes, 4.0, 0.1, n_box)
        cases.add(sol.case_used)
    assert cases == {"vertex", "edge", "interior"}


def test_cut_order_does_not_change_the_solution():
    rng = np.random.default_rng(7)
    for _ in range(50):
        center, a, S, rho, beta, n_box = random_triple(rng)
        sol = solve_prox(center, a, S, rho, beta, n_box)
        perm = [1, 2, 0]
        sol_p = solve_prox(center, a[perm], S[perm], rho, beta, n_box)
        assert sol_p.objective == pytest.approx(sol.objective, abs=1e-9)
        np.testing.assert_allclose(sol_p.z, sol.z, atol=1e-6)


def test_solve_prox_matches_oracle_on_random_sweep():
    rng = np.random.default_rng(8)
    kinds = [None, None, None, None, None, None, None,
             "duplicate", "tail_only", "tied"]
    cases_seen = set()
    for trial in range(200):
        kind = kinds[trial % len(kinds)]
        center, a, S, rho, beta, n_box = random_triple(rng, engineered=kind)
        sol = solve_prox(center, a, S, rho, beta, n_box)
        ref = qp_support_enumeration(center, a, S, rho, beta, n_box)
        assert abs(sol.objective - ref.objective) <= 1e-8
        assert sol.kkt_residual <= 1e-8
        cases_seen.add(sol.case_used)
    # The sweep must exercise more than one branch of the chain.
    assert {"vertex", "edge"} <= cases_seen


def test_prox_solution_reports_consistent_objective():
    rng = np.random.default_rng(9)
    center, a, S, rho, beta, n_box = random_triple(rng)
    sol = solve_prox(center, a, S, rho, beta, n_box)
    diff = sol.z - center
    recompute = float((a + S @ sol.z).max() + 0.5 * rho * (diff @ diff))
    assert sol.objective == pytest.approx(recompute, abs=1e-12)
    assert isinstance(sol, ProxSolution)
    assert sol.theta.sum() == pytest.approx(1.0, abs=1e-12)
    assert sol.theta.min() >= -1e-15


def test_interior_newton_handles_box_clamping():
    # Force clamp toggles inside the interior solve: a narrow box with large
    # slopes leaves several coordinates pinned at the bounds.
    rng = np.random.default_rng(10)
    solved = 0
    for _ in range(120):
        dim = int(rng.integers(4, 16))
        n_box = dim
        center = rng.uniform(0.0, 0.1, size=dim)
        slopes = 3.0 * rng.normal(size=(3, dim))
        theta_star = rng.dirichlet([2.0, 2.0, 2.0])
        z_star = project_box(center - (slopes.T @ theta_star) / 4.0, 0.1, n_box)
        common = float(rng.normal())
        intercepts = [common - s @ z_star for s in slopes]
        a, S = cut_arrays(intercepts, slopes)
        sol = solve_prox(center, a, S, 4.0, 0.1, n_box)
        ref = qp_support_enumeration(center, a, S, 4.0, 0.1, n_box)
        assert abs(sol.objective - ref.objective) <= 1e-8
        if sol.case_used == "interior":
            solved += 1
    assert solved > 5


@st.composite
def prox_instances(draw):
    """A prox triple at criterion 2's rho 4 and beta 0.1 with one degeneracy."""
    dim = draw(st.integers(3, 40))
    n_box = draw(st.sampled_from([0, dim]) | st.integers(0, dim))
    kind = draw(st.sampled_from(["plain", "duplicate", "collinear", "clamped", "near_edge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho, beta = 4.0, 0.1
    center = rng.normal(size=dim)
    center[:n_box] = rng.uniform(-0.05, 0.15, size=n_box)
    S = rng.normal(size=(3, dim))
    a = rng.normal(size=3)
    if kind == "duplicate":
        S[1], a[1] = S[0], a[0]
    elif kind == "collinear":
        S[2] = S[0] + rng.uniform(-1.0, 2.0) * (S[1] - S[0])
    elif kind == "clamped":
        # Anchors this far outside the box clamp it at every weight.
        center[:n_box] = rng.choice([-1.0, 1.0], size=n_box) * (1.0 + np.abs(S).max() / rho)
    elif kind == "near_edge":
        # Plant a full-support optimum with one weight at 1e-9.
        theta = rng.dirichlet([1.0, 1.0, 1.0])
        theta[draw(st.integers(0, 2))] = 1e-9
        theta /= theta.sum()
        z = project_box(center - (S.T @ theta) / rho, beta, n_box)
        a = 0.3 - S @ z
    return center, a, S, rho, beta, n_box


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(prox_instances())
def test_solve_prox_matches_the_oracle_on_degenerate_triples(instance):
    # The solve must land within criterion 2's 1e-8 of the oracle's bracket:
    # no worse than its primal point, no lower than its dual value.
    sol = solve_prox(*instance)
    ref = qp_support_enumeration(*instance)
    lower = dual_value(ref.theta, *instance)
    assert lower - 1e-8 <= sol.objective <= ref.objective + 1e-8
    assert sol.kkt_residual <= 1e-8


def test_solve_prox_objective_equals_the_oracle_at_near_degenerate_optima():
    # 400 triples at rho 4 with a planted full-support optimum whose smallest
    # weight is 1e-9.  There the dual values of the edge and full supports
    # tie to about 1e-18 while their primal objectives differ by up to 1e-7, so
    # the oracle must pick its candidate by primal objective for the two
    # objectives to agree this closely.
    rho, beta = 4.0, 0.1
    gaps = []
    for seed in range(400):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(3, 41))
        n_box = int(rng.integers(0, dim + 1))
        center = rng.normal(size=dim)
        center[:n_box] = rng.uniform(-0.05, 0.15, size=n_box)
        S = rng.normal(size=(3, dim))
        theta = rng.dirichlet([1.0, 1.0, 1.0])
        theta[rng.integers(0, 3)] = 1e-9
        theta /= theta.sum()
        a = 0.3 - S @ project_box(center - (S.T @ theta) / rho, beta, n_box)
        instance = (center, a, S, rho, beta, n_box)
        sol = solve_prox(*instance)
        gaps.append(abs(sol.objective - qp_support_enumeration(*instance).objective))
    assert max(gaps) <= 1e-10

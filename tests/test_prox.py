"""Proximal subproblem: case chain, breakpoint sweep, exact interior, safety net."""

import numpy as np
import pytest

from pfbundle import prox
from pfbundle.oracle import qp_support_enumeration
from pfbundle.prox import (
    ProxSolution,
    edge_root,
    project_box,
    solve_prox,
    vertex_case,
)

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
    slope = np.array([1.0, -2.0, 0.5, 3.0])
    a, S = cut_arrays([0.2, 0.2, 0.2], [slope, slope, slope])
    center = np.array([0.05, 0.02, -0.5, 1.0])
    sol = solve_prox(center, a, S, 4.0, 0.1, 2)
    assert sol.case_used == "vertex"
    expect = project_box(center - slope / 4.0, 0.1, 2)
    np.testing.assert_allclose(sol.z, expect, atol=1e-15)
    assert sol.theta[0] == 1.0
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


def test_vertex_case_rejects_when_another_cut_dominates():
    a, S = cut_arrays([0.0, 0.0, -10.0], [[1.0], [-1.0], [0.0]])
    assert vertex_case(np.array([0.1]), a, S, 4.0, 0.1, 0) is None


def test_edge_root_matches_brute_force_scan():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(200):
        center, a, S, rho, beta, n_box = random_triple(rng)
        s = edge_root(center, a, S, 0, 1, rho, beta, n_box)
        if s is None:
            continue
        checked += 1

        def phi(t):
            theta = np.array([t, 1.0 - t, 0.0])
            z = project_box(center - (S.T @ theta) / rho, beta, n_box)
            vals = a + S @ z
            return float(vals[0] - vals[1])

        assert 0.0 < s < 1.0
        assert phi(s) == pytest.approx(0.0, abs=1e-9)
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


def test_sweep_root_with_tied_breakpoints_is_a_root():
    # Eighteen box coordinates, all free at s = 0, reach a bound at the same
    # s = 0.4: twelve clamp at zero, six at beta, with different slopes.  The tie makes
    # zero-length segments, and the returned s is still a root of phi.
    rho, beta, n_box, rate = 2.0, 0.1, 18, 0.5
    dh = np.concatenate([np.full(6, 1.0), np.full(6, 0.5), np.full(6, -0.5), [0.3, -0.2]])
    w0 = np.concatenate([np.full(6, 0.1), np.full(6, 0.05), np.full(6, 0.05), [0.4, 0.7]])

    def phi(t, phi0):
        moved = project_box(w0 - t * rate * dh / rho, beta, n_box)
        return phi0 + float(dh @ (moved - project_box(w0, beta, n_box)))

    at_tie = -phi(0.4, 0.0)
    after = -phi(1.0, 0.0)
    assert after - at_tie < 0.1 * at_tie         # the tie removes most of the slope
    for phi0 in (0.5 * at_tie, at_tie, 0.5 * (at_tie + after), 0.999 * after):
        s = prox._sweep_root(phi0, dh, w0, rate, rho, beta, n_box)
        assert 0.0 < s < 1.0
        assert abs(phi(s, phi0)) <= 1e-14 * (1.0 + abs(phi0))


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


def test_inexact_interior_solve_falls_back_to_oracle(monkeypatch):
    # Perturb the exact interior weights: the KKT check must hand the
    # instance to the enumeration oracle and land on its objective.
    rng = np.random.default_rng(6)
    found = None
    for _ in range(2000):
        center, a, S, rho, beta, n_box = random_triple(rng)
        if solve_prox(center, a, S, rho, beta, n_box).case_used == "interior":
            found = (center, a, S, rho, beta, n_box)
            break
    assert found is not None
    center, a, S, rho, beta, n_box = found
    exact = prox.interior_case

    def perturbed(*args):
        z, theta, evals = exact(*args)
        return z, theta + np.array([1e-3, -1e-3, 0.0]), evals

    monkeypatch.setattr(prox, "interior_case", perturbed)
    sol = solve_prox(center, a, S, rho, beta, n_box)
    assert sol.case_used == "fallback"
    assert sol.diagnostics["interior_kkt"] > 1e-10
    ref = qp_support_enumeration(center, a, S, rho, beta, n_box)
    assert sol.objective == pytest.approx(ref.objective, abs=1e-8)


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

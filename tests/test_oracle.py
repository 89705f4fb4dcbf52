"""Reference implementations: dense recomputation and enumeration solvers."""

import numpy as np
import pytest

from pfbundle import build_problem, plant_feasible, synth_radial
from pfbundle.oracle import (
    dense_apply_constraint,
    dense_constraint_matrix,
    dense_lambda_max,
    hermitian_basis,
    projected_subgradient_reference,
    qp_support_enumeration,
)
from pfbundle.operators import apply_constraint_rank1


def small_problem(seed=0, n_buses=2):
    net, _ = synth_radial(n_buses, seed=seed)
    inst = plant_feasible(net)
    return build_problem(net, inst.limits, inst.u)


def test_dense_lambda_max_on_diagonal_matrix():
    lam, vec = dense_lambda_max(np.diag([3.0, 1.0]).astype(complex))
    assert lam == 3.0
    np.testing.assert_allclose(vec, [1.0, 0.0], atol=1e-15)
    # The phase convention makes the dominant entry real positive.
    assert vec[0].imag == 0.0 and vec[0].real > 0.0


def test_dense_lambda_max_phase_is_deterministic():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    A = 0.5 * (raw + raw.conj().T)
    lam1, v1 = dense_lambda_max(A)
    lam2, v2 = dense_lambda_max(A.copy())
    assert lam1 == lam2
    np.testing.assert_array_equal(v1, v2)
    assert np.linalg.norm(A @ v1 - lam1 * v1) <= 1e-12 * (1 + abs(lam1))


def test_hermitian_basis_is_orthonormal():
    dim = 4
    basis = list(hermitian_basis(dim))
    assert len(basis) == dim * dim
    for a in range(len(basis)):
        for b in range(a, len(basis)):
            ip = float(np.trace(basis[a] @ basis[b]).real)
            expect = 1.0 if a == b else 0.0
            assert ip == pytest.approx(expect, abs=1e-14)


def test_dense_apply_constraint_matches_rank1_fast_path():
    problem = small_problem()
    rng = np.random.default_rng(1)
    v = rng.normal(size=problem.dim) + 1j * rng.normal(size=problem.dim)
    W = np.outer(v, v.conj())
    slow = dense_apply_constraint(W, problem.Y.toarray())
    fast = apply_constraint_rank1(problem, v)
    np.testing.assert_allclose(slow, fast, atol=1e-10 * (1 + np.abs(slow).max()))


def test_dense_constraint_matrix_encodes_the_adjoint():
    problem = small_problem()
    rng = np.random.default_rng(2)
    A = dense_constraint_matrix(problem.Y.toarray())
    basis = hermitian_basis(problem.dim)
    y = rng.normal(size=problem.n_box)
    # Reconstruct the adjoint from columns and compare with a direct pairing.
    coeffs = A.T @ y
    Astar = sum(c * b for c, b in zip(coeffs, basis))
    W = np.outer(*(lambda v: (v, v.conj()))(
        rng.normal(size=problem.dim) + 1j * rng.normal(size=problem.dim)
    ))
    lhs = float(y @ dense_apply_constraint(W, problem.Y.toarray()))
    rhs = float(np.trace(Astar @ W).real)
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(lhs)))


def test_support_enumeration_vertex_instance():
    center = np.array([0.05, -0.3])
    intercepts = np.array([0.0, -5.0, -5.0])
    slopes = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ref = qp_support_enumeration(center, intercepts, slopes, 4.0, 0.1, 1)
    assert ref.support == (0,)
    assert ref.theta[0] == pytest.approx(1.0, abs=1e-12)
    # Box coordinate clips at 0, free coordinate moves by -slope/rho.
    np.testing.assert_allclose(ref.z, [0.0, -0.3], atol=1e-12)


def test_support_enumeration_matches_two_cut_toy():
    center = np.array([0.1])
    intercepts = np.array([0.0, 0.0, -10.0])
    slopes = np.array([[1.0], [-1.0], [0.0]])
    ref = qp_support_enumeration(center, intercepts, slopes, 4.0, 0.1, 0)
    assert ref.support == (0, 1)
    assert ref.theta[0] == pytest.approx(0.7, abs=1e-10)
    assert ref.z[0] == pytest.approx(0.0, abs=1e-10)
    assert ref.objective == pytest.approx(0.02, abs=1e-10)


def test_support_enumeration_full_support_symmetric():
    s3 = np.sqrt(3.0) / 2.0
    slopes = np.array([[1.0, 0.0], [-0.5, s3], [-0.5, -s3]])
    ref = qp_support_enumeration(np.zeros(2), np.zeros(3), slopes, 4.0, 0.1, 0)
    assert ref.support == (0, 1, 2)
    np.testing.assert_allclose(ref.theta, [1 / 3, 1 / 3, 1 / 3], atol=1e-9)
    np.testing.assert_allclose(ref.z, [0.0, 0.0], atol=1e-10)


def test_projected_subgradient_reference_is_deterministic():
    problem = small_problem()
    run1 = projected_subgradient_reference(problem, iterations=200)
    run2 = projected_subgradient_reference(problem, iterations=200)
    assert run1.best_value == run2.best_value
    np.testing.assert_array_equal(run1.best_flat, run2.best_flat)
    assert run1.iterations == 200


def test_projected_subgradient_reference_improves_and_stays_in_box():
    problem = small_problem()
    short = projected_subgradient_reference(problem, iterations=20)
    long = projected_subgradient_reference(problem, iterations=800)
    assert long.best_value <= short.best_value + 1e-12
    assert long.best_value <= long.final_value + 1e-12
    y = long.best_flat[: problem.n_box]
    assert y.min() >= 0.0 and y.max() <= problem.beta

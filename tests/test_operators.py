"""Constraint maps, adjoint identities, the penalized objective, and Lanczos."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import zheevr

from pfbundle import (
    OperatingLimits,
    ThreePhaseNetwork,
    build_problem,
    plant_feasible,
    plant_infeasible,
    replicate_feeder,
    solve,
    synth_radial,
)
from pfbundle import operators
from pfbundle.operators import (
    DENSE_MAX_DIM,
    EigenFailure,
    apply_constraint_rank1,
    dense_extreme,
    dual_matrix,
    lanczos_extreme,
    leading_eigenpair,
    limit_offset_vector,
    penalty_subgradient,
    penalty_value,
    smat3,
    svec3,
)
from pfbundle.oracle import dense_dual_matrix, dense_lambda_max, dense_penalty_value

from conftest import (
    TEN_BUS_PARAMS,
    assert_bitwise,
    block_map,
    constraint_adjoint_matrix,
    criterion_4_feeders,
    criterion_4_walk_step,
    shift_invert,
    slack_block_matrix,
)


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (raw + raw.conj().T)


def random_problem(rng, n_buses=3, seed=None):
    net, _ = synth_radial(n_buses, seed=int(rng.integers(0, 10_000)) if seed is None else seed)
    inst = plant_feasible(net)
    return build_problem(net, inst.limits, inst.u)


def random_point(rng, problem):
    y = rng.uniform(0.0, problem.beta, size=problem.n_box)
    gamma = random_hermitian(rng, 3)
    return np.concatenate([y, svec3(gamma)])


def test_svec3_smat3_round_trip_and_isometry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        A = random_hermitian(rng, 3)
        B = random_hermitian(rng, 3)
        np.testing.assert_allclose(smat3(svec3(A)), A, atol=1e-15)
        # The embedding preserves the trace inner product.
        assert svec3(A) @ svec3(B) == pytest.approx(
            float(np.trace(A @ B).real), abs=1e-12
        )


def svec3_by_loop(mat):
    out = np.empty(9)
    out[0:3] = mat.diagonal().real
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        out[3 + k] = np.sqrt(2.0) * mat[i, j].real
        out[6 + k] = np.sqrt(2.0) * mat[i, j].imag
    return out


def smat3_by_loop(vec):
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 0], mat[1, 1], mat[2, 2] = vec[0], vec[1], vec[2]
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        z = (vec[3 + k] + 1j * vec[6 + k]) / np.sqrt(2.0)
        mat[i, j] = z
        mat[j, i] = z.conjugate()
    return mat


def test_svec3_smat3_equal_the_loop_definitions_bitwise():
    rng = np.random.default_rng(27)
    for _ in range(200):
        A = random_hermitian(rng, 3) * 10.0 ** rng.uniform(-8, 8)
        assert_bitwise(svec3(A), svec3_by_loop(A))
        vec = rng.normal(size=9) * 10.0 ** rng.uniform(-8, 8, size=9)
        assert_bitwise(smat3(vec), smat3_by_loop(vec))


def test_limit_offset_vector_frozen_single_bus():
    limits = OperatingLimits(
        p_upper=np.array([1.0, 2.0, 3.0]),
        p_lower=np.array([-0.5, -1.5, -2.5]),
        q_upper=np.array([4.0, 5.0, 6.0]),
        q_lower=np.array([-4.0, -5.0, -6.0]),
        v_upper=np.array([1.2, 1.3, 1.4]),
        v_lower=np.array([0.6, 0.7, 0.8]),
    )
    u = np.array([10.0, 20.0, 30.0])
    m = limit_offset_vector(u, limits)
    np.testing.assert_array_equal(m[0:3], [-11.0, -22.0, -33.0])    # -u - p_upper
    np.testing.assert_array_equal(m[3:6], [9.5, 18.5, 27.5])        # u + p_lower
    np.testing.assert_array_equal(m[6:9], [-4.0, -5.0, -6.0])       # -q_upper
    np.testing.assert_array_equal(m[9:12], [-4.0, -5.0, -6.0])      # q_lower
    np.testing.assert_array_equal(m[12:15], [-1.2, -1.3, -1.4])     # -v_upper
    np.testing.assert_array_equal(m[15:18], [0.6, 0.7, 0.8])        # v_lower


def test_build_problem_validates_inputs(two_bus, two_bus_planted):
    limits, u = two_bus_planted.limits, two_bus_planted.u
    with pytest.raises(ValueError, match="injection has shape"):
        build_problem(two_bus, limits, u[:-1])
    with pytest.raises(ValueError, match="non-finite"):
        build_problem(two_bus, limits, np.full_like(u, np.nan))
    flat = dataclasses.replace(limits, v_upper=np.zeros(6), v_lower=np.zeros(6))
    with pytest.raises(ValueError, match="alpha must be positive"):
        build_problem(two_bus, flat, u)
    prob = build_problem(two_bus, limits, u)
    assert prob.alpha == pytest.approx(2.0 * limits.v_upper.sum())
    assert prob.M1[0, 0] == 1.0 + 0.0j


def test_constraint_adjoint_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        problem = random_problem(rng, n_buses=int(rng.integers(2, 6)))
        dim = problem.dim
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        y = rng.normal(size=problem.n_box)
        lhs = float(y @ apply_constraint_rank1(problem, v))
        A = constraint_adjoint_matrix(problem, y)
        rhs = float(np.vdot(v, A @ v).real)
        scale = 1.0 + max(abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_constraint_adjoint_matrix_is_exactly_hermitian():
    rng = np.random.default_rng(8)
    problem = random_problem(rng, n_buses=4)
    y = rng.normal(size=problem.n_box)
    A = constraint_adjoint_matrix(problem, y).toarray()
    assert np.abs(A - A.conj().T).max() == 0.0


def test_slack_block_embedding_is_bitwise_exact():
    rng = np.random.default_rng(9)
    gamma = random_hermitian(rng, 3)
    B = slack_block_matrix(gamma, 5).toarray()
    np.testing.assert_array_equal(B[:3, :3], gamma)
    mask = np.ones((15, 15), dtype=bool)
    mask[:3, :3] = False
    assert np.all(B[mask] == 0.0)


def test_slack_block_adjoint_identity():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        gamma = random_hermitian(rng, 3)
        v = rng.normal(size=3 * n) + 1j * rng.normal(size=3 * n)
        lhs = float(np.vdot(v[:3], gamma @ v[:3]).real)
        rhs = float(np.vdot(v, slack_block_matrix(gamma, n) @ v).real)
        assert abs(lhs - rhs) <= 5e-15 * (1.0 + abs(lhs))


def meshed_network():
    """Two tied copies of a 4-bus feeder, closed into a loop by one extra line."""
    base, limits = synth_radial(4, seed=5)
    tie = np.array([[1.2, 0.1 + 0.2j, 0.0], [0.1 - 0.2j, 1.1, 0.05j], [0.0, -0.05j, 1.3]])
    net, limits = replicate_feeder(base, limits, 2, tie_block=tie)
    blocks = block_map(net)
    a, b = 3, net.n_buses - 1          # last bus of each copy
    series = np.diag([0.8, 0.9, 0.7]).astype(complex)
    blocks[(a, b)] = -series
    blocks[(b, a)] = -series
    blocks[(a, a)] = blocks[(a, a)] + series
    blocks[(b, b)] = blocks[(b, b)] + series
    return ThreePhaseNetwork(net.n_buses, list(blocks), list(blocks.values()),
                             net.slack_voltage), limits


def edited_feeder(edit):
    net, limits = synth_radial(3, seed=6)
    blocks = block_map(net)
    edit(blocks)
    return ThreePhaseNetwork(net.n_buses, list(blocks), list(blocks.values()),
                             net.slack_voltage), limits


def diagonal_slack_block(blocks):
    blocks[(0, 0)] = np.diag(np.diag(blocks[(0, 0)]))


def drop_bus_2_diagonal(blocks):
    del blocks[(2, 2)]


def triangular_bus_1_diagonal(blocks):
    # Diagonal blocks need not be Hermitian: Y's pattern is then not symmetric.
    blocks[(1, 1)] = np.triu(blocks[(1, 1)])


def test_dual_matrix_matches_dense_oracle():
    # Random radial feeders, then networks whose pattern is not a symmetric
    # block tree: a meshed one, a slack block with zero off-diagonals (the
    # corner positions then come only from the pattern), a bus without a
    # diagonal block and a non-Hermitian diagonal block.
    rng = np.random.default_rng(11)
    edited = (
        meshed_network(),
        edited_feeder(diagonal_slack_block),
        edited_feeder(drop_bus_2_diagonal),
        edited_feeder(triangular_bus_1_diagonal),
    )
    problems = itertools.chain(
        (random_problem(rng, n_buses=3) for _ in range(5)),
        (build_problem(net, limits, np.zeros(3 * net.n_buses)) for net, limits in edited),
    )
    for problem in problems:
        x = random_point(rng, problem)
        H = dual_matrix(problem, x).toarray()
        Hd = dense_dual_matrix(problem, x)
        scale = max(1.0, np.abs(Hd).max())
        assert np.abs(H - Hd).max() <= 1e-12 * scale
        assert np.abs(H - H.conj().T).max() == 0.0


@pytest.mark.parametrize("copies, nnz", [(1, 252), (30, 7299)])
def test_dual_matrix_pattern_is_the_block_pattern(copies, nnz):
    # One 3x3 block per bus and two per line: 28 and 811 blocks.
    net, limits = synth_radial(10, seed=3, params=TEN_BUS_PARAMS)
    net, limits = replicate_feeder(net, limits, copies)
    problem = build_problem(net, limits, np.zeros(3 * net.n_buses))
    x = random_point(np.random.default_rng(23), problem)
    assert dual_matrix(problem, x).nnz == nnz


def dual_pattern_by_unique_keys(Y):
    """DualPattern's arrays by the definition: np.unique over all keys."""
    n = Y.shape[0]
    coo = Y.tocoo()
    keep = coo.data != 0
    rows, cols = coo.row[keep].astype(np.int64), coo.col[keep].astype(np.int64)
    y_keys = rows * n + cols
    diag_keys = np.arange(n, dtype=np.int64) * (n + 1)
    corner_keys = (np.arange(3)[:, None] * n + np.arange(3)).ravel()
    keys = np.unique(np.concatenate([y_keys, cols * n + rows, diag_keys, corner_keys]))
    key_rows, key_cols = np.divmod(keys, n)
    y_data = np.zeros(keys.size, dtype=complex)
    y_data[np.searchsorted(keys, y_keys)] = coo.data[keep]
    transpose = np.searchsorted(keys, key_cols * n + key_rows)
    return dict(
        indptr=np.searchsorted(key_rows, np.arange(n + 1)).astype(np.int32),
        indices=key_cols.astype(np.int32),
        transpose=transpose,
        diagonal=np.searchsorted(keys, diag_keys),
        corner=np.searchsorted(keys, corner_keys),
        dense=keys,
        yh_data=np.conj(y_data[transpose]),
    )


def test_dual_pattern_equals_the_unique_key_construction_bitwise():
    feeder, feeder_limits = synth_radial(10, seed=3, params=TEN_BUS_PARAMS)
    networks = (
        meshed_network()[0],
        edited_feeder(diagonal_slack_block)[0],
        edited_feeder(drop_bus_2_diagonal)[0],
        edited_feeder(triangular_bus_1_diagonal)[0],
        replicate_feeder(feeder, feeder_limits, 30)[0],
    )
    for net in networks:
        Y = net.admittance
        pattern = vars(operators.dual_pattern(Y))
        expect = dual_pattern_by_unique_keys(Y)
        assert pattern.keys() == expect.keys()
        for name, arr in expect.items():
            assert_bitwise(pattern[name], arr)
            assert not pattern[name].flags.writeable


def test_apply_constraint_rank1_against_definition():
    rng = np.random.default_rng(12)
    problem = random_problem(rng, n_buses=3)
    v = rng.normal(size=problem.dim) + 1j * rng.normal(size=problem.dim)
    W = np.outer(v, v.conj())
    Yd = problem.Y.toarray()
    s = np.diag(W @ Yd.conj().T)
    d = np.real(np.diag(W))
    expect = np.concatenate([s.real, -s.real, s.imag, -s.imag, d, -d])
    np.testing.assert_allclose(
        apply_constraint_rank1(problem, v), expect, atol=1e-10 * (1 + np.abs(expect).max())
    )


def test_lanczos_on_diagonal_operator():
    diag = np.array([-1.0, 2.0, 2.0, 0.5, -3.0, 1.9])
    rng = np.random.default_rng(13)
    sigma = 2.5
    eig = lanczos_extreme(lambda v: v / (sigma - diag), diag.size, rng,
                          forward=lambda v: (sigma - diag) * v, start=np.ones(diag.size))
    assert sigma - 1.0 / eig.value == pytest.approx(2.0, abs=1e-10)
    assert eig.residual <= 1e-9
    assert eig.matvecs > 0
    # The eigenvector lives on the two tied coordinates.
    mass = np.abs(eig.vector[1]) ** 2 + np.abs(eig.vector[2]) ** 2
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_lanczos_matches_dense_on_random_hermitian():
    rng = np.random.default_rng(14)
    for dim in (5, 24, 80):
        A = random_hermitian(rng, dim)
        lam, _ = dense_lambda_max(A)
        sigma = lam + 0.1 * (1.0 + abs(lam))
        matvec, forward = shift_invert(A, sigma)
        eig = lanczos_extreme(matvec, dim, rng, forward=forward, start=np.ones(dim))
        value = sigma - 1.0 / eig.value
        assert abs(value - lam) <= 1e-9 * (1.0 + abs(lam))
        assert eig.residual <= 1e-9
        assert float(np.linalg.norm(A @ eig.vector - value * eig.vector)) <= 1e-8


def test_warm_start_from_a_lower_eigenvector_finds_lambda_max():
    # Started exactly at the second eigenvector, the Krylov space is
    # invariant; the blended random component is what lets Lanczos leave it.
    rng = np.random.default_rng(24)
    for trial in range(50):
        dim = int(rng.integers(61, 301))
        evals, V = np.linalg.eigh(random_hermitian(rng, dim))
        if trial % 2 == 0:
            evals[-1] = evals[-2] + 1e-3
        A = (V * evals) @ V.conj().T
        A = 0.5 * (A + A.conj().T)
        sigma = evals[-1] + 0.01 * (1.0 + abs(evals[-1]))
        matvec, forward = shift_invert(A, sigma)
        eig = lanczos_extreme(matvec, dim, rng, forward=forward, start=V[:, -2])
        value = sigma - 1.0 / eig.value
        assert abs(value - evals[-1]) <= 1e-9 * (1.0 + abs(evals[-1])), (trial, dim)
        assert eig.residual <= 1e-9


def test_lanczos_raises_on_impossible_tolerance():
    # One exhausted cycle raises, after min(dim, MAX_KRYLOV) solves: the
    # whole space at dim 12, the whole basis at dim 150.
    rng = np.random.default_rng(15)
    for dim in (12, 150):
        A = random_hermitian(rng, dim)
        solve, forward = shift_invert(A, np.linalg.eigvalsh(A)[-1] + 1.0)
        calls = []

        def matvec(v):
            calls.append(1)
            return solve(v)

        steps = min(dim, operators.MAX_KRYLOV)
        message = (rf"^no convergence in {steps} Lanczos steps:"
                   rf" residual \S+ \(tol 0\.0e\+00, dim {dim}\)$")
        with pytest.raises(EigenFailure, match=message):
            lanczos_extreme(matvec, dim, rng, forward=forward, start=np.ones(dim), tol=0.0)
        assert len(calls) == steps


def test_lanczos_converges_on_a_clustered_top_in_one_cycle():
    # Acceptance criterion 4's first operator: the top three eigenvalues
    # within 2e-4 and the shift 1 + |lambda| above the top.  One cycle holds
    # the whole call, which needs more than 60 solves.
    rng = np.random.default_rng(104)
    dim = int(rng.integers(2, 301))
    evals, evecs = np.linalg.eigh(random_hermitian(rng, dim))
    evals[-3:] = evals[-1] - np.array([2e-4, 1e-4, 0.0])
    A = (evecs * evals) @ evecs.conj().T
    A = 0.5 * (A + A.conj().T)
    lam = dense_lambda_max(A)[0]
    sigma = lam + (1.0 + abs(lam))
    matvec, forward = shift_invert(A, sigma)
    eig = lanczos_extreme(matvec, dim, rng, forward=forward, start=np.ones(dim), tol=1e-10)
    assert dim == 212
    assert 60 < eig.matvecs <= operators.MAX_KRYLOV
    assert eig.residual <= 1e-10
    assert abs(sigma - 1.0 / eig.value - lam) <= 1e-9 * (1.0 + abs(lam))


def test_top_ritz_matches_scipy_eigh_tridiagonal_bitwise():
    # _top_ritz calls the LAPACK routines behind eigh_tridiagonal directly.
    rng = np.random.default_rng(19)
    split = (np.array([5.0, 1.0, 3.0, 4.0]), np.array([0.5, 0.0, 0.2, 0.0]))
    cases = [(rng.normal(size=n), np.abs(rng.normal(size=n))) for n in (2, 8, 24, 60)]
    for alphas, betas in cases + [split]:
        used = alphas.size
        w, v = eigh_tridiagonal(alphas, betas[: used - 1], select="i",
                                select_range=(used - 1, used - 1))
        value, vector = operators._top_ritz(alphas, betas)
        assert value == w[-1]
        np.testing.assert_array_equal(vector, v[:, -1])


def test_top_ritz_raises_eigen_failure_on_a_lapack_error(monkeypatch):
    monkeypatch.setattr(
        operators, "dstebz",
        lambda d, e, *args: (0, np.zeros(d.size), np.zeros(d.size, np.int32),
                             np.zeros(d.size, np.int32), 3),
    )
    with pytest.raises(EigenFailure, match="LAPACK info 3"):
        operators._top_ritz(np.ones(4), np.ones(4))


def test_leading_eigenpair_agrees_with_dense_negated_matrix():
    rng = np.random.default_rng(16)
    problem = random_problem(rng, n_buses=4)
    x = random_point(rng, problem)
    eig = leading_eigenpair(problem, x, rng)
    H = dual_matrix(problem, x).toarray()
    lam, _ = dense_lambda_max(-H)
    assert eig.value == pytest.approx(lam, abs=1e-9)
    assert eig.residual <= 1e-9
    assert np.linalg.norm(eig.vector) == pytest.approx(1.0, abs=1e-12)


def dense_path_cases(rng, dim):
    """A random Hermitian H, and one whose -H has a doubled top eigenvalue."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(raw)
    spectrum = rng.normal(size=dim)
    spectrum[-2:] = spectrum.max() + 1.0
    doubled = -(q * spectrum) @ q.conj().T
    return [raw + raw.conj().T, 0.5 * (doubled + doubled.conj().T)]


@pytest.mark.parametrize("dim", [3, 30, 60, 90, DENSE_MAX_DIM])
def test_dense_path_returns_the_top_two_eigenpairs(dim):
    eig_tol = 1e-9
    for H in dense_path_cases(np.random.default_rng(dim), dim):
        eig = dense_extreme(-H)
        top = np.linalg.eigvalsh(-H)[-1]
        assert abs(eig.value - top) <= 1e-12 * (1.0 + abs(top))
        assert eig.residual <= eig_tol
        # The residual's product is einsum's, summed in another order than
        # BLAS's: the two agree to dim roundings of the largest row sum.
        blas = np.linalg.norm(-H @ eig.vector - eig.value * eig.vector)
        row_sum = np.abs(H).sum(axis=1).max()
        assert abs(eig.residual - blas) <= 4 * dim * np.finfo(float).eps * row_sum
        assert eig.matvecs == 0


def test_dense_path_raises_eigen_failure_on_a_lapack_error(monkeypatch):
    H = dense_path_cases(np.random.default_rng(5), 6)[0]
    monkeypatch.setattr(
        operators, "zheevr",
        lambda a, **kw: (np.zeros(6), np.zeros((6, 1), complex), 0, np.zeros(2, np.int32), 7),
    )
    with pytest.raises(EigenFailure, match="LAPACK info 7"):
        dense_extreme(-H)


@pytest.mark.parametrize(
    "n_buses", [DENSE_MAX_DIM // 3, DENSE_MAX_DIM // 3 + 1], ids=["dense", "lanczos"]
)
def test_leading_eigenpair_path_follows_the_dimension(n_buses, monkeypatch):
    rng = np.random.default_rng(22)
    problem = random_problem(rng, n_buses=n_buses)
    x = random_point(rng, problem)
    lanczos_calls = []

    def counted(*args, **kwargs):
        lanczos_calls.append(1)
        return lanczos_extreme(*args, **kwargs)

    monkeypatch.setattr(operators, "lanczos_extreme", counted)
    eig = leading_eigenpair(problem, x, rng)
    lam, _ = dense_lambda_max(-dual_matrix(problem, x).toarray())
    assert len(lanczos_calls) == int(problem.dim > DENSE_MAX_DIM)
    assert abs(eig.value - lam) <= 1e-9
    assert eig.residual <= 1e-9


def test_dense_path_scatters_the_negated_sparse_matrix_bitwise():
    # Signed zeros included: values added onto zeros and then negated give
    # the -0.0 of -toarray(), and zheevr's bits depend on it.
    rng = np.random.default_rng(28)
    for seed in range(5):
        net, _ = synth_radial(10, seed=seed, params=TEN_BUS_PARAMS)
        inst = plant_feasible(net)
        problem = build_problem(net, inst.limits, inst.u)
        dim = problem.dim
        for x in (problem.start_point(), random_point(rng, problem)):
            neg = problem.pattern.negated_dense(operators.dual_data(problem, x))
            expect = -dual_matrix(problem, x).toarray()
            assert_bitwise(neg, expect)
            eig = leading_eigenpair(problem, x, rng)
            w, z, _, _, info = zheevr(expect, range="I", il=dim, iu=dim)
            assert info == 0
            assert eig.value == w[0]
            assert_bitwise(eig.vector, operators._normalize_phase(np.ascontiguousarray(z[:, 0])))


@pytest.fixture(scope="module")
def replica_above_dense():
    """A 46-bus replica of the 10-bus feeder: dim 138, on the Lanczos path."""
    net, limits = synth_radial(10, seed=3, params=TEN_BUS_PARAMS)
    net, limits = replicate_feeder(net, limits, 5)
    inst = plant_feasible(net)
    problem = build_problem(net, inst.limits, inst.u)
    assert problem.dim > DENSE_MAX_DIM
    return problem, random_point(np.random.default_rng(29), problem)


def record_factors(monkeypatch):
    """Record (sigma, proved) for every factor leading_eigenpair attempts.

    A call's last attempt is the one that proved its shift.
    """
    attempts = []
    factor = operators.shifted_factor

    def recorded(plan, h_data, sigma):
        lu = factor(plan, h_data, sigma)
        attempts.append((sigma, lu is not None))
        return lu

    monkeypatch.setattr(operators, "shifted_factor", recorded)
    return attempts


def test_factor_path_equals_lanczos_on_the_shifted_inverse_bitwise(replica_above_dense,
                                                                    monkeypatch):
    # Above DENSE_MAX_DIM, leading_eigenpair is lanczos_extreme on the solves
    # with sigma I + H, forward operator sigma I + H, mapped back: lambda =
    # sigma - 1 / theta.  A call without a start vector
    # starts from the all-ones one.
    problem, x = replica_above_dense
    H = dual_matrix(problem, x)
    plan = problem.pattern.factor_plan
    order, dim = plan.order, problem.dim
    attempts = record_factors(monkeypatch)
    start = np.random.default_rng(30).normal(size=dim) + 0j
    for warm in (None, start):
        eig = leading_eigenpair(problem, x, np.random.default_rng(31), start=warm)
        sigma, _ = attempts[-1]
        lu = operators.shifted_factor(plan, H.data, sigma)

        def solve(v):
            out = np.empty(dim, dtype=complex)
            out[order] = lu.solve(v[order])
            return out

        direct = lanczos_extreme(solve, dim, np.random.default_rng(31),
                                 forward=lambda v: H @ v + sigma * v,
                                 start=np.ones(dim) if warm is None else warm)
        assert (eig.value, eig.residual, eig.matvecs) == (
            sigma - 1.0 / direct.value, direct.residual, direct.matvecs)
        assert_bitwise(eig.vector, direct.vector)
        assert eig.residual == pytest.approx(
            np.linalg.norm(H @ eig.vector + eig.value * eig.vector), rel=1e-6)


@pytest.mark.parametrize("copies, plant", [(20, plant_infeasible), (30, plant_feasible)],
                         ids=["k20-infeasible", "k30-feasible"])
def test_a_call_without_start_starts_from_all_ones_in_one_factor(copies, plant, monkeypatch):
    # The first eigensolve of a run has no previous eigenvector: the shift
    # and Lanczos start from the all-ones vector.  At the start points of
    # the replicated feeders the first shift passes, and every solve with
    # that factor is one of Lanczos's, counted in matvecs.
    net, limits = synth_radial(10, seed=3, params=TEN_BUS_PARAMS)
    net, _ = replicate_feeder(net, limits, copies)
    inst = plant(net)
    problem = build_problem(net, inst.limits, inst.u)
    x = problem.start_point()
    factor = operators.shifted_factor
    factors, solves = [], []

    def counted(plan, h_data, sigma):
        factors.append(sigma)
        lu = factor(plan, h_data, sigma)
        if lu is None:
            return None

        def solve(vec):
            solves.append(1)
            return lu.solve(vec)

        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(operators, "shifted_factor", counted)
    eig = leading_eigenpair(problem, x, np.random.default_rng(0))
    assert len(factors) == 1
    assert eig.matvecs == len(solves) > 0
    ones = leading_eigenpair(problem, x, np.random.default_rng(0), start=np.ones(problem.dim))
    assert (eig.value, eig.residual, eig.matvecs) == (
        ones.value, ones.residual, ones.matvecs)
    assert_bitwise(eig.vector, ones.vector)


def test_factor_path_operator_inverts_the_shifted_matrix(replica_above_dense, monkeypatch):
    # The operator Lanczos sees is the solve with SuperLU's factor of
    # sigma I + H in the plan's order, called without splu's wrapper: it must
    # give splu's bits on that matrix, and the import must resolve.  Its
    # forward operator is sigma I + H itself.
    from scipy.sparse.linalg import splu
    from scipy.sparse.linalg._dsolve._superlu import gstrf

    assert operators.gstrf is gstrf
    problem, point = replica_above_dense
    order, dim = problem.pattern.factor_plan.order, problem.dim
    attempts = record_factors(monkeypatch)
    operators_seen = []

    def captured(matvec, *args, **kwargs):
        operators_seen.append((matvec, kwargs["forward"]))
        return lanczos_extreme(matvec, *args, **kwargs)

    monkeypatch.setattr(operators, "lanczos_extreme", captured)
    rng = np.random.default_rng(33)
    for x in (point, problem.start_point()):
        eig = leading_eigenpair(problem, x, rng)
        solve, forward = operators_seen[-1]
        sigma, _ = attempts[-1]
        shifted = dual_matrix(problem, x) + sigma * sp.identity(dim, format="csr")
        public = splu(shifted[order][:, order].tocsc(), permc_spec="NATURAL",
                      diag_pivot_thresh=0.0, panel_size=1, options=dict(SymmetricMode=True))
        for _ in range(5):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            out = solve(v)
            assert_bitwise(out[order], public.solve(v[order]))
            assert np.linalg.norm(shifted @ out - v) <= 1e-10 * np.linalg.norm(v) * (
                1.0 + abs(1.0 / (sigma - eig.value)))
            np.testing.assert_allclose(forward(v), shifted @ v, rtol=0, atol=1e-12)
    assert len(operators_seen) == 2


@pytest.fixture(scope="module")
def inertia_cases():
    """A replica, a deep feeder and a tied replica, each above DENSE_MAX_DIM."""
    base, base_limits = synth_radial(10, seed=3, params=TEN_BUS_PARAMS)
    deep, deep_limits = synth_radial(60, seed=3, params=TEN_BUS_PARAMS)
    tie = 0.8 * np.eye(3, dtype=complex) + 0.1 * (np.ones((3, 3)) - np.eye(3))
    cases = {
        "replica": replicate_feeder(base, base_limits, 5),
        "deep": (deep, deep_limits),
        "tied": replicate_feeder(base, base_limits, 6, tie_block=tie),
    }
    problems = {}
    for name, (net, _) in cases.items():
        inst = plant_feasible(net)
        problems[name] = build_problem(net, inst.limits, inst.u)
        assert problems[name].dim > DENSE_MAX_DIM
    return problems


@pytest.mark.parametrize("name", ["replica", "deep", "tied"])
def test_inertia_verdict_agrees_with_the_dense_spectrum(inertia_cases, name):
    # A factor of sigma I + H exists exactly when sigma > lambda_max(-H).
    problem = inertia_cases[name]
    plan = problem.pattern.factor_plan
    rng = np.random.default_rng(40)
    for x in (problem.start_point(), random_point(rng, problem), random_point(rng, problem)):
        H = dual_matrix(problem, x)
        lam = float(np.linalg.eigvalsh(-H.toarray())[-1])
        step = 1e-6 * (1.0 + abs(lam))
        assert operators.shifted_factor(plan, H.data, lam + step) is not None
        assert operators.shifted_factor(plan, H.data, lam - step) is None


def test_shifted_factor_reads_the_pivots_splu_reports(monkeypatch):
    # shifted_factor reads U's diagonal as the last entry of each column of
    # gstrf's raw CSC arrays; its verdict must be the one splu's U gives, on
    # every shift, and every factor must have that layout.
    from scipy.sparse.linalg import splu

    raw_u = []
    factor = operators.gstrf

    def recorded(*args, **kwargs):
        lu = factor(*args, **kwargs)
        raw_u.append(lu.U)
        return lu

    monkeypatch.setattr(operators, "gstrf", recorded)
    rng = np.random.default_rng(41)
    for n in range(36, 48):
        net, _ = synth_radial(n, seed=3, params=TEN_BUS_PARAMS)
        inst = plant_feasible(net)
        problem = build_problem(net, inst.limits, inst.u)
        plan = problem.pattern.factor_plan
        for x in (problem.start_point(), random_point(rng, problem)):
            H = dual_matrix(problem, x)
            lam = float(np.linalg.eigvalsh(-H.toarray())[-1])
            for sigma in (lam - 0.5, lam - 1e-3, lam + 1e-3, lam + 2.0):
                verdict = operators.shifted_factor(plan, H.data, sigma) is not None
                mat = sp.csc_matrix((plan.shifted_data(H.data, sigma), plan.indices, plan.indptr),
                                    shape=(problem.dim, problem.dim))
                lu = splu(mat, permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=1,
                          options=dict(SymmetricMode=True))
                assert verdict == (np.array_equal(lu.perm_r, lu.perm_c)
                                   and bool(np.all(lu.U.diagonal().real > 0)))
                assert verdict == (sigma > lam)
                _, rows, indptr = raw_u[-1]
                np.testing.assert_array_equal(rows[indptr[1:] - 1], np.arange(problem.dim))


def test_shifted_factor_rejects_an_off_diagonal_pivot():
    # SuperLU passes over a zero diagonal pivot.  [[0, 1], [1, 0]] factors
    # with rows swapped and positive pivots, yet its eigenvalues are -1 and 1:
    # only a factor that kept the diagonal proves anything.
    plan = operators.FactorPlan(
        order=np.arange(2), indptr=np.array([0, 2, 4], dtype=np.int32),
        indices=np.array([0, 1, 0, 1], dtype=np.int32), source=np.arange(4),
        diagonal=np.array([0, 3]),
    )
    h_data = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex)
    assert operators.shifted_factor(plan, h_data, 0.0) is None
    assert operators.shifted_factor(plan, h_data, 1.5) is not None
    assert operators.shifted_factor(plan, h_data, 0.5) is None


def test_factor_plan_is_fill_free_on_trees_and_sorted_by_depth(inertia_cases):
    # On a tree the plan's order makes no fill, SuperLU keeps it, and the
    # columns run deepest first in the elimination tree, so a column is
    # directly followed by its parent only where one depth ends.
    for name, problem in inertia_cases.items():
        plan = problem.pattern.factor_plan
        H = dual_matrix(problem, problem.start_point())
        lu = operators.shifted_factor(plan, H.data, 10.0)
        _, l_rows, l_indptr = lu.L
        n = problem.dim
        cols = np.repeat(np.arange(n), np.diff(l_indptr))
        rows = l_rows[: l_indptr[-1]]
        below = rows > cols
        assert np.array_equal(lu.perm_c, np.arange(n))
        assert below.sum() == (H.nnz - n) // 2, name      # a tree: no fill
        parent = np.full(n + 1, n)
        np.minimum.at(parent, cols[below], rows[below])
        depth = np.zeros(n + 1, dtype=int)
        for j in range(n - 1, -1, -1):
            if parent[j] < n:
                depth[j] = depth[parent[j]] + 1
        assert np.all(np.diff(depth[:n]) <= 0), name


def test_first_eigensolve_on_a_deep_3000_bus_feeder_converges():
    # Restarted Lanczos on -H stalled on this start point's cluster of top
    # eigenvalues and raised EigenFailure; no dense check fits in memory, so
    # the inertia test proves the value is the top one.
    net, _ = synth_radial(3000, seed=3, params=TEN_BUS_PARAMS)
    inst = plant_feasible(net)
    problem = build_problem(net, inst.limits, inst.u)
    x = problem.start_point()
    eig = leading_eigenpair(problem, x, np.random.default_rng(0))
    H = dual_matrix(problem, x)
    assert eig.residual <= 1e-9
    assert eig.residual == pytest.approx(
        np.linalg.norm(H @ eig.vector + eig.value * eig.vector), rel=1e-6)
    assert eig.value < 0.0
    # The shift above the all-ones vector's Rayleigh quotient separates the
    # top of the cluster: one factor and 41 solves at writing, where sigma = 0
    # alone leaves theta_2 / theta_1 near 0.995.
    assert eig.matvecs <= 60
    step = 1e-6 * (1.0 + abs(eig.value))
    plan = problem.pattern.factor_plan
    assert operators.shifted_factor(plan, H.data, eig.value + step) is not None
    assert operators.shifted_factor(plan, H.data, eig.value - step) is None


@pytest.fixture(scope="module")
def deep_181():
    """The planted-feasible deep 181-bus feeder: dim 543, on the factor path."""
    net, _ = synth_radial(181, seed=3, params=TEN_BUS_PARAMS)
    inst = plant_feasible(net)
    return build_problem(net, inst.limits, inst.u)


def test_a_warm_call_given_the_temple_quotient_matches_one_without(deep_181):
    # Along criterion 4's random walk, each call starts from the previous
    # eigenvector, as the bundle loop does.  Given the previous call's Temple
    # quotient the shift sits closer to the top; the eigenpair must not move.
    rng = np.random.default_rng(36)
    tol = 1e-9
    for problem in [*criterion_4_feeders(), deep_181]:
        x = problem.start_point()
        prev = leading_eigenpair(problem, x, rng, tol=tol)
        assert prev.factors >= 1 and prev.quotient > 0.0
        for _ in range(5):
            x = criterion_4_walk_step(rng, problem, x)
            seed = int(rng.integers(2**32))
            warm = leading_eigenpair(problem, x, np.random.default_rng(seed), tol=tol,
                                     start=prev.vector, quotient=prev.quotient)
            fixed = leading_eigenpair(problem, x, np.random.default_rng(seed), tol=tol,
                                      start=prev.vector)
            assert abs(warm.value - fixed.value) <= tol
            assert warm.residual <= tol and fixed.residual <= tol
            assert warm.factors <= fixed.factors + 1
            prev = warm


def test_a_wrong_temple_quotient_costs_at_most_one_factor(deep_181, monkeypatch):
    # A quotient 1e12 times too small is capped at the fixed margin b, so the
    # call takes no extra factor and is the one without a quotient, bit for
    # bit.  One 1e12 times too large puts the first shift below the top:
    # that factor fails the inertia test and the call falls back to b, one
    # extra factor.
    problem = deep_181
    rng = np.random.default_rng(37)
    x = problem.start_point()
    prev = leading_eigenpair(problem, x, rng)
    x = criterion_4_walk_step(rng, problem, x)
    H = dual_matrix(problem, x)
    top, _ = dense_lambda_max(-H.toarray())
    mu, _ = operators._rayleigh(H, prev.vector)
    attempts = record_factors(monkeypatch)
    calls = {}
    for name, quotient in (("none", np.nan), ("small", 1e-12 * prev.quotient),
                           ("large", 1e12 * prev.quotient)):
        attempts.clear()
        eig = leading_eigenpair(problem, x, np.random.default_rng(38), start=prev.vector,
                                quotient=quotient)
        assert abs(eig.value - top) <= 1e-9 * (1.0 + abs(top))
        assert eig.residual <= 1e-9
        assert eig.factors == len(attempts)
        calls[name] = eig, list(attempts)
    none, none_attempts = calls["none"]
    small, small_attempts = calls["small"]
    assert small_attempts == none_attempts == [(mu + operators.SHIFT_MARGIN * (1.0 + abs(mu)),
                                                True)]
    assert (small.value, small.residual, small.matvecs) == (
        none.value, none.residual, none.matvecs)
    assert_bitwise(small.vector, none.vector)
    large, large_attempts = calls["large"]
    (first, proved), *rest = large_attempts
    assert first < top and not proved
    assert rest == none_attempts


def test_temple_shift_cuts_the_solves_of_the_k20_infeasible_run():
    # The benchmark's feeder_k20_infeasible case: 206 solves with the fixed
    # margin, 156 with the Temple shift, in 30 iterations and as many factors.
    net, limits = synth_radial(10, seed=3, params=TEN_BUS_PARAMS)
    net, _ = replicate_feeder(net, limits, 20)
    inst = plant_infeasible(net)
    report = solve(build_problem(net, inst.limits, inst.u))
    assert report.converged and report.verdict == "infeasible_or_undecided"
    assert sum(h.eig_matvecs for h in report.history) <= 170
    assert sum(h.eig_factors for h in report.history) <= report.iterations + 2


def test_lanczos_with_the_second_gram_schmidt_pass_on_every_step(replica_above_dense,
                                                                 monkeypatch):
    # The DGKS repeat almost never fires on the feeders; a ratio above one
    # forces it on every step.  The repeat only removes roundoff, so the
    # same seeds take as many products as with the default ratio.
    rng = np.random.default_rng(34)
    matrices = [random_hermitian(rng, dim) for dim in (24, 80, 200)]
    problem, x = replica_above_dense
    matrices.append(-dual_matrix(problem, x).toarray())

    tops = [dense_lambda_max(A)[0] for A in matrices]
    shifts = [lam + 0.1 * (1.0 + abs(lam)) for lam in tops[:-1]]

    def run(seed):
        results = []
        for A, sigma in zip(matrices, shifts):
            matvec, forward = shift_invert(A, sigma)
            eig = lanczos_extreme(matvec, A.shape[0], np.random.default_rng(seed),
                                  forward=forward, start=np.ones(A.shape[0]))
            results.append(dataclasses.replace(eig, value=sigma - 1.0 / eig.value))
        return results + [leading_eigenpair(problem, x, np.random.default_rng(seed))]

    single = run(35)
    monkeypatch.setattr(operators, "_DGKS_RATIO", 2.0)
    for A, lam, default, eig in zip(matrices, tops, single, run(35)):
        assert abs(eig.value - lam) <= 1e-9 * (1.0 + abs(lam)), A.shape
        assert eig.residual <= 1e-9
        assert float(np.linalg.norm(A @ eig.vector - eig.value * eig.vector)) <= 1e-8
        assert eig.matvecs == default.matvecs


def test_streamed_dense_oracle_checks_the_lanczos_path(replica_above_dense):
    problem, x = replica_above_dense
    Hd = dense_dual_matrix(problem, x)
    H = dual_matrix(problem, x).toarray()
    assert np.abs(H - Hd).max() <= 1e-12 * max(1.0, np.abs(Hd).max())
    eig = leading_eigenpair(problem, x, np.random.default_rng(32))
    assert eig.matvecs > 0
    lam, _ = dense_lambda_max(-Hd)
    assert abs(eig.value - lam) <= 1e-9 * (1.0 + abs(lam))
    assert eig.residual <= 1e-9


def test_penalty_value_positive_part():
    rng = np.random.default_rng(17)
    problem = random_problem(rng, n_buses=2)

    # At the origin H = C, which is positive definite for these feeders, so
    # the eigenvalue term is clipped and f equals the linear part exactly.
    x0 = np.zeros(problem.n_box + 9)
    eig = leading_eigenpair(problem, x0, rng)
    f, f_lambda = penalty_value(problem, x0, eig)
    assert eig.value < 0.0
    assert f == float(problem.fixed_slope @ x0)
    assert f_lambda < f

    # A strongly negative Gamma makes -H dominant, so both values agree.
    x1 = np.concatenate([np.zeros(problem.n_box), svec3(-50.0 * np.eye(3, dtype=complex))])
    eig1 = leading_eigenpair(problem, x1, rng)
    f1, f_lambda1 = penalty_value(problem, x1, eig1)
    assert eig1.value > 0.0
    assert f1 == f_lambda1


def test_penalty_value_matches_dense_oracle():
    rng = np.random.default_rng(18)
    for _ in range(5):
        problem = random_problem(rng, n_buses=3)
        x = random_point(rng, problem)
        eig = leading_eigenpair(problem, x, rng, tol=1e-11)
        f, f_lambda = penalty_value(problem, x, eig)
        fd, fld, lam = dense_penalty_value(problem, x)
        assert f == pytest.approx(fd, abs=1e-8)
        assert f_lambda == pytest.approx(fld, abs=1e-8)


def test_subgradient_minorant_inequality():
    # f_lambda is convex, so its subgradient plane at any point stays below
    # f_lambda everywhere, and below f wherever the positive part is active.
    rng = np.random.default_rng(19)
    problem = random_problem(rng, n_buses=2)
    for _ in range(20):
        x = random_point(rng, problem)
        eig = leading_eigenpair(problem, x, rng, tol=1e-11)
        _, f_lambda = penalty_value(problem, x, eig)
        g = penalty_subgradient(problem, eig)
        x2 = random_point(rng, problem)
        _, f_lambda2 = penalty_value(
            problem, x2, leading_eigenpair(problem, x2, rng, tol=1e-11)
        )
        plane = f_lambda + float(g @ (x2 - x))
        assert plane <= f_lambda2 + 1e-8 * (1.0 + abs(f_lambda2))


def test_subgradient_staleness_check():
    rng = np.random.default_rng(20)
    problem = random_problem(rng, n_buses=2)
    x = random_point(rng, problem)
    eig = leading_eigenpair(problem, x, rng)
    g = penalty_subgradient(problem, eig)
    assert g.shape == (problem.n_box + 9,)

    def residual(point):
        v = eig.vector
        return float(np.linalg.norm(-(dual_matrix(problem, point) @ v) - eig.value * v))

    # The pair is current at x and stale once one multiplier block moves far away.
    assert residual(x) <= 1e-6
    x2 = x.copy()
    x2[: problem.dim] += 10.0 * problem.beta
    assert residual(x2) > 1e-6


def test_fixed_slope_and_start_point():
    rng = np.random.default_rng(21)
    problem = random_problem(rng, n_buses=2)
    slope = problem.fixed_slope
    assert problem.fixed_slope is slope and not slope.flags.writeable
    np.testing.assert_array_equal(slope[: problem.n_box], -problem.m_vec)
    np.testing.assert_allclose(slope[problem.n_box :], svec3(problem.M1), atol=1e-15)
    x0 = problem.start_point()
    np.testing.assert_array_equal(x0[: problem.n_box], np.full(problem.n_box, 0.5 * problem.beta))
    np.testing.assert_array_equal(x0[problem.n_box :], np.zeros(9))

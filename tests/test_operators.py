"""Constraint maps, adjoint identities, the penalized objective, and Lanczos."""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import zheevr

from pfbundle import (
    OperatingLimits,
    ThreePhaseNetwork,
    build_problem,
    plant_feasible,
    replicate_feeder,
    synth_radial,
)
from pfbundle import operators
from pfbundle.network import assemble_admittance
from pfbundle.operators import (
    DENSE_MAX_DIM,
    DualPoint,
    EigenFailure,
    apply_constraint_rank1,
    constraint_adjoint_matrix,
    dense_extreme,
    dual_matrix,
    lanczos_extreme,
    leading_eigenpair,
    limit_offset_vector,
    penalty_subgradient,
    penalty_value,
    slack_block_matrix,
    smat3,
    svec3,
)
from pfbundle.oracle import dense_dual_matrix, dense_lambda_max, dense_penalty_value

from conftest import TEN_BUS_PARAMS


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
    return problem.point(y, gamma)


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


def assert_bitwise(actual, expect):
    assert actual.dtype == expect.dtype and actual.shape == expect.shape
    assert actual.tobytes() == expect.tobytes()


def test_svec3_smat3_equal_the_loop_definitions_bitwise():
    rng = np.random.default_rng(27)
    for _ in range(200):
        A = random_hermitian(rng, 3) * 10.0 ** rng.uniform(-8, 8)
        assert_bitwise(svec3(A), svec3_by_loop(A))
        vec = rng.normal(size=9) * 10.0 ** rng.uniform(-8, 8, size=9)
        assert_bitwise(smat3(vec), smat3_by_loop(vec))


def test_dual_point_shape_check_and_parts():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="flat vector"):
        DualPoint(flat=np.zeros(10), n_buses=2)
    y = rng.uniform(size=36)
    gamma = random_hermitian(rng, 3)
    pt = DualPoint.from_parts(y, gamma, 2)
    np.testing.assert_array_equal(pt.y, y)
    np.testing.assert_allclose(pt.gamma, gamma, atol=1e-15)


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
    blocks = dict(net.blocks)
    a, b = 3, net.n_buses - 1          # last bus of each copy
    series = np.diag([0.8, 0.9, 0.7]).astype(complex)
    blocks[(a, b)] = -series
    blocks[(b, a)] = -series
    blocks[(a, a)] = blocks[(a, a)] + series
    blocks[(b, b)] = blocks[(b, b)] + series
    return ThreePhaseNetwork(net.n_buses, blocks, net.slack_voltage), limits


def edited_feeder(edit):
    net, limits = synth_radial(3, seed=6)
    blocks = dict(net.blocks)
    edit(blocks)
    return ThreePhaseNetwork(net.n_buses, blocks, net.slack_voltage), limits


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
        Y = assemble_admittance(net)
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
    value, vec, resid, value2, matvecs = lanczos_extreme(
        lambda v: diag * v, diag.size, rng
    )
    assert value == pytest.approx(2.0, abs=1e-10)
    assert resid <= 1e-9
    assert matvecs > 0
    # The eigenvector lives on the two tied coordinates.
    mass = np.abs(vec[1]) ** 2 + np.abs(vec[2]) ** 2
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_lanczos_matches_dense_on_random_hermitian():
    rng = np.random.default_rng(14)
    for dim in (5, 24, 80):
        A = random_hermitian(rng, dim)
        value, vec, resid, value2, _ = lanczos_extreme(lambda v: A @ v, dim, rng)
        lam, _ = dense_lambda_max(A)
        assert abs(value - lam) <= 1e-9 * (1.0 + abs(lam))
        assert resid <= 1e-9
        assert float(np.linalg.norm(A @ vec - value * vec)) <= 1e-8


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
        value, _, resid, _, _ = lanczos_extreme(
            lambda v: A @ v, dim, rng, start=V[:, -2]
        )
        assert abs(value - evals[-1]) <= 1e-9 * (1.0 + abs(evals[-1])), (trial, dim)
        assert resid <= 1e-9


def test_lanczos_raises_on_impossible_tolerance():
    rng = np.random.default_rng(15)
    A = random_hermitian(rng, 12)
    with pytest.raises(EigenFailure, match="no convergence"):
        lanczos_extreme(lambda v: A @ v, 12, rng, tol=0.0, max_restarts=1)


def test_top_ritz_matches_scipy_eigh_tridiagonal_bitwise():
    # _top_ritz calls the LAPACK routines behind eigh_tridiagonal directly.
    rng = np.random.default_rng(19)
    split = (np.array([5.0, 1.0, 3.0, 4.0]), np.array([0.5, 0.0, 0.2, 0.0]))
    cases = [(rng.normal(size=n), np.abs(rng.normal(size=n))) for n in (2, 8, 24, 60)]
    for alphas, betas in cases + [split]:
        used = alphas.size
        for count in (1, 2):
            w, v = eigh_tridiagonal(alphas, betas[: used - 1], select="i",
                                    select_range=(used - count, used - 1))
            values, vector = operators._top_ritz(alphas, betas, count)
            np.testing.assert_array_equal(values, w)
            np.testing.assert_array_equal(vector, v[:, -1])


def test_top_ritz_raises_eigen_failure_on_a_lapack_error(monkeypatch):
    monkeypatch.setattr(
        operators, "dstebz",
        lambda d, e, *args: (0, np.zeros(d.size), np.zeros(d.size, np.int32),
                             np.zeros(d.size, np.int32), 3),
    )
    with pytest.raises(EigenFailure, match="LAPACK info 3"):
        operators._top_ritz(np.ones(4), np.ones(4), 1)


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
    assert eig.value2 is not None and eig.value2 <= eig.value + 1e-12


def dense_path_cases(rng, dim):
    """A random Hermitian H, and one whose -H has a doubled top eigenvalue."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(raw)
    spectrum = rng.normal(size=dim)
    spectrum[-2:] = spectrum.max() + 1.0
    doubled = -(q * spectrum) @ q.conj().T
    return [raw + raw.conj().T, 0.5 * (doubled + doubled.conj().T)]


@pytest.mark.parametrize("dim", [3, 30, 60, DENSE_MAX_DIM])
def test_dense_path_returns_the_top_two_eigenpairs(dim):
    eig_tol = 1e-9
    for H in dense_path_cases(np.random.default_rng(dim), dim):
        eig = dense_extreme(-H)
        top = np.linalg.eigvalsh(-H)[-2:]
        assert abs(eig.value - top[1]) <= 1e-12 * (1.0 + abs(top[1]))
        assert abs(eig.value2 - top[0]) <= 1e-12 * (1.0 + abs(top[0]))
        assert eig.residual <= eig_tol
        assert np.linalg.norm(-H @ eig.vector - eig.value * eig.vector) <= eig_tol
        assert eig.matvecs == 0


def test_dense_path_raises_eigen_failure_on_a_lapack_error(monkeypatch):
    H = dense_path_cases(np.random.default_rng(5), 6)[0]
    monkeypatch.setattr(
        operators, "zheevr",
        lambda a, **kw: (np.zeros(6), np.zeros((6, 2), complex), 0, np.zeros(4, np.int32), 7),
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
    assert eig.value2 <= eig.value


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
            w, z, _, _, info = zheevr(expect, range="I", il=dim - 1, iu=dim)
            assert info == 0
            assert (eig.value, eig.value2) == (w[1], w[0])
            assert_bitwise(eig.vector, operators._normalize_phase(np.ascontiguousarray(z[:, 1])))


@pytest.fixture(scope="module")
def replica_above_dense():
    """A 46-bus replica of the 10-bus feeder: dim 138, on the Lanczos path."""
    net, limits = synth_radial(10, seed=3, params=TEN_BUS_PARAMS)
    net, limits = replicate_feeder(net, limits, 5)
    inst = plant_feasible(net)
    problem = build_problem(net, inst.limits, inst.u)
    assert problem.dim > DENSE_MAX_DIM
    return problem, random_point(np.random.default_rng(29), problem)


def test_lanczos_path_equals_negating_every_product_bitwise(replica_above_dense):
    problem, x = replica_above_dense
    H = dual_matrix(problem, x)
    start = np.random.default_rng(30).normal(size=problem.dim) + 0j
    value, vec, resid, value2, matvecs = lanczos_extreme(
        lambda v: -(H @ v), problem.dim, np.random.default_rng(31), start=start
    )
    eig = leading_eigenpair(problem, x, np.random.default_rng(31), start=start)
    assert (eig.value, eig.residual, eig.value2, eig.matvecs) == (value, resid, value2, matvecs)
    assert_bitwise(eig.vector, vec)


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
    x0 = problem.point(np.zeros(problem.n_box), np.zeros((3, 3), complex))
    eig = leading_eigenpair(problem, x0, rng)
    f, f_lambda = penalty_value(problem, x0, eig)
    assert eig.value < 0.0
    assert f == float(problem.fixed_slope @ x0.flat)
    assert f_lambda < f

    # A strongly negative Gamma makes -H dominant, so both values agree.
    x1 = problem.point(np.zeros(problem.n_box), -50.0 * np.eye(3, dtype=complex))
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
        plane = f_lambda + float(g @ (x2.flat - x.flat))
        assert plane <= f_lambda2 + 1e-8 * (1.0 + abs(f_lambda2))


def test_subgradient_staleness_check():
    rng = np.random.default_rng(20)
    problem = random_problem(rng, n_buses=2)
    x = random_point(rng, problem)
    eig = leading_eigenpair(problem, x, rng)
    g = penalty_subgradient(problem, eig)
    assert g.shape == (problem.n_flat,)

    def residual(point):
        v = eig.vector
        return float(np.linalg.norm(-(dual_matrix(problem, point) @ v) - eig.value * v))

    # The pair is current at x and stale once one multiplier block moves far away.
    assert residual(x) <= 1e-6
    y2 = np.array(x.y)
    y2[: problem.dim] += 10.0 * problem.beta
    assert residual(problem.point(y2, x.gamma)) > 1e-6


def test_fixed_slope_and_start_point():
    rng = np.random.default_rng(21)
    problem = random_problem(rng, n_buses=2)
    slope = problem.fixed_slope
    assert problem.fixed_slope is slope and not slope.flags.writeable
    np.testing.assert_array_equal(slope[: problem.n_box], -problem.m_vec)
    np.testing.assert_allclose(slope[problem.n_box :], svec3(problem.M1), atol=1e-15)
    x0 = problem.start_point()
    np.testing.assert_array_equal(x0.y, np.full(problem.n_box, 0.5 * problem.beta))
    np.testing.assert_array_equal(x0.gamma, np.zeros((3, 3)))

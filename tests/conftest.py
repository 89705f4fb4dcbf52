"""Shared fixtures: small hand-built and synthetic networks with planted limits."""

import os
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches constants on disk while collecting, even when no test uses
# an example database; keep that cache out of the checkout.
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "pfbundle-hypothesis"))

# One line per acceptance criterion, printed after the run so the pass/fail
# record survives output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from pfbundle import (
    RadialParams,
    SolverConfig,
    ThreePhaseNetwork,
    build_problem,
    plant_feasible,
    plant_infeasible,
    replicate_feeder,
    synth_radial,
)
from pfbundle.operators import DENSE_MAX_DIM, PenaltyObjective, _adjoint_data


def constraint_adjoint_matrix(problem: PenaltyObjective, y: np.ndarray) -> sp.csr_matrix:
    """Hermitian matrix representing the adjoint of the capacity map at y."""
    return problem.pattern.matrix(_adjoint_data(problem, y))


def slack_block_matrix(gamma: np.ndarray, n_buses: int) -> sp.csr_matrix:
    """Embed a Hermitian 3x3 block at the slack-bus corner of a 3N x 3N matrix."""
    gamma = np.asarray(gamma, dtype=complex)
    rows, cols = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
    return sp.coo_matrix(
        (gamma.ravel(), (rows.ravel(), cols.ravel())),
        shape=(3 * n_buses, 3 * n_buses),
    ).tocsr()


def criterion_2_triples(count=1000):
    """Prox instances of acceptance criterion 2, for rho 4 and beta 0.1.

    Yields (center, intercepts, slopes, n_box).  Every tenth triple from the
    eighth on duplicates a cut, repeats a box part, or ties all three cuts at
    one cut's prox point.
    """
    from pfbundle.prox import project_box

    rng = np.random.default_rng(102)
    for trial in range(count):
        dim = int(rng.integers(3, 40))
        n_box = int(rng.integers(0, dim + 1))
        center = rng.normal(size=dim)
        if n_box:
            center[:n_box] = rng.uniform(-0.05, 0.15, size=n_box)
        slopes = rng.normal(size=(3, dim))
        intercepts = rng.normal(size=3)
        mode = trial % 10
        if mode == 7:
            slopes[1] = slopes[0]
            intercepts[1] = intercepts[0]
        elif mode == 8:
            slopes[1][:n_box] = slopes[0][:n_box]
        elif mode == 9:
            z = project_box(center - slopes[0] / 4.0, 0.1, n_box)
            intercepts = np.array([0.3 - s @ z for s in slopes])
        yield center, intercepts, slopes, n_box


def assert_bitwise(actual, expect):
    assert actual.dtype == expect.dtype and actual.shape == expect.shape
    assert actual.tobytes() == expect.tobytes()


def assert_same_csr(actual, expect):
    """Same shape and the same bits in data, indices and indptr, dtypes too."""
    assert actual.shape == expect.shape
    for name in ("data", "indices", "indptr"):
        assert_bitwise(getattr(actual, name), getattr(expect, name))


def shift_invert(A, sigma):
    """lanczos_extreme's (matvec, forward) for a Hermitian A and sigma above its top.

    matvec solves with sigma I - A and forward multiplies by it, so the top
    Ritz value theta maps back to A's top eigenvalue as sigma - 1 / theta.
    """
    B = sigma * np.eye(A.shape[0]) - A
    B_inv = np.linalg.inv(B)
    return (lambda v: B_inv @ v), (lambda v: B @ v)


def node_paths(node, prefix=()):
    """Paths to every node below the root: dict keys and list indices."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def block_map(net):
    """The network's blocks by 0-based (i, j) key, in insertion order."""
    return dict(zip(map(tuple, net.keys.tolist()), net.blocks))


def build_two_bus():
    """Hand-built two-bus feeder with phase coupling on every block."""
    cpl, shunt = 0.5, 0.45
    series = np.array([
        [1.10 + 0.0j, cpl * (0.14 + 0.05j), cpl * (0.09 - 0.04j)],
        [cpl * (0.14 - 0.05j), 0.95 + 0.0j, cpl * (0.11 + 0.03j)],
        [cpl * (0.09 + 0.04j), cpl * (0.11 - 0.03j), 1.05 + 0.0j],
    ])
    shunt_a = shunt * np.eye(3) + cpl * np.array([
        [0.00, 0.02 + 0.01j, 0.00],
        [0.02 - 0.01j, 0.00, 0.015 - 0.005j],
        [0.00, 0.015 + 0.005j, 0.00],
    ])
    shunt_b = (shunt - 0.02) * np.eye(3) + cpl * np.array([
        [0.00, 0.01 - 0.02j, 0.005],
        [0.01 + 0.02j, 0.00, 0.00],
        [0.005, 0.00, 0.00],
    ])
    blocks = {
        (0, 0): series + shunt_a,
        (1, 1): series.conj().T + shunt_b,
        (0, 1): -series,
        (1, 0): -series.conj().T,
    }
    return ThreePhaseNetwork(2, list(blocks), list(blocks.values()), topology="two-bus line")


TEN_BUS_PARAMS = RadialParams(series_min=0.5, series_max=1.25, shunt=0.1)


def criterion_4_feeders():
    """Replicated, deep, tied and planted-infeasible feeders with dims 138-300."""
    base, base_limits = synth_radial(10, seed=3, params=TEN_BUS_PARAMS)
    tie = 0.8 * np.eye(3, dtype=complex) + 0.1 * (np.ones((3, 3)) - np.eye(3))
    cases = [
        (replicate_feeder(base, base_limits, 5)[0], plant_feasible),
        (replicate_feeder(base, base_limits, 11, tie_block=tie)[0], plant_feasible),
        (synth_radial(60, seed=3, params=TEN_BUS_PARAMS)[0], plant_feasible),
        (synth_radial(100, seed=5, params=TEN_BUS_PARAMS)[0], plant_infeasible),
    ]
    for net, plant in cases:
        inst = plant(net)
        problem = build_problem(net, inst.limits, inst.u)
        assert problem.dim > DENSE_MAX_DIM
        yield problem


def criterion_4_walk_step(rng, problem, x):
    """The next point of criterion 4's random walk of dual points."""
    return x + np.concatenate([rng.uniform(-0.02, 0.02, size=problem.n_box),
                               rng.normal(scale=0.3, size=9)])


def build_ten_bus():
    """Random radial feeder sized so certificates come out crisp."""
    net, _ = synth_radial(10, seed=3, params=TEN_BUS_PARAMS)
    return net


def build_meshed():
    """An eight-bus feeder closed into two loops, blocks in shuffled order.

    One added line carries no mutual coupling, so its blocks hold exact
    zeros off the diagonal.
    """
    net, _ = synth_radial(8, seed=5, params=TEN_BUS_PARAMS)
    blocks = block_map(net)
    loops = {(2, 6): np.diag([0.8, 0.9, 1.1]) + 0.3j * np.eye(3),
             (1, 7): 0.7 * np.eye(3) + 0.1 * np.ones((3, 3)) + 0.05j * np.eye(3)}
    for (a, b), series in loops.items():
        blocks[(a, b)] = -series
        blocks[(b, a)] = -series.conj().T
        blocks[(a, a)] = blocks[(a, a)] + series
        blocks[(b, b)] = blocks[(b, b)] + series.conj().T
    keys = list(blocks)
    np.random.default_rng(5).shuffle(keys)
    return ThreePhaseNetwork(8, keys, [blocks[key] for key in keys])


@pytest.fixture(scope="session")
def two_bus():
    return build_two_bus()


@pytest.fixture(scope="session")
def ten_bus():
    return build_ten_bus()


@pytest.fixture(scope="session")
def two_bus_planted(two_bus):
    return plant_feasible(two_bus)


@pytest.fixture(scope="session")
def ten_bus_planted(ten_bus):
    return plant_feasible(ten_bus)


@pytest.fixture(scope="session")
def two_bus_infeasible(two_bus):
    return plant_infeasible(two_bus)


@pytest.fixture(scope="session")
def ten_bus_infeasible(ten_bus):
    return plant_infeasible(ten_bus)


@pytest.fixture(scope="session")
def lanczos_problem():
    """Planted-feasible replicated ten-bus case whose H takes the Lanczos path."""
    net, limits = synth_radial(10, seed=3, params=TEN_BUS_PARAMS)
    net, _ = replicate_feeder(net, limits, DENSE_MAX_DIM // 27 + 1)
    planted = plant_feasible(net)
    return build_problem(net, planted.limits, planted.u)


@pytest.fixture(scope="session")
def tight_config():
    """Solver settings used when the primal certificate itself is under test."""
    return SolverConfig(eps=1e-12, eig_tol=1e-13, max_iters=5000)

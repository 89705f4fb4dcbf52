"""Planted instances: analytic profile, margins, and the optimal value."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from pfbundle import (
    RadialParams,
    build_problem,
    plant_feasible,
    plant_infeasible,
    replicate_feeder,
    synth_radial,
)
from pfbundle.instances import _hermitian_part, _profile, loss_min_profile
from pfbundle.operators import apply_constraint_rank1, limit_offset_vector

from conftest import (
    TEN_BUS_PARAMS,
    assert_bitwise,
    assert_same_csr,
    build_meshed,
    build_ten_bus,
    build_two_bus,
)


SET_UP_NETWORKS = {
    "two-bus": build_two_bus,
    "ten-bus": build_ten_bus,
    "meshed": build_meshed,
    # Line blocks without mutual coupling: Y + Y^H has exact zeros off the
    # diagonal of every line block.
    "uncoupled-lines": lambda: synth_radial(6, seed=1, params=RadialParams(coupling=0.0))[0],
    "replica": lambda: replicate_feeder(*synth_radial(10, 3, TEN_BUS_PARAMS), 4)[0],
}


@pytest.mark.parametrize("build", SET_UP_NETWORKS.values(), ids=SET_UP_NETWORKS.keys())
def test_hermitian_part_and_profile_match_the_scipy_constructions(build):
    net = build()
    Y = net.admittance
    C = _hermitian_part(Y)
    expect = (0.5 * (Y + Y.conj().T)).tocsr()
    assert_same_csr(C, expect)
    v1 = net.slack_voltage
    tail = spla.spsolve(expect[3:, 3:].tocsc(), -(expect[3:, :3].tocsc() @ v1))
    assert_bitwise(_profile(net, C), np.concatenate([v1, tail]))


def test_hermitian_part_drops_exact_zero_sums():
    net = SET_UP_NETWORKS["uncoupled-lines"]()
    Y = net.admittance
    C = _hermitian_part(Y)
    assert C.nnz < Y.nnz and np.all(C.data != 0)


def test_loss_min_profile_solves_the_tail_system(ten_bus):
    v = loss_min_profile(ten_bus)
    np.testing.assert_array_equal(v[:3], ten_bus.slack_voltage)
    Y = ten_bus.admittance.toarray()
    C = 0.5 * (Y + Y.conj().T)
    resid = C[3:, 3:] @ v[3:] + C[3:, :3] @ v[:3]
    assert np.abs(resid).max() <= 1e-11
    # Stationarity means the profile's dissipation is the block minimum.
    rng = np.random.default_rng(0)
    base = float(np.vdot(v, C @ v).real)
    for _ in range(5):
        w = v.copy()
        w[3:] += 0.01 * (rng.normal(size=w.size - 3) + 1j * rng.normal(size=w.size - 3))
        assert float(np.vdot(w, C @ w).real) >= base - 1e-12


def test_plant_feasible_margins_are_uniform(two_bus):
    inst = plant_feasible(two_bus)
    assert inst.feasible is True
    problem = build_problem(two_bus, inst.limits, inst.u)
    rows = apply_constraint_rank1(problem, inst.voltage) + problem.m_vec
    # Every capacity row sits strictly inside its band by the planted margin.
    assert rows.max() <= -0.35 + 1e-12
    dim = rows.size // 6
    np.testing.assert_allclose(rows[:dim], -2.0, atol=1e-9)        # p upper
    np.testing.assert_allclose(rows[dim : 2 * dim], -2.0, atol=1e-9)
    np.testing.assert_allclose(rows[2 * dim : 3 * dim], -1.5, atol=1e-9)
    np.testing.assert_allclose(rows[4 * dim : 5 * dim], -0.35, atol=1e-9)


def test_plant_feasible_value_is_negative_dissipation(two_bus):
    inst = plant_feasible(two_bus)
    Y = two_bus.admittance.toarray()
    C = 0.5 * (Y + Y.conj().T)
    v = inst.voltage
    assert inst.f_star == pytest.approx(-float(np.vdot(v, C @ v).real), abs=1e-12)
    assert inst.f_star < 0.0
    np.testing.assert_allclose(inst.u, (v * np.conj(Y @ v)).real, atol=1e-12)


def test_plant_infeasible_cuts_off_the_slack_bus(two_bus):
    inst = plant_infeasible(two_bus)
    assert inst.feasible is False
    assert np.isnan(inst.f_star)
    # The squared slack magnitudes are 1 per phase; the cap sits at 0.5, so
    # the upper-voltage rows are violated by at least 0.5 at every candidate.
    m = limit_offset_vector(inst.u, inst.limits)
    dim = inst.u.size
    slack_rows = m[4 * dim : 4 * dim + 3]  # -v_upper on the slack phases
    d1 = np.abs(inst.voltage[:3]) ** 2
    assert (d1 + slack_rows).min() >= 0.5 - 1e-12


def test_plant_infeasible_keeps_power_bands(two_bus):
    good = plant_feasible(two_bus)
    bad = plant_infeasible(two_bus)
    np.testing.assert_array_equal(bad.limits.p_upper, good.limits.p_upper)
    np.testing.assert_array_equal(bad.limits.q_lower, good.limits.q_lower)
    np.testing.assert_array_equal(bad.limits.v_upper, np.full(6, 0.5))
    np.testing.assert_array_equal(bad.limits.v_lower, np.zeros(6))

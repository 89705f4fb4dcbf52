"""Network data model, file round-trips, and synthetic generators."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfbundle import (
    NetworkFormatError,
    OperatingLimits,
    RadialParams,
    ThreePhaseNetwork,
    load_network,
    plant_feasible,
    replicate_feeder,
    save_network,
    synth_radial,
)
from pfbundle.network import (
    DEFAULT_SLACK_VOLTAGE,
    assemble_admittance,
    load_injection,
    network_from_dict,
    network_to_dict,
)

from conftest import build_two_bus


def uniform_limits(n_buses, band=1.0):
    m = 3 * n_buses
    return OperatingLimits(
        p_upper=np.full(m, band),
        p_lower=np.full(m, -band),
        q_upper=np.full(m, band),
        q_lower=np.full(m, -band),
        v_upper=np.full(m, 1.5),
        v_lower=np.full(m, 0.5),
    )


def test_default_slack_voltage_is_balanced():
    assert DEFAULT_SLACK_VOLTAGE.shape == (3,)
    np.testing.assert_allclose(np.abs(DEFAULT_SLACK_VOLTAGE), 1.0, atol=1e-15)
    assert DEFAULT_SLACK_VOLTAGE[0] == 1.0 + 0.0j
    # 120 degree spacing: the three phasors sum to zero.
    assert abs(DEFAULT_SLACK_VOLTAGE.sum()) < 1e-15


def test_validate_accepts_hand_built_network(two_bus):
    two_bus.validate()
    assert two_bus.n_buses == 2
    assert two_bus.line_pairs() == [(0, 1)]


def test_validate_rejects_missing_mirror_block(two_bus):
    blocks = dict(two_bus.blocks)
    del blocks[(1, 0)]
    net = ThreePhaseNetwork(n_buses=2, blocks=blocks)
    with pytest.raises(NetworkFormatError, match="sparsity pattern"):
        net.validate()


def test_validate_rejects_non_hermitian_pair(two_bus):
    blocks = dict(two_bus.blocks)
    blocks[(1, 0)] = blocks[(1, 0)] + 1e-6
    net = ThreePhaseNetwork(n_buses=2, blocks=blocks)
    with pytest.raises(NetworkFormatError, match="conjugate transpose"):
        net.validate()


def test_validate_rejects_bad_block_shape():
    net = ThreePhaseNetwork(n_buses=1, blocks={(0, 0): np.eye(2, dtype=complex)})
    with pytest.raises(NetworkFormatError, match="shape"):
        net.validate()


def test_validate_rejects_out_of_range_indices():
    net = ThreePhaseNetwork(n_buses=1, blocks={(0, 1): np.eye(3, dtype=complex),
                                               (1, 0): np.eye(3, dtype=complex)})
    with pytest.raises(NetworkFormatError, match="out of range"):
        net.validate()


def test_validate_rejects_non_finite_entries():
    blk = np.eye(3, dtype=complex)
    blk[0, 0] = np.nan
    net = ThreePhaseNetwork(n_buses=1, blocks={(0, 0): blk})
    with pytest.raises(NetworkFormatError, match="non-finite"):
        net.validate()


def test_validate_rejects_bad_slack_shape():
    net = ThreePhaseNetwork(
        n_buses=1,
        blocks={(0, 0): np.eye(3, dtype=complex)},
        slack_voltage=np.ones(4, dtype=complex),
    )
    with pytest.raises(NetworkFormatError, match="3 phases"):
        net.validate()


def test_limits_validate_rejects_crossed_bands():
    lim = uniform_limits(1)
    crossed = OperatingLimits(
        p_upper=lim.p_upper,
        p_lower=lim.p_upper + 1.0,
        q_upper=lim.q_upper,
        q_lower=lim.q_lower,
        v_upper=lim.v_upper,
        v_lower=lim.v_lower,
    )
    with pytest.raises(NetworkFormatError, match="p_lower exceeds"):
        crossed.validate(1)


def test_limits_validate_rejects_negative_magnitude_floor():
    lim = uniform_limits(1)
    bad = OperatingLimits(
        p_upper=lim.p_upper,
        p_lower=lim.p_lower,
        q_upper=lim.q_upper,
        q_lower=lim.q_lower,
        v_upper=lim.v_upper,
        v_lower=np.full(3, -0.1),
    )
    with pytest.raises(NetworkFormatError, match="nonnegative"):
        bad.validate(1)


def test_limits_validate_rejects_wrong_length():
    with pytest.raises(NetworkFormatError, match="shape"):
        uniform_limits(2).validate(3)


def test_assemble_admittance_places_blocks(two_bus):
    Y = assemble_admittance(two_bus).toarray()
    assert Y.shape == (6, 6)
    np.testing.assert_array_equal(Y[0:3, 0:3], two_bus.blocks[(0, 0)])
    np.testing.assert_array_equal(Y[0:3, 3:6], two_bus.blocks[(0, 1)])
    np.testing.assert_array_equal(Y[3:6, 0:3], two_bus.blocks[(1, 0)])
    np.testing.assert_array_equal(Y[3:6, 3:6], two_bus.blocks[(1, 1)])
    # Conjugate-symmetric blocks make the assembled matrix Hermitian.
    assert np.abs(Y - Y.conj().T).max() == 0.0


def test_round_trip_preserves_every_float(tmp_path, two_bus):
    limits = plant_feasible(two_bus).limits
    path = tmp_path / "net.json"
    save_network(path, two_bus, limits)
    net2, lim2 = load_network(path)
    assert net2.n_buses == two_bus.n_buses
    assert net2.topology == two_bus.topology
    np.testing.assert_array_equal(net2.slack_voltage, two_bus.slack_voltage)
    assert set(net2.blocks) == set(two_bus.blocks)
    for key, blk in two_bus.blocks.items():
        np.testing.assert_array_equal(net2.blocks[key], blk)
    for key, vec in limits.as_dict().items():
        np.testing.assert_array_equal(getattr(lim2, key), vec)


def test_dict_round_trip_matches_file_round_trip(two_bus):
    limits = uniform_limits(2)
    doc = network_to_dict(two_bus, limits)
    net2, lim2 = network_from_dict(json.loads(json.dumps(doc)))
    for key, blk in two_bus.blocks.items():
        np.testing.assert_array_equal(net2.blocks[key], blk)
    np.testing.assert_array_equal(lim2.v_upper, limits.v_upper)


def test_load_network_rejects_bad_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(NetworkFormatError, match="not valid JSON"):
        load_network(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(NetworkFormatError, match="top level"):
        load_network(bad)
    bad.write_text("{}")
    with pytest.raises(NetworkFormatError, match="n_buses"):
        load_network(bad)


def test_network_from_dict_rejects_malformed_blocks(two_bus):
    doc = network_to_dict(two_bus, uniform_limits(2))
    doc["blocks"][0] = {"j": 2, "y": doc["blocks"][0]["y"]}
    with pytest.raises(NetworkFormatError, match="malformed block"):
        network_from_dict(doc)

    doc = network_to_dict(two_bus, uniform_limits(2))
    doc["blocks"].append(dict(doc["blocks"][0]))
    with pytest.raises(NetworkFormatError, match="duplicate block"):
        network_from_dict(doc)

    doc = network_to_dict(two_bus, uniform_limits(2))
    doc["blocks"][0]["y"] = doc["blocks"][0]["y"][:5]
    with pytest.raises(NetworkFormatError, match="9 \\[re, im\\] pairs"):
        network_from_dict(doc)

    doc = network_to_dict(two_bus, uniform_limits(2))
    del doc["limits"]["v_lower"]
    with pytest.raises(NetworkFormatError, match="missing limit"):
        network_from_dict(doc)

    doc = network_to_dict(two_bus, uniform_limits(2))
    doc["limits"] = None
    with pytest.raises(NetworkFormatError, match="limits"):
        network_from_dict(doc)


def _node_paths(node, prefix=()):
    """Paths to every node below the root: dict keys and list indices."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


_TEXT = st.text(alphabet="a1.", max_size=3)
_SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | _TEXT
_REPLACEMENTS = (
    st.none() | _TEXT | st.booleans()
    | st.lists(_SCALARS, max_size=3)
    | st.dictionaries(_TEXT, _SCALARS, max_size=2)
)


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_network_from_dict_rejects_mutated_documents_by_name(data):
    # Replace one node with null, a string, a bool, a list or a dict, or drop
    # it: the loader either accepts the document or names what is wrong.
    doc = network_to_dict(build_two_bus(), uniform_limits(2))
    path = data.draw(st.sampled_from(list(_node_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(_REPLACEMENTS)
    try:
        network_from_dict(doc)
    except NetworkFormatError:
        pass


def test_load_injection_round_trip(tmp_path):
    path = tmp_path / "u.json"
    u = np.array([0.5, -1.25, 0.0, 2.0, -0.5, 0.125])
    path.write_text(json.dumps({"u": list(u)}))
    np.testing.assert_array_equal(load_injection(path, 2), u)
    with pytest.raises(NetworkFormatError, match="length"):
        load_injection(path, 3)
    path.write_text(json.dumps({"w": [1.0]}))
    with pytest.raises(NetworkFormatError, match="key 'u'"):
        load_injection(path, 2)


def test_synth_radial_is_deterministic():
    net_a, lim_a = synth_radial(8, seed=11)
    net_b, lim_b = synth_radial(8, seed=11)
    assert set(net_a.blocks) == set(net_b.blocks)
    for key, blk in net_a.blocks.items():
        np.testing.assert_array_equal(net_b.blocks[key], blk)
    np.testing.assert_array_equal(lim_a.p_upper, lim_b.p_upper)
    net_c, _ = synth_radial(8, seed=12)
    assert any(
        not np.array_equal(net_c.blocks[key], net_a.blocks[key])
        for key in net_a.blocks
        if key in net_c.blocks
    )


def test_synth_radial_builds_a_tree():
    for seed in range(5):
        net, _ = synth_radial(12, seed=seed)
        net.validate()
        pairs = net.line_pairs()
        assert len(pairs) == 11
        # Every non-root bus hangs below a strictly smaller parent: a tree.
        children = sorted(j for (_, j) in pairs)
        assert children == list(range(1, 12))


def test_synth_radial_admittance_is_positive_definite():
    net, _ = synth_radial(9, seed=4)
    Y = assemble_admittance(net).toarray()
    C = 0.5 * (Y + Y.conj().T)
    evals = np.linalg.eigvalsh(C)
    assert evals[0] > 0.0


def test_synth_radial_rejects_single_bus():
    with pytest.raises(NetworkFormatError, match="at least 2"):
        synth_radial(1)


def test_replicate_single_copy_is_identity():
    net, lim = synth_radial(6, seed=2)
    out_net, out_lim = replicate_feeder(net, lim, 1)
    assert out_net.n_buses == net.n_buses
    assert set(out_net.blocks) == set(net.blocks)
    for key, blk in net.blocks.items():
        np.testing.assert_allclose(out_net.blocks[key], blk, atol=1e-14)
    for key, vec in lim.as_dict().items():
        np.testing.assert_array_equal(getattr(out_lim, key), vec)


def test_replicate_counts_and_limit_tiling():
    net, lim = synth_radial(5, seed=7)
    k = 3
    out_net, out_lim = replicate_feeder(net, lim, k)
    out_net.validate()
    assert out_net.n_buses == k * (net.n_buses - 1) + 1
    m = 3 * net.n_buses
    for key, vec in lim.as_dict().items():
        tiled = getattr(out_lim, key)
        np.testing.assert_array_equal(tiled[:3], vec[:3])
        for copy in range(k):
            lo = 3 + copy * (m - 3)
            np.testing.assert_array_equal(tiled[lo : lo + m - 3], vec[3:])


def test_replicate_preserves_copy_internals():
    net, lim = synth_radial(5, seed=9)
    out_net, _ = replicate_feeder(net, lim, 2)
    nb = net.n_buses
    for copy in range(2):
        shift = 1 + copy * (nb - 1)
        for (i, j), blk in net.blocks.items():
            if i == 0 or j == 0:
                continue
            np.testing.assert_array_equal(
                out_net.blocks[(shift + i - 1, shift + j - 1)], blk
            )


def test_replicate_tie_block_swaps_root_couplings():
    net, lim = synth_radial(4, seed=1)
    tie = np.diag([0.3, 0.4, 0.5]).astype(complex)
    k = 2
    out_net, _ = replicate_feeder(net, lim, k, tie_block=tie)
    out_net.validate()
    root_lines = [(i, j) for (i, j) in net.blocks if i == 0 and j != 0]
    nb = net.n_buses
    for copy in range(k):
        for (_, j) in root_lines:
            new_j = 1 + copy * (nb - 1) + (j - 1)
            np.testing.assert_array_equal(out_net.blocks[(0, new_j)], -tie)
    # Slack diagonal: the original root shunt plus one tie per rewired line.
    root_series_sum = sum(
        -net.blocks[(0, j)] for (_, j) in root_lines
    )
    root_shunt = net.blocks[(0, 0)] - root_series_sum
    expect = root_shunt + (k * len(root_lines)) * tie
    np.testing.assert_allclose(out_net.blocks[(0, 0)], expect, atol=1e-14)


def test_replicate_rejects_bad_arguments():
    net, lim = synth_radial(4, seed=0)
    with pytest.raises(NetworkFormatError, match=">= 1"):
        replicate_feeder(net, lim, 0)
    with pytest.raises(NetworkFormatError, match="3x3"):
        replicate_feeder(net, lim, 2, tie_block=np.eye(2))
    skew = np.eye(3, dtype=complex)
    skew[0, 1] = 0.2 + 0.3j
    with pytest.raises(NetworkFormatError, match="Hermitian"):
        replicate_feeder(net, lim, 2, tie_block=skew)


def test_radial_params_defaults_are_frozen():
    p = RadialParams()
    assert (p.series_min, p.series_max) == (2.0, 5.0)
    assert (p.coupling, p.shunt) == (0.15, 0.4)
    assert (p.p_band, p.q_band) == (1.5, 1.5)
    assert (p.v_upper, p.v_lower) == (1.44, 0.49)


def test_two_bus_builder_matches_frozen_admittance():
    net = build_two_bus()
    Y = assemble_admittance(net).toarray()
    C = 0.5 * (Y + Y.conj().T)
    evals = np.linalg.eigvalsh(C)
    assert evals[0] > 0.05
    # Frozen corner entries pin the fixture against accidental edits.
    assert net.blocks[(0, 0)][0, 0] == pytest.approx(1.55)
    assert net.blocks[(0, 1)][0, 1] == pytest.approx(-0.07 - 0.025j)

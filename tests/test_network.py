"""Network data model, file round-trips, and synthetic generators."""

import collections
import dataclasses
import json
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pfbundle import (
    NetworkFormatError,
    OperatingLimits,
    RadialParams,
    ThreePhaseNetwork,
    build_problem,
    load_network,
    plant_feasible,
    plant_infeasible,
    replicate_feeder,
    save_network,
    synth_radial,
)
from pfbundle import network as network_module
from pfbundle.instances import loss_min_profile
from pfbundle.network import (
    DEFAULT_SLACK_VOLTAGE,
    MAX_BUSES,
    RADIAL_LIMITS,
    load_injection,
    network_from_dict,
    network_to_dict,
)

from conftest import assert_same_csr, block_map, build_meshed, build_two_bus, node_paths


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


def line_pairs(net):
    """Sorted 0-based (i, j) pairs with i < j carrying an off-diagonal block."""
    return sorted({(min(i, j), max(i, j)) for i, j in net.keys.tolist() if i != j})


def test_default_slack_voltage_is_balanced():
    assert DEFAULT_SLACK_VOLTAGE.shape == (3,)
    np.testing.assert_allclose(np.abs(DEFAULT_SLACK_VOLTAGE), 1.0, atol=1e-15)
    assert DEFAULT_SLACK_VOLTAGE[0] == 1.0 + 0.0j
    # 120 degree spacing: the three phasors sum to zero.
    assert abs(DEFAULT_SLACK_VOLTAGE.sum()) < 1e-15


def test_validate_accepts_hand_built_network(two_bus):
    assert two_bus.n_buses == 2
    assert line_pairs(two_bus) == [(0, 1)]


def test_validate_rejects_missing_mirror_block(two_bus):
    blocks = block_map(two_bus)
    del blocks[(1, 0)]
    with pytest.raises(NetworkFormatError, match="sparsity pattern"):
        ThreePhaseNetwork(2, list(blocks), list(blocks.values()))


def test_validate_rejects_non_hermitian_pair(two_bus):
    blocks = two_bus.blocks.copy()
    blocks[two_bus.keys.tolist().index([1, 0])] += 1e-6
    with pytest.raises(NetworkFormatError, match="conjugate transpose"):
        ThreePhaseNetwork(2, two_bus.keys, blocks)


def test_validate_rejects_bad_block_shape():
    # A 2x2 block never becomes a network: construction names the blocks.
    with pytest.raises(NetworkFormatError, match=r"blocks must be a \(B, 3, 3\) array"):
        ThreePhaseNetwork(1, [(0, 0)], [np.eye(2, dtype=complex)])


def test_validate_rejects_out_of_range_indices():
    with pytest.raises(NetworkFormatError, match="out of range"):
        ThreePhaseNetwork(1, [(0, 1), (1, 0)], [np.eye(3, dtype=complex)] * 2)


def test_validate_rejects_duplicate_keys():
    # Arrays can repeat a key, which a mapping never could; the later one is named.
    eye = np.eye(3, dtype=complex)
    with pytest.raises(NetworkFormatError, match=r"^duplicate block \(2, 2\)$"):
        ThreePhaseNetwork(2, [(0, 0), (1, 1), (0, 1), (1, 0), (1, 1)], [eye] * 5)


def test_validate_rejects_non_finite_entries():
    blk = np.eye(3, dtype=complex)
    blk[0, 0] = np.nan
    with pytest.raises(NetworkFormatError, match="non-finite"):
        ThreePhaseNetwork(1, [(0, 0)], [blk])


def test_validate_rejects_bad_slack_shape():
    with pytest.raises(NetworkFormatError, match="3 phases"):
        ThreePhaseNetwork(1, [(0, 0)], [np.eye(3, dtype=complex)],
                          slack_voltage=np.ones(4, dtype=complex))


@pytest.mark.parametrize("n_buses", [MAX_BUSES + 1, 2**63, 10**30])
def test_validate_rejects_n_buses_beyond_int32_indices(n_buses):
    with pytest.raises(NetworkFormatError, match=f"n_buses {n_buses} is out of range"):
        ThreePhaseNetwork(n_buses, [(0, 0)], [np.eye(3, dtype=complex)])


def test_network_is_read_only(two_bus):
    for arr in (two_bus.keys, two_bus.blocks, two_bus.slack_voltage):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        two_bus.blocks = np.zeros((0, 3, 3))
    # An edit is a new network built from edited copies of the arrays.
    blocks = two_bus.blocks.copy()
    blocks[0] += 1.0
    edited = ThreePhaseNetwork(two_bus.n_buses, two_bus.keys, blocks, two_bus.slack_voltage)
    assert edited.blocks[0, 0, 0] == two_bus.blocks[0, 0, 0] + 1.0
    # A pickled copy keeps the insertion order and the read-only arrays.
    copy = pickle.loads(pickle.dumps(two_bus))
    assert copy.keys.tolist() == two_bus.keys.tolist() == [[0, 0], [1, 1], [0, 1], [1, 0]]
    for name in ("keys", "blocks", "slack_voltage"):
        arr = getattr(copy, name)
        np.testing.assert_array_equal(arr, getattr(two_bus, name))
        assert arr.dtype == getattr(two_bus, name).dtype and not arr.flags.writeable


def test_construction_copies_the_arrays_given():
    keys, blk = np.zeros((1, 2), dtype=np.int64), np.eye(3, dtype=complex)
    slack = DEFAULT_SLACK_VOLTAGE.copy()
    net = ThreePhaseNetwork(1, keys, blk[None], slack_voltage=slack)
    keys[0, 0] = 5
    blk[0, 0] = np.nan
    slack[0] = 2.0
    assert net.keys[0, 0] == 0 and net.blocks[0, 0, 0] == 1.0
    assert net.slack_voltage[0] == 1.0
    # Nested lists, and real or integer numbers, are arrays too.
    two_bus = build_two_bus()
    net = ThreePhaseNetwork(2, two_bus.keys.tolist(), two_bus.blocks.tolist())
    assert (net.keys.dtype, net.blocks.dtype) == (np.int64, np.complex128)
    np.testing.assert_array_equal(net.admittance.toarray(), two_bus.admittance.toarray())
    assert replicate_feeder(net, uniform_limits(2), 2)[0].n_buses == 3
    eye = ThreePhaseNetwork(1, np.zeros((1, 2), dtype=np.uint8), [np.eye(3, dtype=int)])
    assert eye.blocks.dtype == np.complex128 and eye.blocks[0, 1, 1] == 1.0


@pytest.mark.parametrize("keys, blocks, message", [
    ([(0, 0)], [[[1, 2, 3], [4, 5]]], r"blocks must .* got ragged nesting"),
    ([(0, 0)], [None], r"blocks must .* got object of shape \(1,\)"),
    ([(0, 0)], [np.full((3, 3), None)], r"blocks must .* got object of shape \(1, 3, 3\)"),
    ([(0.5, 0)], [np.eye(3)], r"block keys must .* got float64"),
    ([(0, 0, 0)], [np.eye(3)], r"block keys must .* got int64 of shape \(1, 3\)"),
    ([(0, 2**70)], [np.eye(3)], r"block keys must .* got object"),
    ([(0, 0), (0, 1)], [np.eye(3)], r"^2 block keys for 1 blocks$"),
], ids=["ragged", "none", "object-entries", "float-key", "triple-key", "huge-index",
        "count-mismatch"])
def test_construction_never_raises_and_validate_names_the_defect(keys, blocks, message):
    # Construction names a malformed array before it judges the blocks.
    with pytest.raises(NetworkFormatError, match=message):
        ThreePhaseNetwork(1, keys, blocks)


@pytest.mark.parametrize("n_buses", [2.0, True, "2", None], ids=["float", "bool", "str", "none"])
def test_construction_rejects_a_bus_count_that_is_not_an_integer(n_buses):
    two_bus = build_two_bus()
    with pytest.raises(NetworkFormatError, match=r"^n_buses must be an integer, got "):
        ThreePhaseNetwork(n_buses, two_bus.keys, two_bus.blocks)
    # A numpy integer is an integer.
    assert ThreePhaseNetwork(np.int64(2), two_bus.keys, two_bus.blocks).admittance.shape == (6, 6)


def test_set_up_chain_checks_and_assembles_each_network_once(tmp_path, monkeypatch):
    checks, assemblies = collections.Counter(), collections.Counter()
    check = ThreePhaseNetwork._first_block_problem
    assemble = network_module._assemble

    def counted_check(net):
        checks[id(net)] += 1
        return check(net)

    def counted_assemble(net):
        assemblies[id(net)] += 1
        return assemble(net)

    path = tmp_path / "feeder.json"
    save_network(path, *synth_radial(6, seed=1))
    monkeypatch.setattr(ThreePhaseNetwork, "_first_block_problem", counted_check)
    monkeypatch.setattr(network_module, "_assemble", counted_assemble)
    networks = []    # kept alive so no object id is reused
    for copies, plant in ((1, plant_feasible), (3, plant_infeasible)):
        net, limits = load_network(path)
        big, big_limits = replicate_feeder(net, limits, copies)
        assert (big is net) == (big_limits is limits) == (copies == 1)
        planted = plant(big)
        problem = build_problem(big, planted.limits, planted.u)
        loss_min_profile(big)
        networks += [net, big]
        assert problem.Y is big.admittance
        assert problem.C is big.hermitian_part
        with pytest.raises(ValueError, match="read-only"):
            problem.Y.data[0] = 0.0
    # Each network is checked once, at construction, the three-copy tiling
    # too.  The single copy is the loaded network: one check and one
    # assembly, counted under both of its entries.
    assert [checks[id(n)] for n in networks] == [1, 1, 1, 1]
    assert [assemblies[id(n)] for n in networks] == [1, 1, 0, 1]


def _dense_blocks(net):
    """The blocks written into a dense 3N x 3N array."""
    n = 3 * net.n_buses
    dense = np.zeros((n, n), dtype=complex)
    for (i, j), blk in zip(net.keys.tolist(), net.blocks):
        dense[3 * i:3 * i + 3, 3 * j:3 * j + 3] = blk
    return dense


def _coo_assembly(net):
    """Y by its definition: the stored entries of the dense blocks, COO -> CSR.

    Stored are the entries that are nonzero in Y or in its mirror, the
    diagonal and the 3x3 slack block.
    """
    dense = _dense_blocks(net)
    stored = (dense != 0) | (dense.T != 0) | np.eye(len(dense), dtype=bool)
    stored[:3, :3] = True
    rows, cols = np.nonzero(stored)
    mat = sp.coo_matrix((dense[rows, cols], (rows, cols)), shape=dense.shape).tocsr()
    mat.sum_duplicates()
    return mat


def _without_diagonal_block():
    two_bus = build_two_bus()
    keep = (two_bus.keys != [1, 1]).any(axis=1)
    return ThreePhaseNetwork(2, two_bus.keys[keep], two_bus.blocks[keep])


def _triangular_diagonal_block():
    net, _ = synth_radial(3, seed=6)
    blocks = block_map(net)
    blocks[(1, 1)] = np.triu(blocks[(1, 1)])
    return ThreePhaseNetwork(3, list(blocks), list(blocks.values()))


STORED_PATTERN_NETWORKS = {
    "meshed": build_meshed,
    "tied-replica": lambda: replicate_feeder(
        *synth_radial(5, seed=2), 3, tie_block=np.diag([0.3, 0.4, 0.5]).astype(complex))[0],
    "missing-diagonal": _without_diagonal_block,
    "triangular-diagonal": _triangular_diagonal_block,
    "uncoupled-lines": lambda: synth_radial(6, seed=1, params=RadialParams(coupling=0.0))[0],
    "no-blocks": lambda: ThreePhaseNetwork(2, [], []),
}


@pytest.mark.parametrize("build", STORED_PATTERN_NETWORKS.values(),
                         ids=STORED_PATTERN_NETWORKS.keys())
def test_assembly_writes_the_coo_to_csr_arrays(build):
    net = build()
    Y = net.admittance
    assert_same_csr(Y, _coo_assembly(net))
    assert Y.has_canonical_format


@pytest.mark.parametrize("build", STORED_PATTERN_NETWORKS.values(),
                         ids=STORED_PATTERN_NETWORKS.keys())
def test_admittance_and_c_store_the_dual_pattern(build):
    net = build()
    Y = net.admittance
    dense = Y.toarray()
    np.testing.assert_array_equal(dense, _dense_blocks(net))
    rows = np.repeat(np.arange(Y.shape[0]), np.diff(Y.indptr))
    cols = Y.indices
    zero_pair = (dense[rows, cols] == 0) & (dense[cols, rows] == 0)
    assert np.all((rows == cols) | ((rows < 3) & (cols < 3)) | ~zero_pair)
    np.testing.assert_array_equal(net.hermitian_part.toarray(),
                                  0.5 * (dense + dense.conj().T))
    assert not net.hermitian_part.data.flags.writeable


def _reference_block_problem(n_buses, blocks):
    """The block checks one block at a time, in insertion order."""
    for (i, j), blk in blocks.items():
        if not (0 <= i < n_buses and 0 <= j < n_buses):
            return f"block ({i + 1}, {j + 1}) is out of range"
        if blk.shape != (3, 3):
            return f"block ({i + 1}, {j + 1}) has shape {blk.shape}, expected (3, 3)"
        if not np.all(np.isfinite(blk)):
            return f"block ({i + 1}, {j + 1}) has non-finite entries"
        if i != j:
            if (j, i) not in blocks:
                return (f"block ({i + 1}, {j + 1}) present but ({j + 1}, {i + 1}) missing:"
                        " sparsity pattern must be symmetric")
            other = blocks[(j, i)]
            scale = max(1.0, float(np.abs(blk).max()))
            if np.abs(other - blk.conj().T).max() > 1e-12 * scale:
                return (f"block ({j + 1}, {i + 1}) is not the conjugate transpose of"
                        f" block ({i + 1}, {j + 1})")
    return None


_DEFECTS = st.sampled_from(["inf", "-inf", "nan", "inf-imag", "perturb", "drop", "range"])


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_document_defects_are_reported_in_insertion_order(data):
    # Two or three defects in a shuffled document: the loader names the same
    # block and check as a one-block-at-a-time pass would.
    net = build_two_bus()
    doc = network_to_dict(net, uniform_limits(2))
    entries = data.draw(st.permutations(doc["blocks"]))
    entries = [dict(e, y=[list(p) for p in e["y"]]) for e in entries]
    for _ in range(data.draw(st.integers(2, 3))):
        defect = data.draw(_DEFECTS)
        k = data.draw(st.integers(0, len(entries) - 1))
        entry, pair = entries[k], data.draw(st.integers(0, 8))
        if defect == "drop":
            del entries[k]
        elif defect == "range":
            entry["i"] = net.n_buses + 1 + k
        elif defect == "perturb":
            entry["y"][pair][0] += 1e-6
        elif defect == "inf-imag":
            entry["y"][pair][1] = float("inf")
        else:
            entry["y"][pair][0] = float(defect)
    doc["blocks"] = entries
    blocks = {}
    for e in entries:
        y = np.array([complex(re, im) for re, im in e["y"]]).reshape(3, 3)
        blocks.setdefault((e["i"] - 1, e["j"] - 1), y)
    if len(blocks) < len(entries):
        return      # two blocks moved out of range onto one key
    expected = _reference_block_problem(net.n_buses, blocks)
    if expected is None:
        network_from_dict(doc)
    else:
        with pytest.raises(NetworkFormatError) as info:
            network_from_dict(doc)
        assert str(info.value) == expected


def test_loader_names_the_first_entry_that_is_not_a_number(two_bus):
    doc = network_to_dict(two_bus, uniform_limits(2))
    doc["limits"]["p_upper"][2:4] = ["1.5", None]
    with pytest.raises(NetworkFormatError, match=r"limit 'p_upper' entry 2 must be a number"):
        network_from_dict(doc)
    doc = network_to_dict(two_bus, uniform_limits(2))
    doc["blocks"][1]["y"][4] = [0.5, True]
    with pytest.raises(NetworkFormatError, match=r"block \(1, 2\) entry 4 must be a number"):
        network_from_dict(doc)
    doc = network_to_dict(two_bus, uniform_limits(2))
    doc["blocks"][1]["y"][4] = [0.5, 10**400]
    with pytest.raises(NetworkFormatError, match=r"block \(1, 2\) holds a number out of range"):
        network_from_dict(doc)
    # Integers are numbers, and an infinite part is named, not computed with.
    doc = network_to_dict(two_bus, uniform_limits(2))
    doc["limits"]["p_upper"][0] = 2
    doc["blocks"][0]["y"][0] = [float("inf"), float("inf")]
    with pytest.raises(NetworkFormatError, match=r"block \(1, 1\) has non-finite"):
        network_from_dict(doc)


def test_limits_validate_rejects_crossed_bands():
    lim = uniform_limits(1)
    with pytest.raises(NetworkFormatError, match="p_lower exceeds"):
        OperatingLimits(
            p_upper=lim.p_upper,
            p_lower=lim.p_upper + 1.0,
            q_upper=lim.q_upper,
            q_lower=lim.q_lower,
            v_upper=lim.v_upper,
            v_lower=lim.v_lower,
        )


def test_limits_validate_rejects_negative_magnitude_floor():
    lim = uniform_limits(1)
    with pytest.raises(NetworkFormatError, match="nonnegative"):
        OperatingLimits(
            p_upper=lim.p_upper,
            p_lower=lim.p_lower,
            q_upper=lim.q_upper,
            q_lower=lim.q_lower,
            v_upper=lim.v_upper,
            v_lower=np.full(3, -0.1),
        )


def test_limits_validate_rejects_wrong_length(two_bus):
    # Bands of unequal length never make limits; limits know no bus count,
    # so each place that pairs them with a network compares the length.
    bands = uniform_limits(2).as_dict()
    with pytest.raises(NetworkFormatError,
                       match=r"^limit 'q_upper' has shape \(3,\), expected \(6,\)$"):
        OperatingLimits(**dict(bands, q_upper=np.ones(3)))
    three = uniform_limits(3)
    message = r"^limit 'p_upper' has shape \(9,\), expected \(6,\)$"
    with pytest.raises(NetworkFormatError, match=message):
        network_from_dict(network_to_dict(two_bus, three))
    with pytest.raises(NetworkFormatError, match=message):
        replicate_feeder(two_bus, three, 2)
    with pytest.raises(NetworkFormatError, match=message):
        build_problem(two_bus, three, np.zeros(6))


def test_limits_are_read_only_and_checked_once_per_bus_count():
    given = {key: vec.copy() for key, vec in uniform_limits(2).as_dict().items()}
    lim = OperatingLimits(**given)
    given["v_lower"][0] = -1.0      # the limits hold a copy: they stay valid
    for vec in lim.as_dict().values():
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        lim.v_lower = given["v_lower"]
    # A copy made by pickling is a new object, built (and checked) afresh.
    copy = pickle.loads(pickle.dumps(lim))
    assert copy is not lim
    with pytest.raises(ValueError, match="read-only"):
        copy.p_upper[0] = 0.0


def test_assemble_admittance_places_blocks(two_bus):
    Y = two_bus.admittance.toarray()
    assert Y.shape == (6, 6)
    for (i, j), blk in block_map(two_bus).items():
        np.testing.assert_array_equal(Y[3 * i:3 * i + 3, 3 * j:3 * j + 3], blk)
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
    blocks = block_map(net2)
    assert set(blocks) == set(block_map(two_bus))
    for key, blk in block_map(two_bus).items():
        np.testing.assert_array_equal(blocks[key], blk)
    for key, vec in limits.as_dict().items():
        np.testing.assert_array_equal(getattr(lim2, key), vec)


def test_dict_round_trip_matches_file_round_trip(two_bus):
    limits = uniform_limits(2)
    doc = network_to_dict(two_bus, limits)
    net2, lim2 = network_from_dict(json.loads(json.dumps(doc)))
    for key, blk in block_map(two_bus).items():
        np.testing.assert_array_equal(block_map(net2)[key], blk)
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

    # An index no int64 key holds is named at its entry.
    doc = network_to_dict(two_bus, uniform_limits(2))
    doc["blocks"][3]["j"] = 10**30
    with pytest.raises(NetworkFormatError, match=rf"^block \(2, {10**30}\) is out of range$"):
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
    path = data.draw(st.sampled_from(list(node_paths(doc))))
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
    np.testing.assert_array_equal(net_b.keys, net_a.keys)
    np.testing.assert_array_equal(net_b.blocks, net_a.blocks)
    np.testing.assert_array_equal(lim_a.p_upper, lim_b.p_upper)
    blocks_a, blocks_c = block_map(net_a), block_map(synth_radial(8, seed=12)[0])
    assert any(
        not np.array_equal(blocks_c[key], blocks_a[key])
        for key in blocks_a
        if key in blocks_c
    )


def test_synth_radial_builds_a_tree():
    for seed in range(5):
        net, _ = synth_radial(12, seed=seed)
        pairs = line_pairs(net)
        assert len(pairs) == 11
        # Every non-root bus hangs below a strictly smaller parent: a tree.
        children = sorted(j for (_, j) in pairs)
        assert children == list(range(1, 12))


def test_synth_radial_admittance_is_positive_definite():
    net, _ = synth_radial(9, seed=4)
    Y = net.admittance.toarray()
    C = 0.5 * (Y + Y.conj().T)
    evals = np.linalg.eigvalsh(C)
    assert evals[0] > 0.0


@pytest.mark.parametrize("changes, message", [
    ({"series_min": float("nan")}, "series_min must be finite"),
    ({"series_max": float("inf")}, "series_max must be finite"),
    ({"coupling": float("-inf")}, "coupling must be finite"),
    ({"shunt": float("nan")}, "shunt must be finite"),
    ({"series_min": 0.0, "series_max": 1.0}, "series_min <= series_max, got 0.0 and 1.0"),
    ({"series_min": 2.0, "series_max": 1.0}, "series_min <= series_max, got 2.0 and 1.0"),
    ({"shunt": 0.0}, "shunt must be positive"),
    ({"coupling": -0.1}, "coupling must be nonnegative"),
    ({"coupling": "x"}, "coupling must be a number, got 'x'"),
    ({"shunt": True}, "shunt must be a number, got True"),
    ({"series_max": None}, "series_max must be a number, got None"),
    ({"series_max": 10**400}, "series_max must be finite"),
], ids=["series-min-nan", "series-max-inf", "coupling-minus-inf", "shunt-nan",
        "series-min-zero", "series-range-empty", "shunt-zero", "coupling-negative",
        "coupling-str", "shunt-bool", "series-max-none", "series-max-huge-int"])
def test_synth_radial_rejects_params_by_name(changes, message):
    with pytest.raises(NetworkFormatError, match=message):
        RadialParams(**changes)


def test_synth_radial_rejects_blocks_that_are_not_positive_definite(monkeypatch):
    with pytest.raises(NetworkFormatError, match=r"^coupling 3\.0 draws a series block that is"
                       r" not positive definite on line \(1, 2\) \(least eigenvalue -18\.7\)$"):
        synth_radial(10, seed=0, params=RadialParams(coupling=3.0))
    # A shunt drawn far below zero is named by its bus; with no coupling the
    # series blocks stay multiples of the identity.
    monkeypatch.setattr(network_module, "_random_hermitian",
                        lambda rng, scale: -20.0 * scale * np.eye(3))
    with pytest.raises(NetworkFormatError, match=r"^shunt draws a block that is not positive"
                       r" definite at bus 1 \(least eigenvalue -0\.4\)$"):
        synth_radial(4, seed=0, params=RadialParams(coupling=0.0))


def test_synth_radial_accepts_params_at_their_edges():
    # One series value and no coupling still give a positive definite C.
    net, _ = synth_radial(6, seed=1, params=RadialParams(series_min=1.0, series_max=1.0,
                                                          coupling=0.0))
    Y = net.admittance.toarray()
    assert np.linalg.eigvalsh(0.5 * (Y + Y.conj().T))[0] > 0.0


def test_synth_radial_rejects_single_bus():
    with pytest.raises(NetworkFormatError, match="at least 2"):
        synth_radial(1)


@pytest.mark.parametrize("n_buses, message", [
    (MAX_BUSES + 1, rf"^n_buses {MAX_BUSES + 1} is out of range \(max {MAX_BUSES}\)$"),
    (10**30, r"^n_buses 10{30} is out of range"),
    (2.5, r"^n_buses must be an integer, got 2\.5$"),
    (3.0, r"^n_buses must be an integer, got 3\.0$"),
    (True, r"^n_buses must be an integer, got True$"),
    ("3", r"^n_buses must be an integer, got '3'$"),
], ids=["max_plus_one", "huge", "fraction", "float", "bool", "str"])
def test_synth_radial_rejects_a_bad_bus_count_before_allocating(n_buses, message):
    tracemalloc.start()
    try:
        with pytest.raises(NetworkFormatError, match=message):
            synth_radial(n_buses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("seed, message", [
    (2.5, r"^seed must be an integer, got 2\.5$"),
    ("3", r"^seed must be an integer, got '3'$"),
    (None, r"^seed must be an integer, got None$"),
    (True, r"^seed must be an integer, got True$"),
    (-1, r"^seed must be nonnegative, got -1$"),
], ids=["fraction", "str", "none", "bool", "negative"])
def test_synth_radial_rejects_a_seed_that_is_not_a_nonnegative_integer(seed, message):
    with pytest.raises(NetworkFormatError, match=message):
        synth_radial(5, seed=seed)


def test_replicate_single_copy_is_identity():
    net, lim = synth_radial(6, seed=2)
    out_net, out_lim = replicate_feeder(net, lim, 1)
    assert out_net is net and out_lim is lim
    # With a tie one copy is still tiled: the root lines carry the tie.
    tie = np.diag([0.3, 0.4, 0.5]).astype(complex)
    tied, tied_lim = replicate_feeder(net, lim, 1, tie_block=tie)
    assert tied is not net and tied_lim is not lim
    blocks = block_map(net)
    assert tied.n_buses == net.n_buses and set(block_map(tied)) == set(blocks)
    for (i, j), blk in block_map(tied).items():
        if i == 0 and j != 0:
            np.testing.assert_array_equal(blk, -tie)
        elif 0 not in (i, j) and i != j:
            np.testing.assert_array_equal(blk, blocks[(i, j)])
    for key, vec in lim.as_dict().items():
        np.testing.assert_array_equal(getattr(tied_lim, key), vec)


def test_replicate_counts_and_limit_tiling():
    net, lim = synth_radial(5, seed=7)
    k = 3
    out_net, out_lim = replicate_feeder(net, lim, k)
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
    nb, out_blocks = net.n_buses, block_map(out_net)
    for copy in range(2):
        shift = 1 + copy * (nb - 1)
        for (i, j), blk in block_map(net).items():
            if i == 0 or j == 0:
                continue
            np.testing.assert_array_equal(out_blocks[(shift + i - 1, shift + j - 1)], blk)


def test_replicate_tie_block_swaps_root_couplings():
    net, lim = synth_radial(4, seed=1)
    tie = np.diag([0.3, 0.4, 0.5]).astype(complex)
    k = 2
    out_net, _ = replicate_feeder(net, lim, k, tie_block=tie)
    blocks, out_blocks = block_map(net), block_map(out_net)
    root_lines = [(i, j) for (i, j) in blocks if i == 0 and j != 0]
    nb = net.n_buses
    for copy in range(k):
        for (_, j) in root_lines:
            new_j = 1 + copy * (nb - 1) + (j - 1)
            np.testing.assert_array_equal(out_blocks[(0, new_j)], -tie)
    # Slack diagonal: the original root shunt plus one tie per rewired line.
    root_series_sum = sum(
        -blocks[(0, j)] for (_, j) in root_lines
    )
    root_shunt = blocks[(0, 0)] - root_series_sum
    expect = root_shunt + (k * len(root_lines)) * tie
    np.testing.assert_allclose(out_blocks[(0, 0)], expect, atol=1e-14)


def test_replicate_still_names_a_slack_block_that_overflows():
    # A finite tie summed over many lines can overflow the slack block; the
    # tiling's construction names the block, with no numpy overflow warning
    # (an error in this suite) before it.
    net, lim = synth_radial(10, seed=3)
    with pytest.raises(NetworkFormatError, match=r"block \(1, 1\) has non-finite entries"):
        replicate_feeder(net, lim, 3, tie_block=1e308 * np.eye(3))


def test_replicate_judges_the_size_before_tiling(monkeypatch):
    # The bus count is judged from k before any k-sized array is built.
    monkeypatch.setattr(network_module, "MAX_BUSES", 20)
    net, lim = synth_radial(10, seed=3)
    with pytest.raises(NetworkFormatError, match=r"^replication count 3 gives 28 buses \(max 20\)$"):
        replicate_feeder(net, lim, 3)
    assert replicate_feeder(net, lim, 2)[0].n_buses == 19


def test_replicate_rejects_bad_arguments():
    net, lim = synth_radial(4, seed=0)
    with pytest.raises(NetworkFormatError, match=">= 1"):
        replicate_feeder(net, lim, 0)
    for k in (2.5, 2.0, True, "2"):
        with pytest.raises(NetworkFormatError, match=f"must be an integer, got {k!r}"):
            replicate_feeder(net, lim, k)
    assert replicate_feeder(net, lim, np.int64(2))[0].n_buses == 7
    with pytest.raises(NetworkFormatError, match="3x3"):
        replicate_feeder(net, lim, 2, tie_block=np.eye(2))
    skew = np.eye(3, dtype=complex)
    skew[0, 1] = 0.2 + 0.3j
    with pytest.raises(NetworkFormatError, match="Hermitian"):
        replicate_feeder(net, lim, 2, tie_block=skew)
    skew[0, 1] = np.inf
    with pytest.raises(NetworkFormatError, match="non-finite"):
        replicate_feeder(net, lim, 2, tie_block=skew)


def test_radial_params_defaults_are_frozen():
    p = RadialParams()
    assert (p.series_min, p.series_max) == (2.0, 5.0)
    assert (p.coupling, p.shunt) == (0.15, 0.4)
    assert RADIAL_LIMITS == {"p_upper": 1.5, "p_lower": -1.5, "q_upper": 1.5,
                             "q_lower": -1.5, "v_upper": 1.44, "v_lower": 0.49}
    _, limits = synth_radial(3, seed=0)
    for key, band in RADIAL_LIMITS.items():
        np.testing.assert_array_equal(getattr(limits, key), np.full(9, band))


def test_two_bus_builder_matches_frozen_admittance():
    net = build_two_bus()
    Y = net.admittance.toarray()
    C = 0.5 * (Y + Y.conj().T)
    evals = np.linalg.eigvalsh(C)
    assert evals[0] > 0.05
    # Frozen corner entries pin the fixture against accidental edits.
    blocks = block_map(net)
    assert blocks[(0, 0)][0, 0] == pytest.approx(1.55)
    assert blocks[(0, 1)][0, 1] == pytest.approx(-0.07 - 0.025j)

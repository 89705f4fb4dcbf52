"""Three-phase network data model, file I/O, and synthetic instance builders.

A network is a block-sparse bus admittance matrix: one 3x3 complex block per
(bus_i, bus_j) pair that is electrically coupled, plus a fixed complex voltage
at the slack bus (always bus 1).  Operating limits are six real vectors of
length 3*n_buses giving per-phase bands on active power, reactive power, and
squared voltage magnitude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp

# Balanced positive-sequence slack voltage: unit magnitude, 120 degree spacing.
DEFAULT_SLACK_VOLTAGE = np.array(
    [1.0, np.exp(-2j * np.pi / 3.0), np.exp(2j * np.pi / 3.0)], dtype=complex
)


class NetworkFormatError(ValueError):
    """Raised when a network document is malformed or violates an invariant."""


@dataclass(frozen=True)
class OperatingLimits:
    """Per-phase operating bands, each a real vector of length 3*n_buses.

    Active-power bands are offsets around the injection set point; reactive
    bands and squared-voltage-magnitude bands are absolute.
    """

    p_upper: np.ndarray
    p_lower: np.ndarray
    q_upper: np.ndarray
    q_lower: np.ndarray
    v_upper: np.ndarray
    v_lower: np.ndarray

    def validate(self, n_buses: int) -> None:
        m = 3 * n_buses
        for key in _LIMIT_KEYS:
            vec = getattr(self, key)
            if vec.shape != (m,):
                raise NetworkFormatError(
                    f"limit '{key}' has shape {vec.shape}, expected ({m},)"
                )
            if not np.all(np.isfinite(vec)):
                raise NetworkFormatError(f"limit '{key}' contains non-finite entries")
        if np.any(self.p_lower > self.p_upper):
            raise NetworkFormatError("p_lower exceeds p_upper on some phase")
        if np.any(self.q_lower > self.q_upper):
            raise NetworkFormatError("q_lower exceeds q_upper on some phase")
        if np.any(self.v_lower > self.v_upper):
            raise NetworkFormatError("v_lower exceeds v_upper on some phase")
        if np.any(self.v_lower < 0.0):
            raise NetworkFormatError("v_lower must be nonnegative")

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in _LIMIT_KEYS}


_LIMIT_KEYS = tuple(f.name for f in fields(OperatingLimits))


@dataclass(frozen=True)
class ThreePhaseNetwork:
    """Block-sparse admittance model with a fixed slack voltage at bus 1.

    blocks maps 0-based (i, j) bus pairs to 3x3 complex arrays.  The block
    sparsity pattern is symmetric and off-diagonal pairs satisfy
    blocks[j, i] == blocks[i, j].conj().T; diagonal blocks are unconstrained.
    """

    n_buses: int
    blocks: dict = field(repr=False)
    slack_voltage: np.ndarray = field(default_factory=lambda: DEFAULT_SLACK_VOLTAGE.copy())
    topology: str = ""

    def validate(self) -> None:
        if self.n_buses < 1:
            raise NetworkFormatError(f"n_buses must be >= 1, got {self.n_buses}")
        if self.slack_voltage.shape != (3,):
            raise NetworkFormatError("slack_voltage must have exactly 3 phases")
        if not (np.all(np.isfinite(self.slack_voltage.real))
                and np.all(np.isfinite(self.slack_voltage.imag))):
            raise NetworkFormatError("slack_voltage contains non-finite entries")
        for (i, j), blk in self.blocks.items():
            if not (0 <= i < self.n_buses and 0 <= j < self.n_buses):
                raise NetworkFormatError(f"block ({i + 1}, {j + 1}) is out of range")
            if blk.shape != (3, 3):
                raise NetworkFormatError(
                    f"block ({i + 1}, {j + 1}) has shape {blk.shape}, expected (3, 3)"
                )
            if not (np.all(np.isfinite(blk.real)) and np.all(np.isfinite(blk.imag))):
                raise NetworkFormatError(f"block ({i + 1}, {j + 1}) has non-finite entries")
            if i != j:
                if (j, i) not in self.blocks:
                    raise NetworkFormatError(
                        f"block ({i + 1}, {j + 1}) present but ({j + 1}, {i + 1}) missing:"
                        " sparsity pattern must be symmetric"
                    )
                other = self.blocks[(j, i)]
                scale = max(1.0, float(np.abs(blk).max()))
                if np.abs(other - blk.conj().T).max() > 1e-12 * scale:
                    raise NetworkFormatError(
                        f"block ({j + 1}, {i + 1}) is not the conjugate transpose of"
                        f" block ({i + 1}, {j + 1})"
                    )

    def line_pairs(self) -> list:
        """Sorted 0-based (i, j) pairs with i < j carrying an off-diagonal block."""
        return sorted({(min(i, j), max(i, j)) for (i, j) in self.blocks if i != j})


def assemble_admittance(network: ThreePhaseNetwork) -> sp.csr_matrix:
    """Stack the 3x3 blocks into a sparse 3N x 3N admittance matrix."""
    n = 3 * network.n_buses
    if not network.blocks:
        return sp.csr_matrix((n, n), dtype=complex)
    keys = 3 * np.array(list(network.blocks), dtype=np.int64)          # (B, 2)
    vals = np.stack(list(network.blocks.values())).astype(complex)     # (B, 3, 3)
    phase = np.arange(3)
    rows = np.broadcast_to(keys[:, 0, None, None] + phase[:, None], vals.shape)
    cols = np.broadcast_to(keys[:, 1, None, None] + phase, vals.shape)
    mat = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
    return mat.tocsr()


# ---------------------------------------------------------------------------
# file format


def _pairs_from_complex(arr: np.ndarray) -> list:
    flat = np.asarray(arr, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def _number(value, what: str, index=None, integer: bool = False):
    """A JSON number as a float, or as an int if integer; never a bool or null.

    An error names entry index of what when an index is given.
    """
    kind = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kind):
        where = what if index is None else f"{what} entry {index}"
        noun = "an integer" if integer else "a number"
        raise NetworkFormatError(f"{where} must be {noun}, got {value!r}")
    try:
        return value if integer else float(value)
    except OverflowError:
        raise NetworkFormatError(f"{what} holds a number out of range") from None


def _real_vector(values, what: str) -> np.ndarray:
    if not isinstance(values, list):
        raise NetworkFormatError(f"{what} must be a list of numbers")
    return np.array([_number(v, what, k) for k, v in enumerate(values)])


def _complex_from_pairs(pairs, count: int, what: str) -> np.ndarray:
    if not isinstance(pairs, list) or len(pairs) != count:
        raise NetworkFormatError(f"{what}: expected {count} [re, im] pairs")
    out = np.empty(count, dtype=complex)
    for k, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise NetworkFormatError(f"{what}: entry {k} is not a [re, im] pair")
        out[k] = complex(_number(pair[0], what, k), _number(pair[1], what, k))
    return out


def network_to_dict(network: ThreePhaseNetwork, limits: OperatingLimits) -> dict:
    blocks = []
    for (i, j) in sorted(network.blocks):
        blocks.append(
            {"i": i + 1, "j": j + 1, "y": _pairs_from_complex(network.blocks[(i, j)])}
        )
    return {
        "n_buses": network.n_buses,
        "topology": network.topology,
        "slack_voltage": _pairs_from_complex(network.slack_voltage),
        "blocks": blocks,
        "limits": {key: [float(v) for v in vec] for key, vec in limits.as_dict().items()},
    }


def network_from_dict(doc: dict) -> tuple:
    if "n_buses" not in doc:
        raise NetworkFormatError("missing 'n_buses'")
    n_buses = _number(doc["n_buses"], "n_buses", integer=True)
    slack = _complex_from_pairs(doc.get("slack_voltage", []), 3, "slack_voltage")
    entries = doc.get("blocks", [])
    if not isinstance(entries, list):
        raise NetworkFormatError("'blocks' must be a list")
    blocks = {}
    for entry in entries:
        if not isinstance(entry, dict) or "i" not in entry or "j" not in entry:
            raise NetworkFormatError(f"malformed block entry: {entry!r}")
        i = _number(entry["i"], "block index i", integer=True) - 1
        j = _number(entry["j"], "block index j", integer=True) - 1
        if (i, j) in blocks:
            raise NetworkFormatError(f"duplicate block ({i + 1}, {j + 1})")
        blocks[(i, j)] = _complex_from_pairs(
            entry.get("y", []), 9, f"block ({i + 1}, {j + 1})"
        ).reshape(3, 3)
    limits_doc = doc.get("limits")
    if not isinstance(limits_doc, dict):
        raise NetworkFormatError("missing 'limits' table")
    vecs = {}
    for key in _LIMIT_KEYS:
        if key not in limits_doc:
            raise NetworkFormatError(f"missing limit '{key}'")
        vecs[key] = _real_vector(limits_doc[key], f"limit '{key}'")
    network = ThreePhaseNetwork(
        n_buses=n_buses,
        blocks=blocks,
        slack_voltage=slack,
        topology=str(doc.get("topology", "")),
    )
    limits = OperatingLimits(**vecs)
    network.validate()
    limits.validate(n_buses)
    return network, limits


def save_network(path, network: ThreePhaseNetwork, limits: OperatingLimits) -> None:
    """Write a network document; floats round-trip exactly through load_network."""
    doc = network_to_dict(network, limits)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_network(path) -> tuple:
    """Read a network document, returning (ThreePhaseNetwork, OperatingLimits)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetworkFormatError(f"{path}: top level must be an object")
    return network_from_dict(doc)


def load_injection(path, n_buses: int) -> np.ndarray:
    """Read an injection set point {"u": [...]} of length 3*n_buses."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "u" not in doc:
        raise NetworkFormatError(f"{path}: expected an object with key 'u'")
    u = _real_vector(doc["u"], f"{path}: 'u'")
    if u.shape != (3 * n_buses,):
        raise NetworkFormatError(
            f"{path}: injection has length {u.size}, expected {3 * n_buses}"
        )
    return u


def load_tie_block(path) -> np.ndarray:
    """Read a 3x3 tie admittance {"y": [9 [re, im] pairs]}, row-major."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "y" not in doc:
        raise NetworkFormatError(f"{path}: expected an object with key 'y'")
    return _complex_from_pairs(doc["y"], 9, f"{path}: 'y'").reshape(3, 3)


# ---------------------------------------------------------------------------
# synthetic instances


@dataclass(frozen=True)
class RadialParams:
    """Knobs for the synthetic radial generator.

    Series blocks are Hermitian positive definite with identity part drawn
    from [series_min, series_max]; each bus carries a small Hermitian shunt so
    the assembled admittance is strictly positive definite.
    """

    series_min: float = 2.0
    series_max: float = 5.0
    coupling: float = 0.15
    shunt: float = 0.4
    p_band: float = 1.5
    q_band: float = 1.5
    v_upper: float = 1.44
    v_lower: float = 0.49


def _random_hermitian(rng: np.random.Generator, scale: float) -> np.ndarray:
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return scale * 0.5 * (raw + raw.conj().T)


def synth_radial(
    n_buses: int, seed: int = 0, params: RadialParams = RadialParams()
) -> tuple:
    """Deterministic random radial feeder with limits that admit u = 0.

    Bus 1 is the root and slack.  The tree has n_buses - 1 lines; each line
    carries a Hermitian positive definite series block, diagonal blocks sum
    incident series blocks plus a shunt, so diagonals are block dominant.
    """
    if n_buses < 2:
        raise NetworkFormatError("synth_radial needs at least 2 buses")
    rng = np.random.default_rng(seed)
    blocks: dict = {}
    diag = [np.zeros((3, 3), dtype=complex) for _ in range(n_buses)]
    for child in range(1, n_buses):
        parent = int(rng.integers(0, child))
        base = float(rng.uniform(params.series_min, params.series_max))
        series = base * np.eye(3, dtype=complex) + _random_hermitian(
            rng, params.coupling * base
        )
        blocks[(parent, child)] = -series
        blocks[(child, parent)] = -series.conj().T
        diag[parent] = diag[parent] + series
        diag[child] = diag[child] + series.conj().T
    for b in range(n_buses):
        shunt = params.shunt * np.eye(3, dtype=complex) + _random_hermitian(
            rng, 0.1 * params.shunt
        )
        blocks[(b, b)] = diag[b] + shunt
    m = 3 * n_buses
    limits = OperatingLimits(
        p_upper=np.full(m, params.p_band),
        p_lower=np.full(m, -params.p_band),
        q_upper=np.full(m, params.q_band),
        q_lower=np.full(m, -params.q_band),
        v_upper=np.full(m, params.v_upper),
        v_lower=np.full(m, params.v_lower),
    )
    network = ThreePhaseNetwork(
        n_buses=n_buses, blocks=blocks, slack_voltage=DEFAULT_SLACK_VOLTAGE.copy(),
        topology="radial",
    )
    network.validate()
    limits.validate(n_buses)
    return network, limits


def replicate_feeder(
    network: ThreePhaseNetwork,
    limits: OperatingLimits,
    k: int,
    tie_block: np.ndarray | None = None,
) -> tuple:
    """Tile k copies of a feeder onto one shared slack bus.

    Every copy contributes the base's non-root buses; base blocks incident to
    the root are rewired to the shared slack, so the result has
    k * (n_buses - 1) + 1 buses.  tie_block, when given, replaces the series
    admittance of each root-incident line (diagonal blocks are adjusted to
    keep the implied shunts unchanged).  Limits are tiled copy by copy; the
    slack rows keep the base root's limits.
    """
    if k < 1:
        raise NetworkFormatError("replication count must be >= 1")
    nb = network.n_buses
    if nb < 2:
        raise NetworkFormatError("base feeder needs at least 2 buses")
    if tie_block is not None:
        tie_block = np.asarray(tie_block, dtype=complex)
        if tie_block.shape != (3, 3):
            raise NetworkFormatError("tie_block must be 3x3")
        if not np.all(np.isfinite(tie_block)):
            raise NetworkFormatError("tie_block has non-finite entries")
        scale = max(1.0, float(np.abs(tie_block).max()))
        if np.abs(tie_block - tie_block.conj().T).max() > 1e-12 * scale:
            raise NetworkFormatError("tie_block must be Hermitian")

    root_lines = [(i, j) for (i, j) in network.blocks if i == 0 and j != 0]
    # Shunt at the base root: diagonal minus the series admittances it sums.
    root_series_sum = sum(
        (-network.blocks[(0, j)] for (_, j) in root_lines), np.zeros((3, 3), complex)
    )
    root_shunt = network.blocks[(0, 0)] - root_series_sum

    def new_index(copy: int, bus: int) -> int:
        # bus is a base index >= 1; copies pack their non-root buses in order.
        return 1 + copy * (nb - 1) + (bus - 1)

    blocks: dict = {}
    for copy in range(k):
        for (i, j), blk in network.blocks.items():
            if i == 0 and j == 0:
                continue
            if i == 0:
                coupling = blk if tie_block is None else -tie_block
                a, b = 0, new_index(copy, j)
                blocks[(a, b)] = coupling
                blocks[(b, a)] = coupling.conj().T
                continue
            if j == 0:
                continue  # handled by the (0, j) branch as the conjugate pair
            a, b = new_index(copy, i), new_index(copy, j)
            blocks[(a, b)] = blk.copy()
        for bus in range(1, nb):
            blk = network.blocks[(bus, bus)].copy()
            if tie_block is not None and (bus, 0) in network.blocks:
                # Swap in the tie series admittance without touching the shunt.
                blk = blk + (tie_block.conj().T - (-network.blocks[(bus, 0)]))
            blocks[(new_index(copy, bus), new_index(copy, bus))] = blk
    if tie_block is None:
        # Exact for k = 1: the base diagonal passes through untouched.
        blocks[(0, 0)] = network.blocks[(0, 0)] + (k - 1) * root_series_sum
    else:
        blocks[(0, 0)] = root_shunt + (k * len(root_lines)) * tie_block

    def tile(vec: np.ndarray) -> np.ndarray:
        root = vec[:3]
        rest = vec[3:]
        return np.concatenate([root] + [rest.copy() for _ in range(k)])

    tiled = OperatingLimits(**{key: tile(vec) for key, vec in limits.as_dict().items()})
    out = ThreePhaseNetwork(
        n_buses=k * (nb - 1) + 1,
        blocks=blocks,
        slack_voltage=network.slack_voltage.copy(),
        topology=f"replicated-x{k}" if k > 1 else network.topology,
    )
    out.validate()
    tiled.validate(out.n_buses)
    return out, tiled

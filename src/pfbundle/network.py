"""Three-phase network data model, file I/O, and synthetic instance builders.

A network is a block-sparse bus admittance matrix: one 3x3 complex block per
(bus_i, bus_j) pair that is electrically coupled, plus a fixed complex voltage
at the slack bus (always bus 1).  Operating limits are six real vectors of
length 3*n_buses giving per-phase bands on active power, reactive power, and
squared voltage magnitude.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType

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

    Limits are read-only: construction copies each band into a read-only
    array, so validate() remembers each bus count it passed and checks the
    bands once per count.  Copying never raises; validate() judges.
    """

    p_upper: np.ndarray
    p_lower: np.ndarray
    q_upper: np.ndarray
    q_lower: np.ndarray
    v_upper: np.ndarray
    v_lower: np.ndarray
    _passed: frozenset = field(default=frozenset(), init=False, repr=False, compare=False)

    def __post_init__(self):
        for key in _LIMIT_KEYS:
            object.__setattr__(self, key, _read_only_copy(getattr(self, key)))

    def __reduce__(self):
        return (type(self), tuple(self.as_dict().values()))

    def validate(self, n_buses: int) -> None:
        """Raise NetworkFormatError naming the first defect; a pass is remembered."""
        if n_buses in self._passed:
            return
        problem = self._first_problem(n_buses)
        if problem is not None:
            raise NetworkFormatError(problem)
        object.__setattr__(self, "_passed", self._passed | {n_buses})

    def _first_problem(self, n_buses: int) -> str | None:
        """The message for the first defect of the bands at n_buses, or None."""
        m = 3 * n_buses
        for key in _LIMIT_KEYS:
            vec = getattr(self, key)
            if vec.shape != (m,):
                return f"limit '{key}' has shape {vec.shape}, expected ({m},)"
            if not np.all(np.isfinite(vec)):
                return f"limit '{key}' contains non-finite entries"
        if np.any(self.p_lower > self.p_upper):
            return "p_lower exceeds p_upper on some phase"
        if np.any(self.q_lower > self.q_upper):
            return "q_lower exceeds q_upper on some phase"
        if np.any(self.v_lower > self.v_upper):
            return "v_lower exceeds v_upper on some phase"
        if np.any(self.v_lower < 0.0):
            return "v_lower must be nonnegative"
        return None

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in _LIMIT_KEYS}


_LIMIT_KEYS = tuple(f.name for f in fields(OperatingLimits) if f.init)


@dataclass(frozen=True)
class ThreePhaseNetwork:
    """Block-sparse admittance model with a fixed slack voltage at bus 1.

    blocks maps 0-based (i, j) bus pairs to 3x3 complex arrays.  The block
    sparsity pattern is symmetric and off-diagonal pairs satisfy
    blocks[j, i] == blocks[i, j].conj().T; diagonal blocks are unconstrained.

    A network is read-only: construction copies the blocks into read-only
    arrays behind a read-only mapping, and slack_voltage into a read-only
    array, so validate() and assemble_admittance() do their work once per
    network.  Copying never raises; validate() judges shapes and values.
    To edit a network, build a new one from dict(network.blocks).
    """

    n_buses: int
    blocks: Mapping = field(repr=False)
    slack_voltage: np.ndarray = field(default_factory=lambda: DEFAULT_SLACK_VOLTAGE.copy())
    topology: str = ""
    # (B, 2) int64 block keys in insertion order (None: some key is not a
    # pair of integers) and (B, 3, 3) complex blocks (None: some block is not
    # a 3x3 numeric array); both read-only.
    _keys: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _stack: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _checked: bool = field(default=False, init=False, repr=False, compare=False)
    _admittance: sp.csr_matrix | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        blocks = dict(self.blocks)
        arrays = [_as_array(blk) for blk in blocks.values()]
        stack = _stack_blocks(arrays)
        if stack is None:
            frozen = dict(zip(blocks, map(_read_only_copy, arrays)))
        else:
            frozen = dict(zip(blocks, stack))
        object.__setattr__(self, "blocks", MappingProxyType(frozen))
        object.__setattr__(self, "slack_voltage", _read_only_copy(self.slack_voltage))
        object.__setattr__(self, "_keys", _key_array(list(blocks)))
        object.__setattr__(self, "_stack", stack)

    def __reduce__(self):
        return (type(self), (self.n_buses, dict(self.blocks), self.slack_voltage,
                             self.topology))

    def validate(self) -> None:
        """Raise NetworkFormatError naming the first defect; a pass is remembered.

        Blocks are judged in insertion order, each by its range, shape,
        finiteness and mirror checks in that order; the error names the first
        block that fails one and the first check it fails.
        """
        if self._checked:
            return
        if self.n_buses < 1:
            raise NetworkFormatError(f"n_buses must be >= 1, got {self.n_buses}")
        if self.slack_voltage.shape != (3,):
            raise NetworkFormatError("slack_voltage must have exactly 3 phases")
        if not (np.all(np.isfinite(self.slack_voltage.real))
                and np.all(np.isfinite(self.slack_voltage.imag))):
            raise NetworkFormatError("slack_voltage contains non-finite entries")
        problem = self._first_block_problem()
        if problem is not None:
            raise NetworkFormatError(problem)
        object.__setattr__(self, "_checked", True)

    def _first_block_problem(self) -> str | None:
        """The message for the first offending block, all blocks checked at once."""
        if self._keys is None:
            return "block keys must be (i, j) pairs of integer bus indices"
        count = len(self._keys)
        if count == 0:
            return None
        n = self.n_buses
        keys = np.clip(self._keys, -1, n)
        i, j = keys[:, 0], keys[:, 1]
        in_range = (i >= 0) & (i < n) & (j >= 0) & (j < n)
        if self._stack is not None:
            stack = self._stack
            shape_ok = numeric = np.ones(count, dtype=bool)
        else:
            arrays = list(self.blocks.values())
            shape_ok = np.array([a.shape == (3, 3) for a in arrays])
            numeric = np.array([a.dtype.kind in _NUMERIC_KINDS for a in arrays])
            stack = np.zeros((count, 3, 3), dtype=complex)
            for b in np.flatnonzero(shape_ok & numeric):
                stack[b] = arrays[b]
        usable = shape_ok & numeric
        finite = np.isfinite(stack).all(axis=(1, 2))

        # Each in-range block's mirror, by a sorted search over the pair codes.
        codes = np.where(in_range, i * n + j, -1)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        wanted = j * n + i
        pos = np.minimum(np.searchsorted(sorted_codes, wanted), count - 1)
        has_mirror = sorted_codes[pos] == wanted
        mirror = order[pos]
        offdiag = i != j

        # The conjugate test touches finite blocks only: a mirror's own
        # non-finite entries then meet finite values, which raises no warning.
        compare = offdiag & has_mirror & usable & finite & usable[mirror]
        not_conjugate = np.zeros(count, dtype=bool)
        if compare.any():
            blk = stack[compare]
            other = stack[mirror[compare]]
            scale = np.maximum(1.0, np.abs(blk).max(axis=(1, 2)))
            gap = np.abs(other - blk.conj().transpose(0, 2, 1)).max(axis=(1, 2))
            not_conjugate[compare] = gap > 1e-12 * scale

        failures = np.select(
            [~in_range, ~shape_ok, ~numeric, ~finite, offdiag & ~has_mirror,
             not_conjugate],
            [1, 2, 3, 4, 5, 6],
            0,
        )
        bad = np.flatnonzero(failures)
        if bad.size == 0:
            return None
        first = int(bad[0])
        (bi, bj), blk = list(self.blocks.items())[first]
        name = f"block ({bi + 1}, {bj + 1})"
        return {
            1: f"{name} is out of range",
            2: f"{name} has shape {blk.shape}, expected (3, 3)",
            3: f"{name} has non-numeric entries",
            4: f"{name} has non-finite entries",
            5: f"{name} present but ({bj + 1}, {bi + 1}) missing:"
               " sparsity pattern must be symmetric",
            6: f"block ({bj + 1}, {bi + 1}) is not the conjugate transpose of {name}",
        }[int(failures[first])]

    def line_pairs(self) -> list:
        """Sorted 0-based (i, j) pairs with i < j carrying an off-diagonal block."""
        return sorted({(min(i, j), max(i, j)) for (i, j) in self.blocks if i != j})


_NUMERIC_KINDS = "biufc"


def _as_array(value) -> np.ndarray:
    """value as an array; ragged nesting becomes an object array of its parts."""
    try:
        return np.asarray(value)
    except ValueError:
        parts = np.empty(len(value), dtype=object)
        parts[:] = list(value)
        return parts


def _read_only_copy(value) -> np.ndarray:
    arr = np.array(_as_array(value))
    arr.setflags(write=False)
    return arr


def _stack_blocks(arrays: list) -> np.ndarray | None:
    """The blocks as one read-only (B, 3, 3) complex copy, if all are 3x3 numeric."""
    if not all(a.shape == (3, 3) and a.dtype.kind in _NUMERIC_KINDS for a in arrays):
        return None
    stack = np.array(arrays, dtype=complex).reshape(len(arrays), 3, 3)
    stack.setflags(write=False)
    return stack


def _key_array(keys: list) -> np.ndarray | None:
    """Block keys as a read-only (B, 2) int64 array; None unless integer pairs.

    An index beyond int64 becomes -1, which is out of range for any network.
    """
    try:
        arr = np.array(keys) if keys else np.empty((0, 2), dtype=np.int64)
    except ValueError:                      # pairs and other lengths mixed
        return None
    if arr.dtype == object and arr.ndim == 2 and all(
        isinstance(k, int) for k in arr.ravel()
    ):
        arr = np.array([[k if -(2**63) <= k < 2**63 else -1 for k in row] for row in arr],
                       dtype=np.int64)
    if arr.dtype.kind not in "iu" or arr.shape != (len(keys), 2):
        return None
    arr = arr.astype(np.int64, copy=False)
    arr.setflags(write=False)
    return arr


def assemble_admittance(network: ThreePhaseNetwork) -> sp.csr_matrix:
    """Stack the 3x3 blocks into a sparse 3N x 3N admittance matrix.

    The network is checked first.  Assembled once per network: every call
    returns the same read-only matrix.
    """
    if network._admittance is None:
        network.validate()
        Y = _assemble(network)
        for arr in (Y.data, Y.indices, Y.indptr):
            arr.setflags(write=False)
        object.__setattr__(network, "_admittance", Y)
    return network._admittance


def _assemble(network: ThreePhaseNetwork) -> sp.csr_matrix:
    """Y's canonical CSR arrays, written straight from the blocks sorted by key.

    Scalar row 3 r + p lists row p of each block of block row r, by block
    column: with the blocks sorted by key, entry (p, c) of the one that is
    b-th in its block row, which holds count blocks from sorted position
    first on, lands at 9 first + 3 count p + 3 b + c.  A checked network's
    keys are distinct and in range, so the arrays are canonical (explicit
    zeros kept), and the matrix says so: no later call sorts them in place.
    """
    n = network.n_buses
    keys, stack = network._keys, network._stack
    order = np.argsort(keys[:, 0] * n + keys[:, 1])
    bi, bj = keys[order, 0], keys[order, 1]
    count = np.bincount(bi, minlength=n)
    first = np.cumsum(count) - count
    phase = np.arange(3)
    start = 9 * first[bi] + 3 * (np.arange(bi.size) - first[bi])
    pos = (start[:, None, None] + (3 * count[bi])[:, None, None] * phase[:, None]
           + phase).ravel()
    data = np.empty(pos.size, dtype=complex)
    data[pos] = stack[order].ravel()
    indices = np.empty(pos.size, dtype=np.int32)
    indices[pos] = np.broadcast_to(3 * bj[:, None, None] + phase, (bi.size, 3, 3)).ravel()
    indptr = np.empty(3 * n + 1, dtype=np.int32)
    indptr[:-1] = (9 * first[:, None] + 3 * count[:, None] * phase).ravel()
    indptr[-1] = pos.size
    mat = sp.csr_matrix((data, indices, indptr), shape=(3 * n, 3 * n))
    mat.has_canonical_format = True
    return mat


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
    """A list of JSON numbers as floats, checked in one pass, then one np.array."""
    if not isinstance(values, list):
        raise NetworkFormatError(f"{what} must be a list of numbers")
    for k, v in enumerate(values):
        if type(v) is not float:
            _number(v, what, k)
    return np.array(values, dtype=float)


def _check_pairs(pairs, count: int, what: str) -> None:
    """Raise unless pairs is a list of count [re, im] pairs of JSON numbers."""
    if not isinstance(pairs, list) or len(pairs) != count:
        raise NetworkFormatError(f"{what}: expected {count} [re, im] pairs")
    for k, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise NetworkFormatError(f"{what}: entry {k} is not a [re, im] pair")
        re, im = pair
        if type(re) is not float:
            _number(re, what, k)
        if type(im) is not float:
            _number(im, what, k)


def _complex_array(pairs: list) -> np.ndarray:
    """Checked (nested) lists of [re, im] pairs as complex numbers.

    The float pairs are reinterpreted in place, with no arithmetic, so an
    infinite part stays exactly as written and raises no warning.
    """
    return np.array(pairs, dtype=float).view(complex)[..., 0]


def _complex_from_pairs(pairs, count: int, what: str) -> np.ndarray:
    _check_pairs(pairs, count, what)
    return _complex_array(pairs)


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
    pairs = {}
    for entry in entries:
        if not isinstance(entry, dict) or "i" not in entry or "j" not in entry:
            raise NetworkFormatError(f"malformed block entry: {entry!r}")
        i = _number(entry["i"], "block index i", integer=True) - 1
        j = _number(entry["j"], "block index j", integer=True) - 1
        if (i, j) in pairs:
            raise NetworkFormatError(f"duplicate block ({i + 1}, {j + 1})")
        pairs[(i, j)] = entry.get("y", [])
        _check_pairs(pairs[(i, j)], 9, f"block ({i + 1}, {j + 1})")
    blocks = {}
    if pairs:
        blocks = dict(zip(pairs, _complex_array(list(pairs.values())).reshape(-1, 3, 3)))
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
        raise NetworkFormatError(f"synth_radial needs at least 2 buses, got {n_buses}")
    if seed < 0:
        raise NetworkFormatError(f"seed must be nonnegative, got {seed}")
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
    slack rows keep the base root's limits.  One copy without a tie is the
    feeder itself, so k = 1 then returns network and limits as given.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise NetworkFormatError(f"replication count must be an integer, got {k!r}")
    if k < 1:
        raise NetworkFormatError(f"replication count must be >= 1, got {k}")
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

    network.validate()
    keys, vals = network._keys, network._stack
    i, j = keys[:, 0], keys[:, 1]
    has_diagonal = np.zeros(nb, dtype=bool)
    has_diagonal[i[i == j]] = True
    if not has_diagonal.all():
        missing = int(np.argmin(has_diagonal))
        raise NetworkFormatError(f"base feeder has no diagonal block at bus {missing + 1}")
    if k == 1 and tie_block is None:
        limits.validate(nb)
        return network, limits

    root_out = (i == 0) & (j != 0)
    root_lines = j[root_out].tolist()
    # Shunt at the base root: diagonal minus the series admittances it sums.
    root_series_sum = sum(
        (-network.blocks[(0, b)] for b in root_lines), np.zeros((3, 3), complex)
    )
    root_shunt = network.blocks[(0, 0)] - root_series_sum

    # One copy's blocks, in base order: a root line (0, j) becomes the pair
    # (0, j), (j, 0) carrying the coupling and its conjugate transpose, every
    # block away from the root is kept, and blocks (i, 0) follow from (0, i).
    inner = (i != 0) & (j != 0)
    counts = 2 * root_out + inner
    src = np.repeat(np.arange(keys.shape[0]), counts)
    second = np.zeros(src.size, dtype=bool)
    second[(np.cumsum(counts) - counts)[root_out] + 1] = True
    copy_i = np.where(second, j[src], i[src])
    copy_j = np.where(second, 0, j[src])
    copy_vals = vals[src]
    if tie_block is not None:
        copy_vals[root_out[src]] = -tie_block
        # Swap in the tie series admittance without touching the shunt.
        root_in = np.flatnonzero((j == 0) & (i != 0))
        at_bus = np.full(nb, -1)
        at_bus[i[root_in]] = root_in
        tied = inner[src] & (copy_i == copy_j) & (at_bus[copy_i] >= 0)
        copy_vals[tied] = vals[src[tied]] + (
            tie_block.conj().T - (-vals[at_bus[copy_i[tied]]])
        )
    copy_vals[second] = copy_vals[np.flatnonzero(second) - 1].conj().transpose(0, 2, 1)

    # Copies pack their non-root buses in order; bus 0 is the shared slack.
    shift = (np.arange(k) * (nb - 1))[:, None]
    out_i = np.where(copy_i == 0, 0, copy_i + shift).ravel()
    out_j = np.where(copy_j == 0, 0, copy_j + shift).ravel()
    blocks = dict(zip(zip(out_i.tolist(), out_j.tolist()), np.tile(copy_vals, (k, 1, 1))))
    if tie_block is None:
        blocks[(0, 0)] = network.blocks[(0, 0)] + (k - 1) * root_series_sum
    else:
        blocks[(0, 0)] = root_shunt + (k * len(root_lines)) * tie_block

    tiled = OperatingLimits(**{
        key: np.concatenate([vec[:3], np.tile(vec[3:], k)])
        for key, vec in limits.as_dict().items()
    })
    out = ThreePhaseNetwork(
        n_buses=k * (nb - 1) + 1,
        blocks=blocks,
        slack_voltage=network.slack_voltage,
        topology=f"replicated-x{k}" if k > 1 else network.topology,
    )
    out.validate()
    tiled.validate(out.n_buses)
    return out, tiled

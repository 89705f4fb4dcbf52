"""Three-phase network data model, file I/O, and synthetic instance builders.

A network is a block-sparse bus admittance matrix held as two arrays: a
(B, 2) array of 0-based (bus_i, bus_j) keys of the electrically coupled pairs
and a (B, 3, 3) array of their complex blocks, plus a fixed complex voltage
at the slack bus (always bus 1).  Operating limits are six real vectors of
length 3*n_buses giving per-phase bands on active power, reactive power, and
squared voltage magnitude.  Both are converted to read-only arrays and
checked once, at construction, so every network and every set of limits that
exists is valid; the file loader checks documents entry by entry before that.
A band's length is compared with the bus count where limits meet a network.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# scipy's CSR-to-CSC kernel, the routine tocsc() ends in, called on raw CSR
# arrays with no sparse matrix built.  If scipy moves it, this import fails
# and the test suite with it.
from scipy.sparse._sparsetools import csr_tocsc

# Balanced positive-sequence slack voltage: unit magnitude, 120 degree spacing.
DEFAULT_SLACK_VOLTAGE = np.array(
    [1.0, np.exp(-2j * np.pi / 3.0), np.exp(2j * np.pi / 3.0)], dtype=complex
)


class NetworkFormatError(ValueError):
    """Raised when a network document is malformed or violates an invariant."""


# Y's scalar indices are int32, so a network has at most this many buses.
MAX_BUSES = (2**31 - 1) // 3


def _check_bus_count(n_buses, least: int) -> None:
    """Raise NetworkFormatError unless n_buses is an integer in [least, MAX_BUSES]."""
    if isinstance(n_buses, bool) or not isinstance(n_buses, numbers.Integral):
        raise NetworkFormatError(f"n_buses must be an integer, got {n_buses!r}")
    if n_buses < least:
        raise NetworkFormatError(f"n_buses must be at least {least}, got {n_buses}")
    if n_buses > MAX_BUSES:
        raise NetworkFormatError(f"n_buses {n_buses} is out of range (max {MAX_BUSES})")


@dataclass(frozen=True, eq=False)
class OperatingLimits:
    """Per-phase operating bands, each a real vector of length 3*n_buses.

    Active-power bands are offsets around the injection set point; reactive
    bands and squared-voltage-magnitude bands are absolute.

    Limits are read-only and valid: construction copies each band into a
    read-only float64 vector and checks that the six are finite, of one
    length, lower below upper and v_lower nonnegative, or raises
    NetworkFormatError naming the first defect.  Whoever pairs limits with a
    network compares the length with the bus count (check_limits_length).
    Limits compare and hash by identity.
    """

    p_upper: np.ndarray
    p_lower: np.ndarray
    q_upper: np.ndarray
    q_lower: np.ndarray
    v_upper: np.ndarray
    v_lower: np.ndarray

    def __post_init__(self):
        for key in _LIMIT_KEYS:
            vec = _frozen_array(getattr(self, key), np.float64, (), f"limit '{key}'")
            object.__setattr__(self, key, vec)
        m = len(self.p_upper)
        for key in _LIMIT_KEYS:
            vec = getattr(self, key)
            if vec.shape != (m,):
                raise NetworkFormatError(f"limit '{key}' has shape {vec.shape}, expected ({m},)")
            if not np.all(np.isfinite(vec)):
                raise NetworkFormatError(f"limit '{key}' contains non-finite entries")
        for band in "pqv":
            if np.any(getattr(self, f"{band}_lower") > getattr(self, f"{band}_upper")):
                raise NetworkFormatError(f"{band}_lower exceeds {band}_upper on some phase")
        if np.any(self.v_lower < 0.0):
            raise NetworkFormatError("v_lower must be nonnegative")

    def __reduce__(self):
        return (type(self), _init_values(self))

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in _LIMIT_KEYS}


def _init_values(obj) -> tuple:
    """The values of a dataclass's fields, in order: what rebuilds it."""
    return tuple(getattr(obj, f.name) for f in fields(obj))


_LIMIT_KEYS = tuple(f.name for f in fields(OperatingLimits))


def check_limits_length(limits: OperatingLimits, n_buses: int) -> None:
    """Raise NetworkFormatError unless the bands have length 3 * n_buses."""
    if limits.p_upper.shape != (3 * n_buses,):
        raise NetworkFormatError(
            f"limit 'p_upper' has shape {limits.p_upper.shape}, expected ({3 * n_buses},)"
        )


@dataclass(frozen=True, eq=False)
class ThreePhaseNetwork:
    """Block-sparse admittance model with a fixed slack voltage at bus 1.

    keys is a (B, 2) int64 array of 0-based (i, j) bus pairs and blocks the
    (B, 3, 3) complex array of their admittance blocks, in insertion order.
    The keys are distinct, the block sparsity pattern is symmetric, and the
    block of (j, i) is the conjugate transpose of the block of (i, j);
    diagonal blocks are unconstrained.

    A network is read-only and valid: construction copies keys, blocks and
    slack_voltage into read-only arrays and checks them, or raises
    NetworkFormatError naming the first defect.  Blocks are judged in
    insertion order, each by its range, duplicate, finiteness and mirror
    checks in that order; the error names the first block that fails one and
    the first check it fails.  To edit a network, build a new one from edited
    copies of its arrays.  A network compares and hashes by identity.
    """

    n_buses: int
    keys: np.ndarray = field(repr=False)
    blocks: np.ndarray = field(repr=False)
    slack_voltage: np.ndarray = field(default_factory=lambda: DEFAULT_SLACK_VOLTAGE)
    topology: str = ""

    def __post_init__(self):
        keys = _frozen_array(self.keys, np.int64, (2,), "block keys")
        blocks = _frozen_array(self.blocks, np.complex128, (3, 3), "blocks")
        if len(keys) != len(blocks):
            raise NetworkFormatError(f"{len(keys)} block keys for {len(blocks)} blocks")
        slack = _frozen_array(self.slack_voltage, np.complex128, (), "slack_voltage")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "slack_voltage", slack)
        _check_bus_count(self.n_buses, 1)
        if slack.shape != (3,):
            raise NetworkFormatError("slack_voltage must have exactly 3 phases")
        if not np.all(np.isfinite(slack)):
            raise NetworkFormatError("slack_voltage contains non-finite entries")
        problem = self._first_block_problem()
        if problem is not None:
            raise NetworkFormatError(problem)

    def __reduce__(self):
        return (type(self), _init_values(self))

    @cached_property
    def admittance(self) -> sp.csr_matrix:
        """The blocks stacked into a read-only sparse 3N x 3N matrix, built once."""
        Y = _assemble(self)
        for arr in (Y.data, Y.indices, Y.indptr):
            arr.setflags(write=False)
        return Y

    def _first_block_problem(self) -> str | None:
        """The message for the first offending block, all blocks checked at once."""
        count = len(self.keys)
        if count == 0:
            return None
        n = self.n_buses
        keys = np.clip(self.keys, -1, n)
        i, j = keys[:, 0], keys[:, 1]
        in_range = (i >= 0) & (i < n) & (j >= 0) & (j < n)
        finite = np.isfinite(self.blocks).all(axis=(1, 2))

        # Pair codes, sorted: equal neighbours are duplicates (the later
        # insertion named), and a sorted search finds each block's mirror.
        # n <= MAX_BUSES, so n * n + n fits in int64.
        codes = np.where(in_range, i * n + j, -1)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        duplicate = np.zeros(count, dtype=bool)
        duplicate[order[1:]] = (sorted_codes[1:] == sorted_codes[:-1]) & (sorted_codes[1:] >= 0)
        wanted = j * n + i
        pos = np.minimum(np.searchsorted(sorted_codes, wanted), count - 1)
        has_mirror = sorted_codes[pos] == wanted
        mirror = order[pos]
        offdiag = i != j

        # The conjugate test touches finite blocks only: a mirror's own
        # non-finite entries then meet finite values, which raises no warning.
        compare = offdiag & has_mirror & finite
        blk, other = self.blocks[compare], self.blocks[mirror[compare]]
        scale = np.maximum(1.0, np.abs(blk).max(axis=(1, 2)))
        gap = np.abs(other - blk.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        not_conjugate = np.zeros(count, dtype=bool)
        not_conjugate[compare] = gap > 1e-12 * scale

        checks = (
            (~in_range, "{name} is out of range"),
            (duplicate, "duplicate {name}"),
            (~finite, "{name} has non-finite entries"),
            (offdiag & ~has_mirror,
             "{name} present but ({j}, {i}) missing: sparsity pattern must be symmetric"),
            (not_conjugate, "block ({j}, {i}) is not the conjugate transpose of {name}"),
        )
        failing = np.array([mask for mask, _ in checks])
        bad = np.flatnonzero(failing.any(axis=0))
        if bad.size == 0:
            return None
        i, j = self.keys[bad[0]].tolist()
        message = checks[int(np.argmax(failing[:, bad[0]]))][1]
        return message.format(name=f"block ({i + 1}, {j + 1})", i=i + 1, j=j + 1)


def _frozen_array(value, dtype, shape: tuple, what: str) -> np.ndarray:
    """value as a read-only dtype copy of shape (B,) + shape; an empty list is B = 0.

    Only values numpy casts to dtype without loss are taken; ragged nesting,
    objects, floats as integers and wrong shapes raise NetworkFormatError.
    """
    try:
        arr = np.array(value)
    except ValueError:
        got = "ragged nesting"
    else:
        if arr.shape == (0,):
            arr = arr.reshape((0,) + shape).astype(dtype)
        if arr.ndim == len(shape) + 1 and arr.shape[1:] == shape and np.can_cast(arr.dtype, dtype):
            arr = arr.astype(dtype, copy=False)
            arr.setflags(write=False)
            return arr
        got = f"{arr.dtype} of shape {arr.shape}"
    expected = str(("B",) + shape).replace("'", "")
    raise NetworkFormatError(f"{what} must be a {expected} array of {np.dtype(dtype)}, got {got}")


def _assemble(network: ThreePhaseNetwork) -> sp.csr_matrix:
    """Y's canonical CSR arrays, written straight from the blocks sorted by key.

    Scalar row 3 r + p lists row p of each block of block row r, by block
    column: with the blocks sorted by key, entry (p, c) of the one that is
    b-th in its block row, which holds count blocks from sorted position
    first on, lands at 9 first + 3 count p + 3 b + c.  A network's keys are
    distinct and in range, so the arrays are canonical (explicit zeros
    kept), and the matrix says so: no later call sorts them in place.
    """
    n = network.n_buses
    keys, stack = network.keys, network.blocks
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


def _csc_arrays(shape, indptr, indices, data) -> tuple:
    """The CSC (indptr, indices, data) of CSR arrays whose indptr starts at 0.

    Rows come ascending within each column, as tocsc() builds them.
    """
    n_row, n_col = shape
    out = (np.empty(n_col + 1, dtype=indptr.dtype), np.empty_like(indices),
           np.empty_like(data))
    csr_tocsc(n_row, n_col, indptr, indices, data, *out)
    return out


# ---------------------------------------------------------------------------
# file format


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
    """Checked (nested) lists of [re, im] pairs as a flat vector of complex numbers.

    The float pairs are reinterpreted in place, with no arithmetic, so an
    infinite part stays exactly as written and raises no warning.
    """
    return np.array(pairs, dtype=float).reshape(-1, 2).view(complex).ravel()


def network_to_dict(network: ThreePhaseNetwork, limits: OperatingLimits) -> dict:
    """The network document: blocks sorted by key, bus indices 1-based."""
    keys = network.keys
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    ys = network.blocks[order].view(float).reshape(-1, 9, 2).tolist()
    return {
        "n_buses": network.n_buses,
        "topology": network.topology,
        "slack_voltage": network.slack_voltage.view(float).reshape(-1, 2).tolist(),
        "blocks": [{"i": i + 1, "j": j + 1, "y": y}
                   for (i, j), y in zip(keys[order].tolist(), ys)],
        "limits": {key: vec.tolist() for key, vec in limits.as_dict().items()},
    }


def network_from_dict(doc: dict) -> tuple:
    if "n_buses" not in doc:
        raise NetworkFormatError("missing 'n_buses'")
    n_buses = _number(doc["n_buses"], "n_buses", integer=True)
    slack = doc.get("slack_voltage", [])
    _check_pairs(slack, 3, "slack_voltage")
    entries = doc.get("blocks", [])
    if not isinstance(entries, list):
        raise NetworkFormatError("'blocks' must be a list")
    keys, pairs = [], []
    for entry in entries:
        if not isinstance(entry, dict) or "i" not in entry or "j" not in entry:
            raise NetworkFormatError(f"malformed block entry: {entry!r}")
        i = _number(entry["i"], "block index i", integer=True) - 1
        j = _number(entry["j"], "block index j", integer=True) - 1
        name = f"block ({i + 1}, {j + 1})"
        if max(abs(i), abs(j)) >= 2**63:        # beyond int64: no key array holds it
            raise NetworkFormatError(f"{name} is out of range")
        keys.append((i, j))
        pairs.append(entry.get("y", []))
        _check_pairs(pairs[-1], 9, name)
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
        keys=keys,
        blocks=_complex_array(pairs).reshape(-1, 3, 3),
        slack_voltage=_complex_array(slack),
        topology=str(doc.get("topology", "")),
    )
    limits = OperatingLimits(**vecs)
    check_limits_length(limits, n_buses)
    return network, limits


def save_network(path, network: ThreePhaseNetwork, limits: OperatingLimits) -> None:
    """Write a network document; floats round-trip exactly through load_network."""
    doc = network_to_dict(network, limits)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_document(path, key=None) -> dict:
    """The JSON object in the file at path, holding key when one is given.

    Every defect raises NetworkFormatError with the path first: bytes that
    are not UTF-8, text that is not JSON, a top level that is not an
    object, or a missing key.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:   # bad UTF-8, bad JSON, or an integer too long to read
            raise NetworkFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise NetworkFormatError(f"{path}: top level must be an object")
    if key is not None and key not in doc:
        raise NetworkFormatError(f"{path}: expected an object with key '{key}'")
    return doc


def load_network(path) -> tuple:
    """Read a network document, returning (ThreePhaseNetwork, OperatingLimits).

    Every error names the file.
    """
    doc = read_document(path)
    try:
        return network_from_dict(doc)
    except NetworkFormatError as exc:
        raise NetworkFormatError(f"{path}: {exc}") from None


def load_injection(path, n_buses: int) -> np.ndarray:
    """Read an injection set point {"u": [...]} of length 3*n_buses."""
    u = _real_vector(read_document(path, "u")["u"], f"{path}: 'u'")
    if u.shape != (3 * n_buses,):
        raise NetworkFormatError(
            f"{path}: injection has length {u.size}, expected {3 * n_buses}"
        )
    return u


def load_tie_block(path) -> np.ndarray:
    """Read a 3x3 tie admittance {"y": [9 [re, im] pairs]}, row-major."""
    y = read_document(path, "y")["y"]
    _check_pairs(y, 9, f"{path}: 'y'")
    return _complex_array(y).reshape(3, 3)


# ---------------------------------------------------------------------------
# synthetic instances


@dataclass(frozen=True)
class RadialParams:
    """Knobs for the synthetic radial generator.

    Series blocks are Hermitian with identity part drawn from [series_min,
    series_max] and a random Hermitian part scaled by coupling; each bus
    carries a small Hermitian shunt.  Construction raises NetworkFormatError
    naming the first field out of range.
    """

    series_min: float = 2.0
    series_max: float = 5.0
    coupling: float = 0.15
    shunt: float = 0.4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise NetworkFormatError(f"{f.name} must be a number, got {value!r}")
            if not abs(value) <= sys.float_info.max:
                raise NetworkFormatError(f"{f.name} must be finite, got {value!r}")
        if not 0 < self.series_min <= self.series_max:
            raise NetworkFormatError("need 0 < series_min <= series_max, got"
                                     f" {self.series_min!r} and {self.series_max!r}")
        if self.shunt <= 0:
            raise NetworkFormatError(f"shunt must be positive, got {self.shunt!r}")
        if self.coupling < 0:
            raise NetworkFormatError(f"coupling must be nonnegative, got {self.coupling!r}")


# The radial generator's limits on every phase of every bus: power bands of
# +-1.5 and |V| between 0.7 and 1.2.
RADIAL_LIMITS = {"p_upper": 1.5, "p_lower": -1.5, "q_upper": 1.5, "q_lower": -1.5,
                 "v_upper": 1.44, "v_lower": 0.49}


def _random_hermitian(rng: np.random.Generator, scale: float) -> np.ndarray:
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return scale * 0.5 * (raw + raw.conj().T)


def synth_radial(
    n_buses: int, seed: int = 0, params: RadialParams = RadialParams()
) -> tuple:
    """Deterministic random radial feeder with limits that admit u = 0.

    Bus 1 is the root and slack.  The tree has n_buses - 1 lines; each line
    carries a Hermitian series block, and diagonal blocks sum incident series
    blocks plus a Hermitian shunt.  A series or shunt block drawn not positive
    definite raises NetworkFormatError naming its line or bus, so the
    admittance a feeder gets is strictly positive definite.  So does an
    n_buses that is not an integer from 2 to MAX_BUSES, before any allocation.
    """
    _check_bus_count(n_buses, 2)
    if seed < 0:
        raise NetworkFormatError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    keys, blocks = [], []
    diag = np.zeros((n_buses, 3, 3), dtype=complex)
    for child in range(1, n_buses):
        parent = int(rng.integers(0, child))
        base = float(rng.uniform(params.series_min, params.series_max))
        series = base * np.eye(3, dtype=complex) + _random_hermitian(
            rng, params.coupling * base
        )
        keys += [(parent, child), (child, parent)]
        blocks += [-series, -series.conj().T]
        diag[parent] += series
        diag[child] += series.conj().T
    shunts = np.array([params.shunt * np.eye(3, dtype=complex)
                       + _random_hermitian(rng, 0.1 * params.shunt) for _ in range(n_buses)])
    series_least = np.linalg.eigvalsh(-np.array(blocks[0::2]))[:, 0]
    if np.any(series_least <= 0):
        line = int(np.argmax(series_least <= 0))
        i, j = keys[2 * line]
        raise NetworkFormatError(
            f"coupling {params.coupling!r} draws a series block that is not positive"
            f" definite on line ({i + 1}, {j + 1}) (least eigenvalue {series_least[line]:.3g})"
        )
    shunt_least = np.linalg.eigvalsh(shunts)[:, 0]
    if np.any(shunt_least <= 0):
        bus = int(np.argmax(shunt_least <= 0))
        raise NetworkFormatError(
            f"shunt draws a block that is not positive definite at bus {bus + 1}"
            f" (least eigenvalue {shunt_least[bus]:.3g})"
        )
    diag += shunts
    keys += [(b, b) for b in range(n_buses)]
    limits = OperatingLimits(**{key: np.full(3 * n_buses, band)
                                for key, band in RADIAL_LIMITS.items()})
    network = ThreePhaseNetwork(
        n_buses=n_buses, keys=keys, blocks=blocks + list(diag),
        slack_voltage=DEFAULT_SLACK_VOLTAGE, topology="radial",
    )
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
    n_out = int(k) * (nb - 1) + 1
    if n_out > MAX_BUSES:
        raise NetworkFormatError(f"replication count {k} gives {n_out} buses (max {MAX_BUSES})")
    if tie_block is not None:
        tie_block = np.asarray(tie_block, dtype=complex)
        if tie_block.shape != (3, 3):
            raise NetworkFormatError("tie_block must be 3x3")
        if not np.all(np.isfinite(tie_block)):
            raise NetworkFormatError("tie_block has non-finite entries")
        scale = max(1.0, float(np.abs(tie_block).max()))
        if np.abs(tie_block - tie_block.conj().T).max() > 1e-12 * scale:
            raise NetworkFormatError("tie_block must be Hermitian")

    keys, vals = network.keys, network.blocks
    i, j = keys[:, 0], keys[:, 1]
    missing = np.setdiff1d(np.arange(nb), i[i == j])
    if missing.size:
        raise NetworkFormatError(f"base feeder has no diagonal block at bus {missing[0] + 1}")
    check_limits_length(limits, nb)
    if k == 1 and tie_block is None:
        return network, limits

    root_out = (i == 0) & (j != 0)
    root_diag = vals[np.flatnonzero((i == 0) & (j == 0))[0]]
    # The series admittances the base root's diagonal sums, in key order.
    root_series_sum = sum(-vals[root_out], np.zeros((3, 3), complex))

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
    # A sum that overflows leaves inf in the slack block, for the network's
    # construction to name below, rather than a numpy warning first.
    with np.errstate(over="ignore"):
        if tie_block is None:
            slack_diag = root_diag + (k - 1) * root_series_sum
        else:
            # The root's shunt (diagonal minus series sum) plus one tie per line.
            slack_diag = (root_diag - root_series_sum) + (k * np.count_nonzero(root_out)) * tie_block

    tiled = OperatingLimits(**{
        key: np.concatenate([vec[:3], np.tile(vec[3:], k)])
        for key, vec in limits.as_dict().items()
    })
    out = ThreePhaseNetwork(
        n_buses=n_out,
        keys=np.append(np.stack([out_i, out_j], axis=1), [[0, 0]], axis=0),
        blocks=np.append(np.tile(copy_vals, (k, 1, 1)), slack_diag[None], axis=0),
        slack_voltage=network.slack_voltage,
        topology=f"replicated-x{k}" if k > 1 else network.topology,
    )
    return out, tiled

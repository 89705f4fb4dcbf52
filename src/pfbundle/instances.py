"""Instance construction with a known optimum for calibration and demos.

The loss-minimizing voltage profile pins the whole problem down: centering
the power and magnitude bands around the operating point it induces makes
that profile the unique optimal operating point, with an analytic optimal
value, while shrinking the magnitude caps below the reference magnitude
makes the slack bus itself violate its band and yields a certified-negative
instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# scipy's CSC product kernel, the routine a CSC product ends in, called on
# C's arrays with no slices built.  If scipy moves it, this import fails and
# the test suite with it.
from scipy.sparse._sparsetools import csc_matvec

from .network import OperatingLimits, ThreePhaseNetwork, _csc_arrays

# Planted margins: how far inside its band every row sits at the reference
# profile (active and reactive power, squared voltage magnitude).
P_MARGIN = 2.0
Q_MARGIN = 1.5
V_MARGIN = 0.35
# The planted-infeasible cap on squared voltage magnitude, below the slack's 1.
V_CAP = 0.5


@dataclass(frozen=True, eq=False)
class PlantedInstance:
    """Limits + injection built around a reference voltage profile."""

    voltage: np.ndarray = field(repr=False)
    u: np.ndarray = field(repr=False)
    limits: OperatingLimits
    f_star: float
    feasible: bool


def loss_min_profile(network: ThreePhaseNetwork) -> np.ndarray:
    """Voltage minimizing total dissipation subject to the fixed slack block.

    Splitting the Hermitian part of the admittance by the slack phases, the
    minimizer solves the trailing block against the coupling column.  Requires
    the trailing block to be positive definite, which holds for any network
    with shunt loading on every bus.
    """
    return _profile(network, _hermitian_part(network.admittance))


def _hermitian_part(Y: sp.csr_matrix) -> sp.csr_matrix:
    """0.5 * (Y + Y^H) of an assembled admittance, with the bits scipy gives.

    An assembled Y is canonical and its pattern is symmetric (blocks come in
    mirror pairs), so Y^T's CSR arrays have Y's pattern, and C is computed
    on it entry by entry, in the order scipy's sparse sum adds.  Sums that
    are exactly zero are dropped, as that sum drops them; line blocks
    without mutual coupling have such entries.
    """
    transposed = _csc_arrays(Y.shape, Y.indptr, Y.indices, Y.data)[2]
    total = Y.data + np.conj(transposed)
    keep = total != 0
    kept = np.concatenate([[0], np.cumsum(keep)])
    return sp.csr_matrix(
        (total[keep] * 0.5, Y.indices[keep], kept[Y.indptr].astype(Y.indptr.dtype)),
        shape=Y.shape,
    )


def _profile(network: ThreePhaseNetwork, C: sp.csr_matrix) -> np.ndarray:
    """loss_min_profile given the Hermitian part C of the admittance.

    The CSC arrays of C's rows below the slack hold C21 (the first three
    columns) and C22 (the rest) as slicing and tocsc() would build them, and
    C21 @ v1 is scipy's CSC product on them.
    """
    v1 = network.slack_voltage
    if network.n_buses == 1:
        return np.array(v1, dtype=complex)
    m = C.shape[0] - 3
    start = C.indptr[3]
    indptr, indices, data = _csc_arrays(
        (m, m + 3), C.indptr[3:] - start, C.indices[start:], C.data[start:]
    )
    c21_v1 = np.zeros(m, dtype=complex)
    csc_matvec(m, 3, indptr, indices, data, v1, c21_v1)
    split = indptr[3]
    C22 = sp.csc_matrix((data[split:], indices[split:], indptr[3:] - split), shape=(m, m))
    tail = spla.spsolve(C22, -c21_v1)
    return np.concatenate([v1, np.atleast_1d(tail)])


def plant_feasible(network: ThreePhaseNetwork) -> PlantedInstance:
    """Bands centered on the loss-minimizing profile with strict margins.

    Every limit row is strictly slack at the reference profile, so the
    recovered operating point should report zero limit violation, and the
    optimal value is the negated dissipation of the profile.
    """
    Y = network.admittance
    C = _hermitian_part(Y)
    v = _profile(network, C)
    s = v * np.conj(Y @ v)
    u = s.real.copy()
    q = s.imag.copy()
    d = (v.real * v.real) + (v.imag * v.imag)
    dim = u.size
    # Active-power bounds are offsets around the set point; reactive and
    # magnitude bounds are absolute, so those are centered on the profile.
    limits = OperatingLimits(
        p_upper=np.full(dim, P_MARGIN),
        p_lower=np.full(dim, -P_MARGIN),
        q_upper=q + Q_MARGIN,
        q_lower=q - Q_MARGIN,
        v_upper=d + V_MARGIN,
        v_lower=np.clip(d - V_MARGIN, 0.0, None),
    )
    f_star = -float(np.real(np.vdot(v, C @ v)))
    return PlantedInstance(voltage=v, u=u, limits=limits, f_star=f_star, feasible=True)


def plant_infeasible(network: ThreePhaseNetwork) -> PlantedInstance:
    """Magnitude caps below the squared slack voltage: provably no solution.

    The slack block is fixed at unit squared magnitude per phase, so the cap
    V_CAP below one is violated by every candidate matrix and the certified
    slack stays bounded away from zero.  The power bands are plant_feasible's.
    """
    base = plant_feasible(network)
    dim = 3 * network.n_buses
    limits = replace(base.limits, v_upper=np.full(dim, V_CAP), v_lower=np.zeros(dim))
    return replace(base, limits=limits, f_star=float("nan"), feasible=False)

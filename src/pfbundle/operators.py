"""Vectorized constraint maps, the penalized dual objective, and its eigensolver.

The dual variable is x = (y, Gamma): y is a nonnegative box-bounded vector of
length 18N stacking six multiplier blocks (active power upper/lower, reactive
upper/lower, squared-voltage upper/lower), and Gamma is a Hermitian 3x3 matrix
attached to the slack-bus voltage block.  Every function here takes and
returns x as one flat real vector [y; svec3(Gamma)] of length 18N + 9, whose
Euclidean inner product reproduces y1.y2 + trace(Gamma1 @ Gamma2): the
Hermitian part is stored as (diagonal, sqrt(2) * Re upper, sqrt(2) * Im
upper), and x[:18N] and smat3(x[18N:]) are its two parts.

The dual matrix is H(x) = C + Astar(y) + embed(Gamma), with C the Hermitian
part of the admittance matrix.  Its sparsity pattern does not depend on x:
build_problem fixes it once (DualPattern), and dual_data computes H's values
on it through precomputed index maps.  The penalized objective adds
alpha * max(lambda_max(-H), 0) to the linear dual objective, which removes the
semidefinite constraint on H at the price of one extreme eigenpair per
evaluation, returned as an EigenResult by leading_eigenpair.  For small H the
top eigenpair comes from a dense LAPACK solve whose values go straight into
a dense array, with no sparse matrix built.  For large H it comes from
spectral-transformation Lanczos (Ericsson & Ruhe, Math. Comp. 1980): a shift
sigma > lambda_max(-H) is bracketed by inertia alone, since a sparse LDL^H of
sigma I + H (SuperLU, diagonal pivots, on a fill-reducing order that the
pattern builds at its first such call) with positive pivots proves it
(Sylvester's law of inertia; Parlett, The Symmetric Eigenvalue Problem).
Lanczos then finds the top eigenpair theta of (sigma I + H)^-1, whose solves
that factor gives, and lambda = sigma - 1 / theta; convergence is judged on
H's own residual, one sparse product each.  A call shifts above the Rayleigh
quotient mu of its start vector (the previous eigenvector, or the all-ones
vector when there is none) by a margin that Temple's bound on
lambda_max(-H) - mu sets from the start's residual and the previous call's
gap estimate, so that a warm call near the top takes few solves, and starts
Lanczos from that vector, blended with a small seeded random vector.  The
dense solve's residual calls no BLAS, so nothing waits for scipy's pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dstebz, dstein, zheevr

# scipy's SuperLU factorization, called without splu's wrapper.  splu checks
# and copies its input and hands L and U out as sparse arrays, whose checks
# cost about as much as the factor's own work on a feeder, where the inertia
# test needs only U's diagonal.  If scipy moves it, this import fails and the
# test suite with it.
from scipy.sparse.linalg._dsolve._superlu import gstrf

from .network import OperatingLimits, ThreePhaseNetwork, _csc_arrays, check_limits_length

_SQRT2 = np.sqrt(2.0)
# Row and column indices of the 3x3 upper triangle, in svec3 order.
_UPPER = (np.array([0, 0, 1]), np.array([1, 2, 2]))


class EigenFailure(RuntimeError):
    """Extreme eigenpair iteration did not reach the requested residual."""


def svec3(mat: np.ndarray) -> np.ndarray:
    """Isometric real embedding of a Hermitian 3x3 matrix (9 numbers)."""
    upper = mat[_UPPER]
    return np.concatenate([mat.diagonal().real, _SQRT2 * upper.real, _SQRT2 * upper.imag])


def smat3(vec: np.ndarray) -> np.ndarray:
    """Inverse of svec3."""
    mat = np.zeros((3, 3), dtype=complex)
    mat.flat[::4] = vec[0:3]
    upper = (vec[3:6] + 1j * vec[6:9]) / _SQRT2
    mat[_UPPER] = upper
    mat[_UPPER[::-1]] = upper.conj()
    return mat


def limit_offset_vector(u: np.ndarray, limits: OperatingLimits) -> np.ndarray:
    """Stack the six limit offsets so the capacity rows read A(W) + m <= z."""
    u = np.asarray(u, dtype=float)
    return np.concatenate(
        [
            -u - limits.p_upper,
            u + limits.p_lower,
            -limits.q_upper,
            limits.q_lower,
            -limits.v_upper,
            limits.v_lower,
        ]
    )


@dataclass(frozen=True, eq=False)
class DualPattern:
    """The fixed CSR sparsity pattern of H and the index maps into its data.

    The pattern is the one the network's admittance Y stores: Y's nonzeros,
    their mirrors, the diagonal and the 3x3 slack corner, as
    network._assemble decides.  transpose[k] is the position of the
    mirror entry of position k; diagonal and corner hold the positions of
    the diagonal (in row order) and of the corner (row-major); dense holds
    each position's index into a row-major dim x dim array; yh_data holds
    Y^H's values on the pattern.  The arrays are read-only, since every H
    shares indptr and indices with Y and C.
    """

    indptr: np.ndarray
    indices: np.ndarray
    transpose: np.ndarray
    diagonal: np.ndarray
    corner: np.ndarray
    dense: np.ndarray
    yh_data: np.ndarray

    @property
    def dim(self) -> int:
        return self.indptr.size - 1

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix with these values on the pattern."""
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.dim, self.dim))

    def negated_dense(self, data: np.ndarray) -> np.ndarray:
        """-matrix(data).toarray(), built without a sparse matrix.

        The values are added onto zeros and the array is then negated in
        place, as toarray() and unary minus do; writing -data instead would
        leave +0.0 where they leave -0.0, and LAPACK's results can differ in
        the last bits.
        """
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out.reshape(-1)[self.dense] += data
        return np.negative(out, out=out)

    @cached_property
    def factor_plan(self) -> FactorPlan:
        """The pattern's FactorPlan, built at the first use and kept."""
        return factor_plan(self)


def dual_pattern(Y: sp.csr_matrix) -> DualPattern:
    """The pattern of H for a network's admittance Y, read from Y's arrays.

    Y stores H's pattern (network._assemble), which is symmetric: listed
    column by column it is its own transpose listed row by row, so scipy's
    CSR-to-CSC kernel run on the positions 0, 1, ... as data names each
    position's mirror.  Every row holds its diagonal, and the slack rows
    start with the slack block's three columns.
    """
    n = Y.shape[0]
    indptr, indices = Y.indptr, Y.indices
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    transpose = _csc_arrays((n, n), indptr, indices, np.arange(indices.size))[2]
    pattern = DualPattern(
        indptr=indptr,
        indices=indices,
        transpose=transpose,
        diagonal=np.flatnonzero(rows == indices),
        corner=(indptr[:3, None] + np.arange(3)).ravel(),
        dense=rows * n + indices,
        yh_data=np.conj(Y.data[transpose]),
    )
    for arr in vars(pattern).values():
        arr.setflags(write=False)
    return pattern


@dataclass(frozen=True, eq=False)
class PenaltyObjective:
    """Immutable problem data for the penalized dual objective.

    C is the network's hermitian_part, on Y's stored pattern, which is H's
    (network._assemble decides it).  alpha (the limit rule) and beta (the
    default box) hold until bundle.init_state sets the run's own.
    """

    n_buses: int
    Y: sp.csr_matrix = field(repr=False)
    pattern: DualPattern = field(repr=False)
    C: sp.csr_matrix = field(repr=False)
    m_vec: np.ndarray = field(repr=False)
    slack_voltage: np.ndarray = field(repr=False)
    M1: np.ndarray = field(repr=False)
    alpha: float
    beta: float = 0.1

    @property
    def dim(self) -> int:
        return 3 * self.n_buses

    @property
    def n_box(self) -> int:
        return 18 * self.n_buses

    @cached_property
    def fixed_slope(self) -> np.ndarray:
        """Slope of the linear dual objective in flat coordinates (read-only)."""
        slope = np.concatenate([-self.m_vec, svec3(self.M1)])
        slope.setflags(write=False)
        return slope

    def start_point(self) -> np.ndarray:
        """Midpoint of the multiplier box with a zero Hermitian part, flat."""
        return np.concatenate([np.full(self.n_box, 0.5 * self.beta), np.zeros(9)])


def build_problem(
    network: ThreePhaseNetwork,
    limits: OperatingLimits,
    u: np.ndarray,
) -> PenaltyObjective:
    """Assemble problem data; alpha is twice the summed upper voltage band.

    Network and limits were checked at construction; here the bands' length
    is compared with the bus count, and the injection is checked.  Finite
    inputs whose sums or products here overflow float64 raise ValueError.
    The problem shares the network's read-only admittance matrix and its
    Hermitian part.
    """
    check_limits_length(limits, network.n_buses)
    u = np.asarray(u, dtype=float)
    if u.shape != (3 * network.n_buses,):
        raise ValueError(f"injection has shape {u.shape}, expected ({3 * network.n_buses},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("injection contains non-finite entries")
    Y = network.admittance
    pattern = dual_pattern(Y)
    v1 = network.slack_voltage
    try:
        with np.errstate(over="raise", invalid="raise"):
            C = network.hermitian_part
            m_vec = limit_offset_vector(u, limits)
            M1 = np.outer(v1, v1.conj())
            alpha = 2.0 * float(limits.v_upper.sum())
    except FloatingPointError as exc:
        raise ValueError(f"problem data leaves the float64 range: {exc}") from None
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return PenaltyObjective(
        n_buses=network.n_buses,
        Y=Y,
        pattern=pattern,
        C=C,
        m_vec=m_vec,
        slack_voltage=v1,
        M1=M1,
        alpha=alpha,
    )


def apply_constraint_rank1(problem: PenaltyObjective, v: np.ndarray) -> np.ndarray:
    """Evaluate the capacity map on the rank-one matrix v v^H.

    Uses one sparse matvec: the injection is diag(v v^H Y^H) = v * conj(Y v),
    so the six stacked rows are [Re S, -Re S, Im S, -Im S, |v|^2, -|v|^2].
    """
    v = np.asarray(v, dtype=complex)
    s = v * np.conj(problem.Y @ v)
    d = (v.real * v.real) + (v.imag * v.imag)
    return np.concatenate([s.real, -s.real, s.imag, -s.imag, d, -d])


def _adjoint_data(problem: PenaltyObjective, y: np.ndarray) -> np.ndarray:
    """The adjoint of the capacity map at y, as data on H's pattern.

    With w = (y_P+ - y_P-) + i (y_Q+ - y_Q-) and c = y_V+ - y_V-, the adjoint
    is 0.5 * (Y^H diag(conj(w)) + diag(w) Y) + diag(c).  Only the first
    product is formed; the second is its mirror, conjugated, so every entry
    and its mirror are exact conjugates and the result is Hermitian by
    construction.
    """
    p_up, p_lo, q_up, q_lo, v_up, v_lo = np.asarray(y, dtype=float).reshape(6, -1)
    w = (p_up - p_lo) + 1j * (q_up - q_lo)
    c = v_up - v_lo
    pattern = problem.pattern
    left = pattern.yh_data * np.conj(w)[pattern.indices]   # Y^H diag(conj(w))
    out = 0.5 * (left + np.conj(left[pattern.transpose]))
    out[pattern.diagonal] += c
    return out


def dual_data(problem: PenaltyObjective, x: np.ndarray) -> np.ndarray:
    """H(x) = C + adjoint(y) + embedded Gamma, as data on the fixed pattern."""
    n_box = problem.n_box
    data = problem.C.data + _adjoint_data(problem, x[:n_box])
    data[problem.pattern.corner] += smat3(x[n_box:]).ravel()
    return data


def dual_matrix(problem: PenaltyObjective, x: np.ndarray) -> sp.csr_matrix:
    """H(x) as a CSR matrix on the fixed pattern."""
    return problem.pattern.matrix(dual_data(problem, x))


# ---------------------------------------------------------------------------
# extreme eigenpair


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Extreme eigenpair of the negated dual matrix.

    value is lambda_max(-H); vector is a unit eigenvector; residual is the
    explicitly recomputed ||(-H) v - value * v||.  matvecs counts Lanczos
    operator applications, which on leading_eigenpair's factor path are
    solves with the factor of sigma I + H, and factors counts the factor
    attempts, 1 plus the inertia retries (both 0 on the dense path).
    quotient is the Temple quotient ||r||^2 / (value - mu) of the call's start
    vector, whose Rayleigh quotient on -H is mu and residual r: the next warm
    call's estimate of the gap below the top (NaN on the dense path, or when
    value is not above mu).
    """

    value: float
    vector: np.ndarray = field(repr=False)
    residual: float
    matvecs: int = 0
    factors: int = 0
    quotient: float = math.nan


def _normalize_phase(v: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if np.abs(pivot) == 0.0:
        return v
    return v * (np.conj(pivot) / np.abs(pivot))


# Weight of the seeded random unit vector blended into a warm start.  Started
# exactly at the second eigenvector, the Krylov space is invariant and Lanczos
# returns lambda_2.  On 50 random Hermitian matrices (dims 61-300, half with
# lambda_1 - lambda_2 = 1e-3) started there, weights 0, 1e-6, 1e-4, 1e-3 and
# 1e-2 gave 50, 25, 0, 0 and 0 wrong results.  On the factor path the blend
# costs no solves: per eigensolve at weights 1e-3, 1e-4, 1e-5 and 1e-7, the
# replicated k=30 feeder took 7.14 at all four and k=20 infeasible 6.74,
# 6.67, 6.67 and 6.67, with the same iterations.
WARM_BLEND = 1e-3

# After each step, the forward residual estimate must be at most this fraction
# of tol.  At 1/2, the bound the plain Lanczos on -H used, the
# planted-infeasible k=20 feeder takes 43 iterations instead of the 42 that
# every tighter eig_tol gives (3e-10 down to 1e-12, on this path and on the
# earlier Lanczos on -H alike); at 1/10 it takes 42, and 293 solves in all
# (6.8 per eigensolve) instead of 285 (6.5).
FORWARD_CHECK = 0.1


def _norm(vec: np.ndarray) -> float:
    """The Euclidean norm of a vector, as sqrt(vdot): no temporary array."""
    return math.sqrt(np.vdot(vec, vec).real)


def _top_ritz(alphas: np.ndarray, betas: np.ndarray):
    """The top eigenvalue of T and its eigenvector.

    LAPACK's bisection (stebz, by index) and inverse iteration (stein) are
    called directly: scipy's eigh_tridiagonal runs the same two and returns
    the same bits, but its Python checks cost more than the LAPACK work at
    these sizes.  Per top-eigenvalue call, wrapper against direct: 27/7,
    35/13, 47/26 and 60/37 us at T sizes 8, 24, 44 and 60 (2-core host).
    """
    used = alphas.size
    if used == 1:
        return float(alphas[0]), np.ones(1)
    offdiag = betas[: used - 1]
    m, w, iblock, isplit, info = dstebz(alphas, offdiag, 2, 0.0, 1.0, used, used, 0.0, b"B")
    if info == 0:
        evecs, info = dstein(alphas, offdiag, w[:m], iblock, isplit)
    if info != 0:
        raise EigenFailure(f"tridiagonal eigensolve failed (LAPACK info {info})")
    top = int(np.argmax(w[:m]))
    return float(w[top]), evecs[:, top]


# Daniel, Gragg, Kaufman & Stewart (Math. Comp. 1976): one Gram-Schmidt pass
# against the basis is enough unless it shrinks w below this fraction of its
# norm before the pass; then a second pass restores orthogonality.
_DGKS_RATIO = 1.0 / np.sqrt(2.0)


# Basis size of the one Lanczos cycle; a cycle that ends above tol raises
# EigenFailure.  Most solves per call in default solves at 1 BLAS thread: 9
# on the k=20 and k=30 benchmark feeders; 27 on the planted deep feeders
# (synth_radial(n, seed=3) with DENSE_MAX_DIM's RadialParams) up to 1,000
# buses, 67 and 77 at 2,000 and 3,000 (each at its sixth call, every other
# call at most 45); 71 on acceptance criterion 4's operators, 8 of whose 200
# (clustered tops, dims 177-275) take 62-71, so a basis of 60 would not hold
# them.  Q is np.empty, so a call touches only the rows it uses.
MAX_KRYLOV = 100


def lanczos_extreme(
    matvec,
    dim: int,
    rng: np.random.Generator,
    forward,
    start: np.ndarray,
    tol: float = 1e-9,
):
    """Top eigenpair of the inverse of a Hermitian positive definite operator.

    matvec applies the inverse of forward, and Lanczos with full
    reorthogonalization finds the top eigenpair (theta, v) of matvec; tol
    bounds forward's residual ||forward(v) - v / theta||.  The iteration
    starts from start blended with WARM_BLEND of a seeded random unit
    vector, which keeps an eigenvector of a lower eigenvalue from trapping
    it, and runs one cycle of at most MAX_KRYLOV steps.

    A Ritz pair whose residual under matvec is r has forward residual
    ||forward(r)|| / theta, and r = s_j w for the unnormalized next basis
    vector w.  After every step the iteration checks that against
    FORWARD_CHECK tol, by one forward product, once |beta_j s_j| / theta^2
    (its value were r along the top eigenvector) is that small.  The
    orthogonalization is repeated by the DGKS rule, and only the explicitly
    recomputed forward residual, one forward product, decides convergence.

    A step costs its product with the operator and two matrix-vector products
    with the basis (four when DGKS repeats the pass).  Everything else is done
    in place: the blend is drawn as one real array viewed as complex, the
    three-term update and the final residual go through one scratch vector,
    norms are square roots of vdot, and the next basis vector is written
    straight into its row.  matvec must return a new array, which the step then
    overwrites, and must not change its argument, a row of the basis.  Every
    BLAS call goes through numpy: scipy.linalg.blas runs its own OpenBLAS
    thread pool beside numpy's, and a call on one pool right after threaded
    work on the other waits for it.  With scipy's zgemv for the two basis
    products, whole k=30 and k=20 feeder solves ran 2.2 to 3 times slower at 2
    threads; a scipy zaxpy at dim 12,000, where it threads, followed by a numpy
    product took 8.0 ms against 0.19 ms on one thread.
    Returns an EigenResult for theta whose residual is the forward one and
    whose matvecs counts the matvec calls; raises EigenFailure if that
    residual misses tol (or is NaN) when the cycle ends, after at most
    min(dim, MAX_KRYLOV) matvec calls.
    """
    m = min(dim, MAX_KRYLOV)
    v = rng.standard_normal(2 * dim).view(complex)
    v *= WARM_BLEND / _norm(v)
    start = np.asarray(start, dtype=complex)
    v += start / _norm(start)
    Q = np.empty((m, dim), dtype=complex)
    np.divide(v, _norm(v), out=Q[0])
    scratch = np.empty(dim, dtype=complex)
    alphas = np.empty(m)
    betas = np.empty(m)
    for j in range(m):
        q = Q[j]
        w = matvec(q)
        alpha = np.vdot(q, w).real
        alphas[j] = alpha
        w -= np.multiply(q, alpha, out=scratch)
        if j > 0:
            w -= np.multiply(Q[j - 1], betas[j - 1], out=scratch)
        # Reorthogonalize against the whole basis; a second pass only when
        # the first cancelled most of w (DGKS).
        basis = Q[: j + 1]
        before = _norm(w)
        w -= (basis @ w.conj()).conj() @ basis
        beta = _norm(w)
        if beta < _DGKS_RATIO * before:
            w -= (basis @ w.conj()).conj() @ basis
            beta = _norm(w)
        used = j + 1
        betas[j] = beta
        if beta < 1e-14 * max(1.0, abs(alpha)):
            break
        theta, s = _top_ritz(alphas[:used], betas)
        s_last = s[-1]
        if (abs(beta * s_last) <= FORWARD_CHECK * tol * theta * theta
                and abs(s_last) * _norm(forward(w)) <= FORWARD_CHECK * tol * theta):
            break
        if used < m:
            np.multiply(w, 1.0 / beta, out=Q[used])
    ritz, s = _top_ritz(alphas[:used], betas)
    vec = s @ Q[:used]
    vec /= _norm(vec)
    res = forward(vec)
    res -= np.divide(vec, ritz, out=scratch)
    resid = _norm(res)
    if not resid <= tol:   # NaN included
        raise EigenFailure(
            f"no convergence in {used} Lanczos steps:"
            f" residual {resid:.3e} (tol {tol:.1e}, dim {dim})"
        )
    return EigenResult(value=ritz, vector=_normalize_phase(vec), residual=resid,
                       matvecs=used)


# Largest dimension solved densely (the top eigenpair of -H by LAPACK's
# zheevr); the factor path above it.  The dense residual's product is einsum,
# which calls no BLAS: from dim 66 on zheevr threads on scipy's OpenBLAS
# pool, and a threaded product on numpy's pool right after it waits for those
# threads.  A dense call on random Hermitian matrices (best of 5 x 50 calls, 2
# threads, 2-core host) takes 1.19 ms at dim 90 with einsum (9.60 with the
# BLAS product, 1.20 for zheevr alone) and 2.32 ms at dim 117 (8.09; 2.21).
# Against the factor path, on planted synth_radial(n, seed=3,
# RadialParams(series_min=0.5, series_max=1.25, shunt=0.1)) feeders, each
# warm call of a whole solve timed on both paths (best of 3, alternating),
# median ms, dense/factor, two runs each.  1 thread: 90
# 0.74/0.68 and 1.20/1.24, 105 1.04/0.82 and 1.68/1.36, 117 1.36/0.87 and
# 2.14/1.40, 120 1.66/1.00 and 2.29/1.44, 135 1.86/0.89 and 2.03/1.07, 150
# 3.70/1.35 and 3.63/1.66, 180 5.89/1.37 and 5.57/1.68: the two tie at 90,
# and the factor path wins from 105.  2 threads: 90 1.98/1.55 and 1.73/1.05,
# 105 2.62/1.36 and 2.54/1.41, 117 3.41/1.50 and 3.51/1.59, 120 3.61/1.48 and
# 3.67/1.70, 135 4.78/1.42 and 4.73/1.27, 150 5.61/1.81 and 6.16/1.57, 180
# 8.19/1.79 and 9.31/1.73: it wins from 90 on, so the crossover lies at or
# below 90.  These figures were timed when the dense call asked zheevr for the
# top two eigenpairs; it now asks for one.  The constant has not moved with
# them: moving it changes every count in the dims it moves across.
DENSE_MAX_DIM = 117


def dense_extreme(mat: np.ndarray) -> EigenResult:
    """The top eigenpair of a dense Hermitian matrix by LAPACK's zheevr.

    Only the top one is computed, by index.  The residual's product is
    einsum's, not BLAS's: zheevr runs on scipy's OpenBLAS pool, and a
    threaded product on numpy's pool right after it waits for those threads
    (see DENSE_MAX_DIM).
    """
    dim = mat.shape[0]
    w, z, _, _, info = zheevr(mat, range="I", il=dim, iu=dim)
    if info != 0:
        raise EigenFailure(f"dense eigensolve failed (LAPACK info {info})")
    vec = _normalize_phase(np.ascontiguousarray(z[:, 0]))
    value = float(w[0])
    resid = float(np.linalg.norm(np.einsum("ij,j->i", mat, vec) - value * vec))
    return EigenResult(value=value, vector=vec, residual=resid)


@dataclass(frozen=True, eq=False)
class FactorPlan:
    """sigma I + H in a fill-reducing symmetric order, as CSC arrays.

    order[i] is H's row and column at position i of the reordered matrix
    B = H[order][:, order]; indptr and indices are B's CSC pattern, source[k]
    is the position in H's CSR data of B's k-th CSC entry, and diagonal holds
    the CSC positions of B's diagonal.  So B's values are h_data[source],
    with sigma added at diagonal.
    """

    order: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    source: np.ndarray
    diagonal: np.ndarray

    def shifted_data(self, h_data: np.ndarray, sigma: float) -> np.ndarray:
        """The CSC values of sigma I + H in the plan's order."""
        data = h_data[self.source]
        data[self.diagonal] += sigma
        return data


def _raw_csc(arrays, shape):
    """gstrf's constructor for L and U: their CSC (data, indices, indptr) as is."""
    return arrays


# PanelSize 1: with one-column supernodes (see factor_plan), wider panels
# only add work.  A factor at dim 543 in that order took 386 us against 613
# at the default panel size, and the solves 44 us either way.
_FACTOR_OPTIONS = dict(DiagPivotThresh=0.0, ColPerm="NATURAL", SymmetricMode=True, PanelSize=1)


def factor_plan(pattern: DualPattern) -> FactorPlan:
    """The elimination order of H's pattern and the CSC map into its data.

    The order starts from SuperLU's minimum degree on the pattern of
    A^T + A, taken from one factor of a diagonally dominant matrix on H's
    pattern; on a radial feeder it eliminates from the leaves and makes no
    fill.  It is then re-sorted by depth in that factor's elimination tree,
    deepest first.  Every order that eliminates each column before its
    parent has the same fill (Liu, SIAM J. Matrix Anal. Appl. 1990), and in
    this one a column is directly followed by its parent only where one depth
    ends, so SuperLU's supernodes are nearly all one column wide.  On a tree
    of 3x3 blocks they would otherwise be one bus each, and SuperLU's solve
    makes BLAS calls per supernode: in this order a solve at dim 543 took 40
    us against 135.  Read-only arrays.
    """
    n = pattern.dim
    row_len = np.diff(pattern.indptr)
    values = np.ones(pattern.indices.size)
    values[pattern.diagonal] = row_len + 1.0
    probe = gstrf(n, values.size, values, pattern.indices, pattern.indptr,
                  csc_construct_func=_raw_csc, ilu=False,
                  options=dict(_FACTOR_OPTIONS, ColPerm="MMD_AT_PLUS_A"))
    # The parent of column j in the elimination tree is the first row of L
    # below j; pointer jumping then counts each column's ancestors, with n
    # standing for "no parent".
    _, l_rows, l_indptr = probe.L
    cols = np.repeat(np.arange(n), np.diff(l_indptr))
    rows = l_rows[: l_indptr[-1]]
    below = rows > cols
    parent = np.full(n + 1, n)
    np.minimum.at(parent, cols[below], rows[below])
    depth = (parent != n).astype(np.int64)
    depth[n] = 0
    while np.any(parent[:n] != n):
        depth = depth + depth[parent]
        parent = parent[parent]
    # perm_c maps each column to its position, so argsort lists the columns
    # in elimination order.
    order = np.argsort(probe.perm_c)[np.argsort(-depth[:n], kind="stable")]
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    rows = position[np.repeat(np.arange(n), row_len)]
    cols = position[pattern.indices]
    source = np.argsort(cols * n + rows, kind="stable")
    indices = rows[source].astype(np.int32)
    indptr = np.searchsorted(cols[source], np.arange(n + 1)).astype(np.int32)
    plan = FactorPlan(
        order=order,
        indptr=indptr,
        indices=indices,
        source=source,
        diagonal=np.flatnonzero(indices == np.repeat(np.arange(n), np.diff(indptr))),
    )
    for arr in vars(plan).values():
        arr.setflags(write=False)
    return plan


def shifted_factor(plan: FactorPlan, h_data: np.ndarray, sigma: float):
    """SuperLU's LDL^H of sigma I + H if it proves it positive definite, else None.

    B = sigma I + H in the plan's order is factored with no column ordering
    and with every pivot taken on the diagonal when it is nonzero
    (DiagPivotThresh = 0, SymmetricMode).  When the row and column
    permutations agree the factor is L D L^H with D the diagonal of U, and by
    Sylvester's law of inertia D has as many negative entries as
    sigma I + H has eigenvalues below zero.  So a factor whose pivots are all
    diagonal and positive proves sigma > lambda_max(-H); an exactly singular
    matrix, an off-diagonal pivot or a pivot that is not positive returns
    None.  The factor's solve works in the plan's order.
    """
    data = plan.shifted_data(h_data, sigma)
    n = plan.order.size
    try:
        lu = gstrf(n, data.size, data, plan.indices, plan.indptr,
                   csc_construct_func=_raw_csc, ilu=False, options=_FACTOR_OPTIONS)
    except RuntimeError:   # exactly singular
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    # scipy writes each column of U with its diagonal entry last (the
    # supernode's rows come after the rows above it); a factor whose arrays
    # are laid out otherwise proves nothing.
    u_data, u_rows, u_indptr = lu.U
    last = u_indptr[1:] - 1
    if not np.array_equal(u_rows[last], np.arange(n)) or not np.all(u_data[last].real > 0):
        return None
    return lu


# A shift is sigma = mu + margin, with mu the start vector's Rayleigh
# quotient on -H.  Temple's inequality (Parlett, The Symmetric Eigenvalue
# Problem, SIAM 1998) bounds lambda_max(-H) - mu by ||r||^2 / (mu - lambda_2)
# for the start's residual r, and the previous call's Temple quotient g (see
# EigenResult) stands in for the unknown gap: the first margin tried is
# TEMPLE_SAFETY ||r||^2 / g, at least SHIFT_FLOOR (1 + |mu|) and at most
# SHIFT_MARGIN (1 + |mu|).  A factor that is not positive definite there falls
# back to SHIFT_MARGIN (1 + |mu|), and from there the margin grows by
# SHIFT_RAISE until one is.  A call with no quotient (the first of a run)
# takes g = SHIFT_MARGIN (1 + |mu|).  A shift closer to the top takes Lanczos
# on the shifted inverse there in fewer solves.  Summed solves per run, the
# fixed margin against this rule, at 1 BLAS thread: k=20 infeasible 206 ->
# 156, k=30 feasible 136 -> 108, planted deep feeders of 181 / 500 / 1,000 /
# 2,000 buses (synth_radial(n, seed=3) with DENSE_MAX_DIM's RadialParams)
# 185 / 369 / 521 / 1,008 -> 134 / 229 / 311 / 547, with the same iterations
# and factor attempts everywhere but k=50 feasible (one more factor).  Safety
# 4 takes k=20, k=30, k=50 feasible, deep 181 and deep 500 to 144, 104, 123,
# 123 and 217 solves, but against the fixed margin it adds a factor on k=30
# and deep 500 and two on k=50; 64 takes them to 162, 115, 130, 145 and 252;
# 1, to 157, 105, 118, 146 and 275 with 6 to 22 more factors each than at
# 16.  Floors of 1e-10 and 1e-6 change k=20, k=30 and deep 500 by 0, 0 and 0
# and by 0, +1 and +3 solves: the floor seldom binds, and it stays far above
# the roundoff eps ||H|| at which a computed inertia could flip.  A fixed
# SHIFT_MARGIN of 0.001 instead cut k=30's solves only to 115 and raised its
# factors from 20 to 36.
SHIFT_MARGIN = 0.01
SHIFT_RAISE = 4.0
TEMPLE_SAFETY = 16.0
SHIFT_FLOOR = 1e-8


def _gershgorin_top(H: sp.csr_matrix, diag: np.ndarray) -> float:
    """Gershgorin's upper bound on lambda_max(-H) (every row holds its diagonal)."""
    row_sums = np.add.reduceat(np.abs(H.data), H.indptr[:-1])
    return float((row_sums - np.abs(diag) - diag).max())


def _rayleigh(H: sp.csr_matrix, vec: np.ndarray):
    """(mu, ||r||^2) of vec on -H, from one product with H.

    mu is the Rayleigh quotient of s = vec / ||vec||, at most
    lambda_max(-H), and r = H s + mu s is its residual, up to sign.
    """
    s = vec / _norm(vec)
    r = H @ s
    mu = -float(np.vdot(s, r).real)
    r += np.multiply(s, mu, out=s)
    return mu, float(np.vdot(r, r).real)


def _warm_shift(plan: FactorPlan, H: sp.csr_matrix, mu: float, rr: float,
                quotient: float):
    """(sigma, factor, attempts) for a start with Rayleigh quotient mu, ||r||^2 rr.

    With b = SHIFT_MARGIN (1 + |mu|) and g the previous call's Temple quotient
    (b when it is NaN or not positive), sigma starts at
    mu + min(b, max(TEMPLE_SAFETY rr / g, SHIFT_FLOOR (1 + |mu|))).  A shift
    whose factor is not positive definite moves to mu + b when it was below
    it, else its margin grows SHIFT_RAISE-fold, so a guess that fails costs
    one factor.  Past Gershgorin's bound every shift must pass, so a failure
    there, or a NaN, raises EigenFailure.  attempts counts the factors.
    """
    margin = SHIFT_MARGIN * (1.0 + abs(mu))
    gap = quotient if quotient > 0.0 else margin
    step = min(margin, max(TEMPLE_SAFETY * rr / gap, SHIFT_FLOOR * (1.0 + abs(mu))))
    top = None
    attempts = 0
    while True:
        sigma = mu + step
        attempts += 1
        lu = shifted_factor(plan, H.data, sigma)
        if lu is not None:
            return sigma, lu, attempts
        if top is None:
            top = _gershgorin_top(H, H.diagonal().real)
        if not sigma <= top:   # NaN included
            raise EigenFailure(f"no positive definite factor at shift {sigma:.3e}"
                               f" above the Gershgorin bound {top:.3e}")
        step = margin if step < margin else step * SHIFT_RAISE


def leading_eigenpair(
    problem: PenaltyObjective,
    x: np.ndarray,
    rng: np.random.Generator,
    tol: float = 1e-9,
    start: np.ndarray | None = None,
    quotient: float = math.nan,
) -> EigenResult:
    """lambda_max(-H(x)) with eigenvector; the matrix size picks the path.

    Up to DENSE_MAX_DIM, H's values are scattered into a dense -H for
    dense_extreme, with no sparse matrix built, and start and quotient are
    not used.  Above it the sparse H is assembled and _warm_shift brackets a
    shift sigma > lambda_max(-H) by inertia alone, from start or, with none,
    from the all-ones vector, and from quotient, the previous call's Temple
    quotient (NaN for none).  The positive definite factor of sigma I + H
    that proves it also gives the solves, and Lanczos finds the top eigenpair
    (theta, v) of (sigma I + H)^-1, started from the same vector.  Then
    lambda = sigma - 1 / theta, and the residual tol bounds is that of the
    forward operator sigma I + H, ||(sigma I + H) v - v / theta|| =
    ||H v + lambda v||, -H's own.  matvecs counts the solves, and the factor
    makes no others; factors counts the factor attempts, and quotient is
    this call's Temple quotient, for the next call.  An EigenFailure
    propagates.
    """
    if problem.dim <= DENSE_MAX_DIM:
        return dense_extreme(problem.pattern.negated_dense(dual_data(problem, x)))
    H = dual_matrix(problem, x)
    plan = problem.pattern.factor_plan
    dim = problem.dim
    start = np.ones(dim, dtype=complex) if start is None else np.asarray(start, dtype=complex)
    mu, rr = _rayleigh(H, start)
    sigma, lu, factors = _warm_shift(plan, H, mu, rr, quotient)
    order = plan.order

    def solve(vec):
        out = np.empty(dim, dtype=complex)
        out[order] = lu.solve(vec[order])
        return out

    def forward(vec):
        out = H @ vec
        out += sigma * vec
        return out

    inverse = lanczos_extreme(solve, dim, rng, forward=forward, start=start, tol=tol)
    value = sigma - 1.0 / inverse.value
    above = value - mu
    return replace(inverse, value=value, factors=factors,
                   quotient=rr / above if above > 0.0 else math.nan)


# ---------------------------------------------------------------------------
# penalized objective


def penalty_value(problem: PenaltyObjective, x: np.ndarray, eig: EigenResult):
    """(f, f_lambda): penalized value with and without the positive part."""
    linear = float(problem.fixed_slope @ x)
    f_lambda = linear + problem.alpha * eig.value
    f = linear + problem.alpha * max(eig.value, 0.0)
    return f, f_lambda


def penalty_subgradient(problem: PenaltyObjective, eig: EigenResult) -> np.ndarray:
    """Flat subgradient slope of the unclipped penalized objective.

    The slope is the linear part minus alpha times the capacity map applied to
    the eigenvector's rank-one matrix.
    """
    v = eig.vector
    a_q = apply_constraint_rank1(problem, v)
    q_block = np.outer(v[:3], v[:3].conj())
    y_slope = -problem.m_vec - problem.alpha * a_q
    gamma_slope = svec3(problem.M1 - problem.alpha * q_block)
    return np.concatenate([y_slope, gamma_slope])

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
evaluation: the top two eigenpairs by a dense LAPACK solve for small H, whose
values go straight into a dense array with no sparse matrix built, and
restarted Lanczos for large H; both return an EigenResult.  Lanczos can start
from the previous evaluation's eigenvector, blended with a small seeded random
vector, and ends a cycle as soon as the Ritz estimate of the top pair is below
the tolerance.  A Lanczos step costs its product with -H (scipy's CSR kernel,
called directly) and the Gram-Schmidt products with the basis; the rest of
the step works in place, and every BLAS call goes through numpy's thread
pool.  The dense solve's residual calls no BLAS, so nothing waits for scipy's
pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dstebz, dstein, zheevr

# The one private scipy kernel used: the CSR product that H.dot ends in.
# Called directly, it skips scipy's dispatch, a fifth of a product at
# Lanczos sizes: 21 against 17 us per product at dim 813 (7,299 nonzeros,
# 2-core host).  If scipy moves it, this import fails and the test suite
# with it.
from scipy.sparse._sparsetools import csr_matvec

from .network import OperatingLimits, ThreePhaseNetwork, _csc_arrays, assemble_admittance

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

    The pattern is the sorted union of Y's nonzeros, their transposes, the
    diagonal and the 3x3 slack corner.  transpose[k] is the position of the
    mirror entry of position k; diagonal and corner hold the positions of
    the diagonal (in row order) and of the corner (row-major); dense holds
    each position's index into a row-major dim x dim array; yh_data holds
    Y^H's values on the pattern.  The arrays are read-only, since every H
    shares indptr and indices.
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


def dual_pattern(Y: sp.csr_matrix) -> DualPattern:
    """The pattern of H for a square CSR admittance matrix Y.

    Keys are row * n + col.  Y's nonzeros arrive in CSR order and their
    mirrors are sorted once, so the stable sort of all keys merges sorted
    runs.  The pattern is symmetric: listed column by column it is its own
    transpose listed row by row, so scipy's CSR-to-CSC kernel run on the
    positions 0, 1, ... as data names each position's mirror.
    """
    n = Y.shape[0]
    keep = Y.data != 0
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(Y.indptr))[keep]
    cols = Y.indices[keep].astype(np.int64)
    y_keys = rows * n + cols
    diag_keys = np.arange(n, dtype=np.int64) * (n + 1)
    corner_keys = (np.arange(3)[:, None] * n + np.arange(3)).ravel()
    keys = np.sort(
        np.concatenate([y_keys, np.sort(cols * n + rows), diag_keys, corner_keys]),
        kind="stable",
    )
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    key_rows, key_cols = np.divmod(keys, n)
    indptr = np.searchsorted(key_rows, np.arange(n + 1)).astype(np.int32)
    indices = key_cols.astype(np.int32)
    transpose = _csc_arrays((n, n), indptr, indices, np.arange(keys.size))[2]
    y_data = np.zeros(keys.size, dtype=complex)
    y_data[np.searchsorted(keys, y_keys)] = Y.data[keep]
    pattern = DualPattern(
        indptr=indptr,
        indices=indices,
        transpose=transpose,
        diagonal=np.searchsorted(keys, diag_keys),
        corner=np.searchsorted(keys, corner_keys),
        dense=keys,
        yh_data=np.conj(y_data[transpose]),
    )
    for arr in vars(pattern).values():
        arr.setflags(write=False)
    return pattern


@dataclass(frozen=True, eq=False)
class PenaltyObjective:
    """Immutable problem data for the penalized dual objective.

    C is the Hermitian part of Y, stored on H's pattern.  alpha (the limit
    rule) and beta (the default box) hold until bundle.init_state sets the
    run's own.
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

    @property
    def n_flat(self) -> int:
        return 18 * self.n_buses + 9

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

    The problem shares the network's read-only admittance matrix.
    """
    network.validate()
    limits.validate(network.n_buses)
    u = np.asarray(u, dtype=float)
    if u.shape != (3 * network.n_buses,):
        raise ValueError(f"injection has shape {u.shape}, expected ({3 * network.n_buses},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("injection contains non-finite entries")
    Y = assemble_admittance(network)
    pattern = dual_pattern(Y)
    yh_data = pattern.yh_data
    C = pattern.matrix(0.5 * (np.conj(yh_data[pattern.transpose]) + yh_data))
    v1 = network.slack_voltage
    alpha = 2.0 * float(limits.v_upper.sum())
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return PenaltyObjective(
        n_buses=network.n_buses,
        Y=Y,
        pattern=pattern,
        C=C,
        m_vec=limit_offset_vector(u, limits),
        slack_voltage=v1,
        M1=np.outer(v1, v1.conj()),
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
    explicitly recomputed ||(-H) v - value * v||; value2 is the next
    eigenvalue (a separation diagnostic): exact on the dense path, a Ritz
    value on the Lanczos path; matvecs counts Lanczos operator applications
    (0 on the dense path).
    """

    value: float
    vector: np.ndarray = field(repr=False)
    residual: float
    value2: float | None = None
    matvecs: int = 0


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
# 1e-2 gave 50, 25, 0, 0 and 0 wrong results.  Matvecs per eigensolve on the
# replicated k=30 feeder at weights 0, 1e-6, 1e-3, 1e-2 and 1e-1: 33.8, 36.8,
# 43.1, 46.3 and 49.8 (61.5 with cold starts), same iterations and f gap.
WARM_BLEND = 1e-3

# Lanczos steps between Ritz-estimate checks inside a cycle.  A check through
# scipy's eigh_tridiagonal cost about as much as a step at dim 813.  The
# Lanczos calls of whole solves replayed at 1, 2, 3, 4, 6 and 8 steps per
# check (best of 5, 2 OpenBLAS threads, 2-core host) took 0.79, 0.63, 0.65,
# 0.60, 0.65 and 0.63 s on the replicated k=30 feeder (41.9 to 44.4 matvecs
# per call) and 1.84, 1.48, 1.31, 1.22, 1.25 and 1.22 s on k=20 infeasible.
# Re-measured with _top_ritz calling LAPACK directly and the adaptive prox
# weight, whole solves at 1, 2, 3, 4 and 6 steps per check (best of 5): k=30
# 0.189, 0.179, 0.173, 0.171 and 0.176 s; k=20 infeasible 0.93, 0.71, 0.69,
# 0.72 and 0.79 s, at 147, 141, 147, 144 and 154 iterations (the schedule
# moves the roundoff there).  Re-measured with the in-place step, replaying
# the Lanczos calls of whole solves at 2, 4, 6 and 8 steps per check (best of
# 5, 2 threads), two replays: k=30 (23 calls) 0.066/0.064, 0.068/0.060,
# 0.079/0.060 and 0.072/0.061 s at 1048, 1072, 1086 and 1124 matvecs; k=20
# infeasible (43 calls) 0.130/0.093, 0.120/0.088, 0.124/0.089 and
# 0.118/0.083 s at 1822, 1860, 1928 and 1888 matvecs.  The settings differ
# by less than the replays do.
RITZ_CHECK_EVERY = 4


def _top_ritz(alphas: np.ndarray, betas: np.ndarray, count: int):
    """The top count eigenvalues (ascending) and the top eigenvector of T.

    LAPACK's bisection (stebz, by index) and inverse iteration (stein) are
    called directly: scipy's eigh_tridiagonal runs the same two and returns
    the same bits, but its Python checks cost more than the LAPACK work at
    these sizes.  Per top-eigenvalue call, wrapper against direct: 27/7,
    35/13, 47/26 and 60/37 us at T sizes 8, 24, 44 and 60 (2-core host).
    """
    used = alphas.size
    if used == 1:
        return alphas, np.ones(1)
    count = min(count, used)
    offdiag = betas[: used - 1]
    m, w, iblock, isplit, info = dstebz(
        alphas, offdiag, 2, 0.0, 1.0, used - count + 1, used, 0.0, b"B"
    )
    if info == 0:
        evecs, info = dstein(alphas, offdiag, w[:m], iblock, isplit)
    if info != 0:
        raise EigenFailure(f"tridiagonal eigensolve failed (LAPACK info {info})")
    # Block order: ascending within each split block of T, not overall.
    order = np.argsort(w[:m])
    return w[order], evecs[:, order[-1]]


# Daniel, Gragg, Kaufman & Stewart (Math. Comp. 1976): one Gram-Schmidt pass
# against the basis is enough unless it shrinks w below this fraction of its
# norm before the pass; then a second pass restores orthogonality.
_DGKS_RATIO = 1.0 / np.sqrt(2.0)


def lanczos_extreme(
    matvec,
    dim: int,
    rng: np.random.Generator,
    tol: float = 1e-9,
    max_krylov: int = 60,
    max_restarts: int = 50,
    start: np.ndarray | None = None,
):
    """Largest eigenpair of a Hermitian operator by restarted Lanczos.

    The first cycle starts from a seeded random unit vector or, given start,
    from start blended with WARM_BLEND of one, which keeps an eigenvector of
    a lower eigenvalue from trapping the iteration.  Every RITZ_CHECK_EVERY
    steps the Ritz estimate |beta_j s_j| of the top Ritz pair is checked, and
    the cycle ends once it is at most tol / 2.  Full reorthogonalization,
    repeated by the DGKS rule, keeps the basis clean; each restart continues
    from the top Ritz vector, and only the explicitly recomputed residual
    decides convergence.

    A step costs its product with the operator and two matrix-vector
    products with the basis (four when DGKS repeats the pass).  Everything
    else is done in place: the three-term update goes through one scratch
    vector, norms are square roots of vdot, and the next basis vector is
    written straight into its row.  matvec must return a new array, which
    the step then overwrites, and must not change its argument, a row of the
    basis.  Every BLAS call goes through numpy: scipy.linalg.blas runs its own
    OpenBLAS thread pool beside numpy's, and a call on one pool right after
    threaded work on the other waits for it.  With scipy's zgemv for the two
    basis products, whole k=30 and k=20 feeder solves ran 2.2 to 3 times
    slower at 2 threads; a scipy zaxpy at dim 12,000, where it threads,
    followed by a numpy product took 8.0 ms against 0.19 ms on one thread.
    Returns an EigenResult whose value2 is the second Ritz value (None
    after a one-step basis); raises EigenFailure if the residual never
    reaches tol.
    """
    m = int(min(dim, max_krylov))
    counter = [0]

    def apply(vec):
        counter[0] += 1
        return matvec(vec)

    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    if start is not None:
        start = np.asarray(start, dtype=complex)
        v = start / np.linalg.norm(start) + WARM_BLEND * v
        v = v / np.linalg.norm(v)
    best_resid = float("inf")
    Q = np.empty((m, dim), dtype=complex)
    scratch = np.empty(dim, dtype=complex)
    alphas = np.empty(m)
    betas = np.empty(m)
    for _ in range(max_restarts + 1):
        Q[0] = v
        used = 0
        for j in range(m):
            q = Q[j]
            w = apply(q)
            alpha = np.vdot(q, w).real
            alphas[j] = alpha
            w -= np.multiply(q, alpha, out=scratch)
            if j > 0:
                w -= np.multiply(Q[j - 1], betas[j - 1], out=scratch)
            # Reorthogonalize against the whole basis; a second pass only
            # when the first cancelled most of w (DGKS).
            basis = Q[: j + 1]
            before = math.sqrt(np.vdot(w, w).real)
            w -= (basis @ w.conj()).conj() @ basis
            beta = math.sqrt(np.vdot(w, w).real)
            if beta < _DGKS_RATIO * before:
                w -= (basis @ w.conj()).conj() @ basis
                beta = math.sqrt(np.vdot(w, w).real)
            used = j + 1
            betas[j] = beta
            if beta < 1e-14 * max(1.0, abs(alpha)):
                break
            if used % RITZ_CHECK_EVERY == 0:
                _, s = _top_ritz(alphas[:used], betas, 1)
                if abs(beta * s[-1]) <= 0.5 * tol:
                    break
            if used < m:
                np.multiply(w, 1.0 / beta, out=Q[used])
        evals, s = _top_ritz(alphas[:used], betas, 2)
        ritz = float(evals[-1])
        ritz2 = float(evals[-2]) if used > 1 else None
        vec = s @ Q[:used]
        vec = vec / np.linalg.norm(vec)
        resid = float(np.linalg.norm(apply(vec) - ritz * vec))
        if resid <= tol:
            return EigenResult(value=ritz, vector=_normalize_phase(vec), residual=resid,
                               value2=ritz2, matvecs=counter[0])
        best_resid = min(best_resid, resid)
        v = vec
    raise EigenFailure(
        f"no convergence after {max_restarts} restarts:"
        f" best residual {best_resid:.3e} (tol {tol:.1e}, dim {dim})"
    )


# Largest dimension solved densely (the top two eigenpairs of -H by LAPACK's
# zheevr); restarted Lanczos above it.  Median ms per eigensolve inside a
# solve (the warm calls after the first, best of 3 solves), warm Lanczos with
# DGKS reorthogonalization / zheevr, 1 (2) OpenBLAS threads on a 2-core host,
# planted synth_radial(n, seed=3, RadialParams(series_min=0.5,
# series_max=1.25, shunt=0.1)) feeders: dim 90 1.8/0.7 (3.3/1.6), 105
# 1.8/0.9 (3.3/2.1), 111 2.2/1.1 (2.2/1.7), 117 3.0/1.8 (3.3/2.5), 120
# 2.2/1.2 (2.4/2.7), 135 2.5/1.7 (3.5/3.7), 150 2.6/1.9 (2.4/4.0), 180
# 2.7/3.0 (2.5/6.0), 210 3.3/5.0 (4.3/10.1).  A repeat at 2 threads read
# 117 2.7/2.6, 120 3.6/5.9 and 135 2.5/3.0.  With 2 threads, as the
# benchmark runs, dense stops winning at about 120; with 1 thread it wins up
# to about 165.  On random Hermitian matrices (1 thread, best of 5) the whole
# spectrum by np.linalg.eigh took 0.17 ms at dim 30 and 3.8 ms at dim 117,
# the top two by zheevr 0.09 and 1.6 ms.
# Re-measured with the in-place Lanczos step, the same feeders, each warm call
# timed on both paths (best of 3, alternating), median ms, Lanczos/dense, 1
# thread: 90 1.32/0.60, 105 1.57/0.88, 111 1.44/0.96, 117 1.69/1.07, 120
# 1.40/1.03, 135 1.57/1.44, 150 1.64/1.86, 180 1.87/2.97; dense now wins to
# about 140.  2 threads: 90 2.16/5.67, 105 1.46/4.92, 111 1.86/4.80, 117
# 2.57/5.29, 120 2.43/5.09, 135 1.89/5.53, 150 2.91/5.22, 180 3.12/13.70:
# Lanczos wins everywhere, because from dim 66 on zheevr threads on scipy's
# OpenBLAS pool and the residual's product on numpy's pool right after it
# waits about 7 ms.  With the residual's product taken by einsum, which calls
# no BLAS, a dense call on random Hermitian matrices (best of 5 x 50 calls,
# 2 threads) takes 1.19 ms at dim 90 (9.60 with the BLAS product, 1.20 for
# zheevr alone) and 2.32 ms at dim 117 (8.09; 2.21), and about 3.5 us more
# at dim 30 (0.10 ms).  The crossover has not been re-measured since.
DENSE_MAX_DIM = 117


def dense_extreme(mat: np.ndarray) -> EigenResult:
    """The top two eigenpairs of a dense Hermitian matrix by LAPACK's zheevr.

    Only the top two are computed, by index; LAPACK returns them ascending.
    The residual's product is einsum's, not BLAS's: zheevr runs on scipy's
    OpenBLAS pool, and a threaded product on numpy's pool right after it
    waits for those threads (see DENSE_MAX_DIM).
    """
    dim = mat.shape[0]
    w, z, _, _, info = zheevr(mat, range="I", il=dim - 1, iu=dim)
    if info != 0:
        raise EigenFailure(f"dense eigensolve failed (LAPACK info {info})")
    vec = _normalize_phase(np.ascontiguousarray(z[:, 1]))
    value = float(w[1])
    resid = float(np.linalg.norm(np.einsum("ij,j->i", mat, vec) - value * vec))
    return EigenResult(value=value, vector=vec, residual=resid, value2=float(w[0]))


def leading_eigenpair(
    problem: PenaltyObjective,
    x: np.ndarray,
    rng: np.random.Generator,
    tol: float = 1e-9,
    max_krylov: int = 60,
    max_restarts: int = 50,
    start: np.ndarray | None = None,
) -> EigenResult:
    """lambda_max(-H(x)) with eigenvector; the matrix size picks the path.

    H's values are computed once and negated once.  Up to DENSE_MAX_DIM they
    are scattered into a dense -H for dense_extreme, with no sparse matrix
    built, and start is not used.  Above that the sparse H is assembled and
    negated in place, and Lanczos, warm-started from start when one is
    given, applies it through matvecs only: each is scipy's CSR kernel on
    -H's arrays into a new zero vector, the routine H.dot ends in, called
    without its dispatch.  An EigenFailure propagates.
    """
    if problem.dim <= DENSE_MAX_DIM:
        return dense_extreme(problem.pattern.negated_dense(dual_data(problem, x)))
    neg = dual_matrix(problem, x)
    np.negative(neg.data, out=neg.data)
    dim = problem.dim
    indptr, indices, data = neg.indptr, neg.indices, neg.data

    def product(vec):
        out = np.zeros(dim, dtype=complex)
        csr_matvec(dim, dim, indptr, indices, data, vec, out)
        return out

    return lanczos_extreme(
        product, dim, rng,
        tol=tol, max_krylov=max_krylov, max_restarts=max_restarts, start=start,
    )


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

"""Slow, independent reference implementations used for cross-checking.

Everything here recomputes quantities from definitions with dense linear
algebra or bisection, sharing no numerical kernels with the production path
beyond elementary arithmetic.  These routines back the test suite and the
interior-case fallback of the proximal subproblem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import PenaltyObjective, DualPoint, smat3, svec3


def dense_lambda_max(mat: np.ndarray):
    """Largest eigenpair of a dense Hermitian matrix.

    The eigenvector phase is fixed by making its largest-magnitude entry real
    and positive, so repeated calls agree entrywise.
    """
    evals, evecs = np.linalg.eigh(mat)
    vec = np.ascontiguousarray(evecs[:, -1])
    k = int(np.argmax(np.abs(vec)))
    pivot = vec[k]
    if np.abs(pivot) > 0:
        vec = vec * (np.conj(pivot) / np.abs(pivot))
    return float(evals[-1]), vec


def dense_apply_constraint(W: np.ndarray, Y_dense: np.ndarray) -> np.ndarray:
    """Capacity map on a dense Hermitian W, straight from the definition."""
    s = np.sum(W * np.conj(Y_dense), axis=1)   # diag(W Y^H)
    d = np.real(np.diag(W))
    return np.concatenate([s.real, -s.real, s.imag, -s.imag, d, -d])


def hermitian_basis(dim: int):
    """Orthonormal basis of Hermitian dim x dim matrices under trace(A B).

    A generator: one dim x dim matrix at a time, so a caller that consumes
    them in turn holds O(dim^2) memory, not the O(dim^4) of the whole basis.
    """
    for i in range(dim):
        mat = np.zeros((dim, dim), dtype=complex)
        mat[i, i] = 1.0
        yield mat
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            mat = np.zeros((dim, dim), dtype=complex)
            mat[i, j] = inv_sqrt2
            mat[j, i] = inv_sqrt2
            yield mat
    for i in range(dim):
        for j in range(i + 1, dim):
            mat = np.zeros((dim, dim), dtype=complex)
            mat[i, j] = 1j * inv_sqrt2
            mat[j, i] = -1j * inv_sqrt2
            yield mat


def dense_constraint_matrix(Y_dense: np.ndarray) -> np.ndarray:
    """Real matrix of the capacity map over the Hermitian basis, column by column."""
    dim = Y_dense.shape[0]
    cols = [dense_apply_constraint(b, Y_dense) for b in hermitian_basis(dim)]
    return np.column_stack(cols)


def dense_dual_matrix(problem: PenaltyObjective, x: DualPoint) -> np.ndarray:
    """Dense H(x) assembled through the basis representation of the adjoint.

    The adjoint at y is reconstructed as sum_m (y . A(B_m)) B_m over the
    orthonormal Hermitian basis, which only ever evaluates the forward map.
    The basis is streamed, one element added at a time, so memory stays
    O(dim^2).
    """
    Yd = problem.Y.toarray()
    H = 0.5 * (Yd + Yd.conj().T)
    for b in hermitian_basis(Yd.shape[0]):
        c = float(x.y @ dense_apply_constraint(b, Yd))
        if c != 0.0:
            H += c * b
    H[:3, :3] += x.gamma
    return H


def dense_penalty_value(problem: PenaltyObjective, x: DualPoint):
    """(f, f_lambda, lambda) recomputed densely from definitions."""
    H = dense_dual_matrix(problem, x)
    lam, _ = dense_lambda_max(-H)
    linear = float(-problem.m_vec @ x.y + np.real(np.trace(x.gamma @ problem.M1)))
    return linear + problem.alpha * max(lam, 0.0), linear + problem.alpha * lam, lam


# ---------------------------------------------------------------------------
# proximal subproblem by support enumeration


@dataclass(frozen=True)
class OracleProx:
    """Reference solution of the three-cut proximal subproblem."""

    z: np.ndarray = field(repr=False)
    theta: np.ndarray
    objective: float
    support: tuple


def _clip_box(w: np.ndarray, beta: float, n_box: int) -> np.ndarray:
    out = w.copy()
    np.clip(out[:n_box], 0.0, beta, out=out[:n_box])
    return out


def qp_support_enumeration(
    center: np.ndarray,
    intercepts: np.ndarray,
    slopes: np.ndarray,
    rho: float,
    beta: float,
    n_box: int,
    bisect_iters: int = 60,
) -> OracleProx:
    """Exact solve of min over the box of max-of-three-cuts plus a prox term.

    Works on the concave dual over the weight simplex: every support is
    enumerated, equal-height conditions are solved by bisection (nested for
    the full support), and the best dual value wins.  Derivative-free and
    independent of the production case logic.
    """
    a = np.asarray(intercepts, dtype=float)
    S = np.asarray(slopes, dtype=float)

    def state(theta):
        h = S.T @ theta
        w = center - h / rho
        z = _clip_box(w, beta, n_box)
        vals = a + S @ z
        diff = z - center
        q = float(theta @ a + h @ z + 0.5 * rho * (diff @ diff))
        return z, vals, q

    candidates = []

    def add(theta, support):
        theta = np.clip(theta, 0.0, 1.0)
        total = theta.sum()
        if total > 0:
            theta = theta / total
        _, _, q = state(theta)
        candidates.append((q, theta, support))

    for i in range(3):
        theta = np.zeros(3)
        theta[i] = 1.0
        add(theta, (i,))

    def edge_theta(i, j, s):
        theta = np.zeros(3)
        theta[i] = s
        theta[j] = 1.0 - s
        return theta

    def edge_gap(i, j, s):
        _, vals, _ = state(edge_theta(i, j, s))
        return vals[i] - vals[j]

    for i, j in ((0, 1), (0, 2), (1, 2)):
        lo, hi = 0.0, 1.0
        glo = edge_gap(i, j, lo)
        ghi = edge_gap(i, j, hi)
        if glo < 0.0 or ghi > 0.0:
            continue  # edge optimum sits at a vertex, already enumerated
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            if edge_gap(i, j, mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        add(edge_theta(i, j, 0.5 * (lo + hi)), (i, j))

    def full_theta(lam, mu):
        return np.array([mu * lam, mu * (1.0 - lam), 1.0 - mu])

    def pair_gap(lam, mu):
        _, vals, _ = state(full_theta(lam, mu))
        return vals[0] - vals[1]

    def inner_lam(mu):
        if pair_gap(0.0, mu) <= 0.0:
            return 0.0
        if pair_gap(1.0, mu) >= 0.0:
            return 1.0
        lo, hi = 0.0, 1.0
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            if pair_gap(mid, mu) >= 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def slice_slope(mu):
        lam = inner_lam(mu)
        _, vals, _ = state(full_theta(lam, mu))
        return lam * (vals[0] - vals[2]) + (1.0 - lam) * (vals[1] - vals[2]), lam

    d0, _ = slice_slope(0.0)
    d1, _ = slice_slope(1.0)
    if d0 <= 0.0:
        mu_star, lam_star = 0.0, inner_lam(0.0)
    elif d1 >= 0.0:
        mu_star, lam_star = 1.0, inner_lam(1.0)
    else:
        lo, hi = 0.0, 1.0
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            dmid, _ = slice_slope(mid)
            if dmid >= 0.0:
                lo = mid
            else:
                hi = mid
        mu_star = 0.5 * (lo + hi)
        lam_star = inner_lam(mu_star)
    add(full_theta(lam_star, mu_star), (0, 1, 2))

    best_q, best_theta, _ = max(candidates, key=lambda item: item[0])
    z, vals, _ = state(best_theta)
    diff = z - center
    objective = float(vals.max() + 0.5 * rho * (diff @ diff))
    support = tuple(int(i) for i in range(3) if best_theta[i] > 1e-12)
    return OracleProx(z=z, theta=best_theta, objective=objective, support=support)


# ---------------------------------------------------------------------------
# projected subgradient reference


@dataclass(frozen=True)
class ReferenceRun:
    best_flat: np.ndarray = field(repr=False)
    best_value: float
    final_value: float
    iterations: int


def projected_subgradient_reference(
    problem: PenaltyObjective, iterations: int = 100_000, step0: float = 0.02
) -> ReferenceRun:
    """Minimize the penalized dual by projected subgradient, tracking the best.

    Steps decay as step0 / sqrt(t).  Dense eigendecompositions throughout; no
    accuracy guarantee, only an upper bound on the optimal value.  The run is
    deterministic: no randomness enters.
    """
    Yd = problem.Y.toarray()
    Yh = Yd.conj().T
    C = 0.5 * (Yd + Yh)
    n = problem.n_buses
    m3 = 3 * n
    n_box = problem.n_box
    mvec = problem.m_vec
    alpha = problem.alpha
    fixed = np.concatenate([-mvec, svec3(problem.M1)])

    def value_and_slope(flat):
        y = flat[:n_box]
        gamma = smat3(flat[n_box:])
        w = (y[0:m3] - y[m3 : 2 * m3]) + 1j * (y[2 * m3 : 3 * m3] - y[3 * m3 : 4 * m3])
        c = y[4 * m3 : 5 * m3] - y[5 * m3 : 6 * m3]
        H = C + 0.5 * (Yh * np.conj(w)[np.newaxis, :] + w[:, np.newaxis] * Yd)
        H[np.arange(m3), np.arange(m3)] += c
        H[:3, :3] += gamma
        evals, evecs = np.linalg.eigh(H)
        lam = -float(evals[0])     # largest eigenvalue of -H
        linear = float(fixed @ flat)
        f = linear + alpha * max(lam, 0.0)
        if lam <= 0.0:
            return f, fixed
        v = np.ascontiguousarray(evecs[:, 0])
        s = v * np.conj(Yd @ v)
        d = (v.real * v.real) + (v.imag * v.imag)
        a_q = np.concatenate([s.real, -s.real, s.imag, -s.imag, d, -d])
        q_block = np.outer(v[:3], v[:3].conj())
        slope = np.concatenate(
            [-mvec - alpha * a_q, svec3(problem.M1 - alpha * q_block)]
        )
        return f, slope

    flat = np.concatenate([np.full(n_box, 0.5 * problem.beta), np.zeros(9)])
    best_flat = flat.copy()
    best_value, _ = value_and_slope(flat)
    value = best_value
    for t in range(1, iterations + 1):
        value, slope = value_and_slope(flat)
        if value < best_value:
            best_value = value
            best_flat = flat.copy()
        flat = flat - (step0 / np.sqrt(t)) * slope
        np.clip(flat[:n_box], 0.0, problem.beta, out=flat[:n_box])
    return ReferenceRun(
        best_flat=best_flat,
        best_value=float(best_value),
        final_value=float(value),
        iterations=iterations,
    )

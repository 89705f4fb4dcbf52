"""Proximal step over a three-cut model: active-set Newton on the cut weights.

The subproblem minimizes the max of three affine cuts plus a quadratic
anchored at the current center c, over a box on the multiplier part (the
Hermitian tail is unconstrained).  Its dual over the weight simplex,

    psi(theta) = theta . (a + S z) + rho / 2 |z - c|^2,  z = P(c - S^T theta / rho),

is concave, continuously differentiable and piecewise quadratic; its gradient
a + S z is the cut values at z.  While no box coordinate of c - S^T theta / rho
crosses a bound, psi is the quadratic with Hessian -S_F S_F^T / rho over the
free coordinates F, so a Newton step maximises that quadratic over the
simplex in closed form and is exact once the pattern is the optimal one: the
active-set dual method of Kiwiel (IMA J. Numer. Anal. 1986), and the Newton
method of Cominetti, Mascarenhas & Silva (Math. Prog. Comp. 2014) for clipped
piecewise-quadratic duals.  Each evaluation of psi is one projection and two
3 x n products.  The support-enumeration oracle is only a safety net for a
solve that does not settle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oracle import qp_support_enumeration

# Support-acceptance slack of the Newton step, relative to the cut-value
# scale; also the roundoff by which psi may fall on an accepted step.  Loose
# acceptance bleeds straight into the model decrease and caps the reachable
# accuracy, so this sits near roundoff; a support that misses it only loses
# to the candidate with the smallest KKT residual.
_CASE_TOL = 1e-12

# KKT residual above which the solve hands over to the enumeration oracle.
# The settled Newton solve lands near roundoff, far below this.
_KKT_TOL = 1e-10

# Evaluations of psi before the solve hands over to the oracle.  Whole
# solves on planted feeders (base seeds 0-39 replicated 5 and 15 times, and
# at start weights 0.05 and 100) settle in 2.6 on average, at most 27; the
# cap bounds the cost where the models stay rank-deficient from step to step
# (no free tail and a box clamped almost everywhere).
_MAX_EVALS = 40

_CASES = {1: "vertex", 2: "edge", 3: "interior"}
_VERTICES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class ProxSolution:
    z: np.ndarray = field(repr=False)
    theta: np.ndarray
    case_used: str
    kkt_residual: float
    objective: float
    diagnostics: dict = field(default_factory=dict)


def project_box(flat: np.ndarray, beta: float, n_box: int) -> np.ndarray:
    """Clip the multiplier part into [0, beta]; the Hermitian tail is free."""
    out = np.array(flat, dtype=float, copy=True)
    np.clip(out[:n_box], 0.0, beta, out=out[:n_box])
    return out


def newton_step(vals, G, theta, rho):
    """Maximiser over the simplex of psi's quadratic model at theta.

    vals is psi's gradient at theta and G = S_F S_F^T, so the model's gradient
    at weights t is m(t) = vals - G (t - theta) / rho, affine in t.  Returns
    the first weights (a tuple) among theta itself, the vertices, the edges
    and the full support whose KKT residual, max m(t) less the least m(t) on
    the support of t, is within roundoff of the cut values; the edge and
    full-support weights solve m_i = m_j on their support and must be
    positive.  Failing that, the candidate with the smallest residual.
    theta itself is checked on m(theta) = vals, its own cut values, so it
    passes when it already is a KKT point of psi.
    """
    q = G / rho
    # Row j: the model's gradient at vertex e_j (q is symmetric).
    mv = (vals + q @ theta - q).tolist()
    best, best_res = None, np.inf

    def settles(t, m=None):
        nonlocal best, best_res
        if m is None:
            m = [t[0] * mv[0][k] + t[1] * mv[1][k] + t[2] * mv[2][k] for k in range(3)]
        top = max(m)
        res = top - min(m[k] for k in range(3) if t[k] > 0.0)
        if res < best_res:
            best, best_res = t, res
        return res <= _CASE_TOL * (1.0 + abs(top))

    if settles(tuple(theta.tolist()), vals.tolist()) or any(map(settles, _VERTICES, mv)):
        return best
    q = q.tolist()
    for i, j in ((0, 1), (0, 2), (1, 2)):
        # m_i - m_j falls linearly from cut j's vertex to cut i's.
        curv = q[i][i] - 2.0 * q[i][j] + q[j][j]
        s = (mv[j][i] - mv[j][j]) / curv if curv > 0.0 else 0.0
        if 0.0 < s < 1.0:
            t = [0.0, 0.0, 0.0]
            t[i], t[j] = s, 1.0 - s
            if settles(tuple(t)):
                return best
    # All three: t = e2 + x0 (e0 - e2) + x1 (e1 - e2) with m0 = m1 = m2.
    m00 = q[0][0] - 2.0 * q[0][2] + q[2][2]
    m11 = q[1][1] - 2.0 * q[1][2] + q[2][2]
    m01 = q[0][1] - q[0][2] - q[1][2] + q[2][2]
    det = m00 * m11 - m01 * m01
    if det > 1e-14 * m00 * m11:
        r0, r1 = mv[2][0] - mv[2][2], mv[2][1] - mv[2][2]
        x0 = (m11 * r0 - m01 * r1) / det
        x1 = (m00 * r1 - m01 * r0) / det
        t = (x0, x1, 1.0 - x0 - x1)
        if min(t) > 0.0:
            settles(t)
    return best


def _evaluate(theta, center, a, S, rho, beta, n_box):
    """(pattern, z, cut values at z, psi) at weights theta.

    z = P(w), w = center - S^T theta / rho, and pattern codes each box
    coordinate of w as 0 on or below the box, 1 inside it, 2 on or above it.
    """
    z = center - (S.T @ theta) / rho
    box = z[:n_box]
    pattern = np.add(box > 0.0, box >= beta, dtype=np.int8)
    np.clip(box, 0.0, beta, out=box)
    vals = a + S @ z
    diff = z - center
    return pattern, z, vals, float(theta @ vals) + 0.5 * rho * float(diff @ diff)


def solve_prox(
    center: np.ndarray,
    a: np.ndarray,
    S: np.ndarray,
    rho: float,
    beta: float,
    n_box: int,
) -> ProxSolution:
    """Solve the three-cut proximal subproblem exactly.

    Args:
        center: flat anchor point of the quadratic term.
        a: (3,) cut intercepts.
        S: (3, n) cut slopes, one row per cut (ties keep the start, then the
            lower row).
        rho: prox weight.
        beta: multiplier box upper bound.
        n_box: number of leading box-constrained coordinates.

    Starts at the aggregate cut's weights e2, whose prox point is the previous
    candidate when the center and the weight have not moved.  Each step takes
    the free coordinates at theta, maximises psi's quadratic model there
    (newton_step) and halves the step until psi does not fall.  The solve
    settles when a full step keeps the clamp pattern: z is then exactly
    P(center - S^T theta / rho) at a KKT point.  A solve that has not settled
    after _MAX_EVALS evaluations of psi, or whose KKT residual is above
    _KKT_TOL, goes to the enumeration oracle.

    Returns a ProxSolution whose case_used names the size of the support
    (vertex, edge, interior) or fallback, and whose diagnostics record the
    support and the number of psi evaluations.
    """
    tail = S[:, n_box:]
    G_tail = tail @ tail.T        # the tail never clamps
    theta = np.array([0.0, 0.0, 1.0])
    pattern, z, vals, psi = _evaluate(theta, center, a, S, rho, beta, n_box)
    evals, step, settled = 1, 1.0, False
    while not settled and evals < _MAX_EVALS:
        if step == 1.0:
            free = S.take(np.flatnonzero(pattern == 1), axis=1)
            target = np.array(newton_step(vals, free @ free.T + G_tail, theta, rho))
            if (target == theta).all():
                settled = True
                break
        trial = target if step == 1.0 else theta + step * (target - theta)
        t_pattern, t_z, t_vals, t_psi = _evaluate(trial, center, a, S, rho, beta, n_box)
        evals += 1
        if t_psi < psi - _CASE_TOL * (1.0 + abs(psi)):
            step *= 0.5
            continue
        settled = step == 1.0 and (pattern == t_pattern).all()
        theta, pattern, z, vals, psi, step = trial, t_pattern, t_z, t_vals, t_psi, 1.0
    support = tuple(i for i in range(3) if theta[i] > 0.0)
    sol = _finish(center, rho, z, vals, theta, _CASES[len(support)],
                  support=support, evals=evals)
    if settled and sol.kkt_residual <= _KKT_TOL:
        return sol
    ref = qp_support_enumeration(center, a, S, rho, beta, n_box)
    zhat = project_box(center - (S.T @ ref.theta) / rho, beta, n_box)
    return _finish(center, rho, ref.z, a + S @ ref.z, ref.theta, "fallback",
                   proj_err=float(np.abs(ref.z - zhat).max()),
                   support=ref.support, evals=evals, newton_kkt=sol.kkt_residual)


def _finish(center, rho, z, vals, theta, case, proj_err=0.0, **extra):
    """The solution with its KKT residual and objective; vals = a + S z.

    The KKT residual is the largest of the projection error
    |z - P(center - S^T theta / rho)|, the simplex error and the scaled
    complementarity error.  The Newton solve builds z as that projection, so
    its projection error is 0; only the fallback passes its own.
    """
    top = float(vals.max())
    simp_err = abs(float(theta.sum()) - 1.0) + float(max(0.0, -theta.min()))
    comp_err = float((theta * (top - vals)).max()) / (1.0 + abs(top))
    diff = z - center
    return ProxSolution(
        z=z,
        theta=theta,
        case_used=case,
        kkt_residual=max(proj_err, simp_err, comp_err),
        objective=float(top + 0.5 * rho * (diff @ diff)),
        diagnostics=extra,
    )

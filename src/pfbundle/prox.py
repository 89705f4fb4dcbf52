"""Proximal step over a three-cut model: vertex, edge, then interior case.

The subproblem minimizes the max of three affine cuts plus a quadratic
anchored at the current center, over a box on the multiplier part (the
Hermitian tail is unconstrained).  Its dual is a concave piecewise-quadratic
program over the weight simplex, solved exactly: single-cut supports first,
then pairs by a breakpoint sweep of the piecewise-linear equal-height
function, then the full support by a bracketed root of the slice slope whose
inner weight comes from the same sweep.  The support-enumeration oracle is
only a safety net for an interior solve whose KKT residual is off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oracle import qp_support_enumeration

_EDGES = ((0, 1), (0, 2), (1, 2))

# Case-acceptance slack, relative to the cut-value scale.  Loose acceptance
# bleeds straight into the model decrease and caps the reachable accuracy, so
# this sits near roundoff; a wrong rejection only falls through to the next
# case, never to a wrong answer.
_CASE_TOL = 1e-12

# KKT residual above which the interior solve hands over to the enumeration
# oracle.  The exact solve lands near roundoff, far below this.
_KKT_TOL = 1e-10

# Slice evaluations allowed in the interior case; the bracket at least halves
# every other evaluation, so it reaches roundoff width within about 106.
_MAX_SLICES = 128

# A slice slope within this many ulps of the cut-value magnitudes is zero.
_ROUNDOFF = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
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


def vertex_points(center, a, S, rho, beta, n_box):
    """Each cut's own prox point, before and after the clip, and its cut values.

    Returns (W, Z, V): row i of W is center - S[i] / rho, row i of Z is its
    box projection, and V[i] = a + S @ Z[i].  The vertex case tests these
    points and the edge case starts its sweeps from them.
    """
    W = center - S / rho
    Z = W.copy()
    np.clip(Z[:, :n_box], 0.0, beta, out=Z[:, :n_box])
    return W, Z, [a + S @ z for z in Z]


def vertex_case(points):
    """First single-cut support whose cut stays on top at its own prox point."""
    _, Z, V = points
    for i in range(3):
        vals = V[i]
        top = float(vals.max())
        if vals[i] >= top - _CASE_TOL * (1.0 + abs(top)):
            theta = np.zeros(3)
            theta[i] = 1.0
            return Z[i], theta, i
    return None


def _sweep_direction(dh, beta, n_box):
    """The parts of a sweep along dh that its start and rate do not change.

    Returns (nz, dnz, zero_sign, shut): the box coordinates dh moves, their
    entries of dh, the sign of the slope change where such a coordinate
    reaches zero (a rising step moves the point down, so it clamps there),
    and the bound on which it counts as clamped at the sweep's start.
    """
    dhb = dh[:n_box]
    nz = dhb != 0.0
    dnz = dhb[nz]
    rising = dnz > 0.0
    return nz, dnz, np.where(rising, -1.0, 1.0), np.where(rising, 0.0, beta)


def _sweep_root(phi0, dh, w0, rate, rho, beta, n_box, direction) -> float:
    """Root in [0, 1] of phi(s) = phi0 + dh . (P(w0 - s rate dh / rho) - P(w0)).

    phi is piecewise linear and nonincreasing for rate > 0; its breakpoints
    are the s where a box coordinate of the projected point hits a bound.  A
    single left-to-right sweep tracks the slope through those clamp toggles
    and solves the active segment in closed form.  Returns 0 when phi0 < 0
    and 1 when phi stays positive on the whole interval.  direction is
    _sweep_direction(dh, beta, n_box), which a caller sweeping along dh more
    than once computes once.
    """
    if phi0 < 0.0:
        return 0.0
    nz, dnz, zero_sign, shut = direction
    enz = rate * dnz
    wnz = w0[:n_box][nz]
    slope_free = (dh[n_box:] @ (rate * dh[n_box:])) / rho   # the tail never clamps
    s_zero = rho * wnz / enz
    s_beta = rho * (wnz - beta) / enz
    # Toggle sign: does the coordinate become free (+) or clamped (-) there?
    # Reaching beta toggles the opposite way to reaching zero.
    gain = dnz * enz / rho
    at_zero = zero_sign * gain
    ev_s = np.concatenate([s_zero, s_beta])
    ev_delta = np.concatenate([at_zero, -at_zero])
    inside = (ev_s > 0.0) & (ev_s < 1.0)
    ev_s = ev_s[inside]
    ev_delta = ev_delta[inside]

    # Free just after s = 0: inside the box, or on the bound it moves away
    # from (shut is the bound it moves toward).
    free0 = (wnz >= 0.0) & (wnz <= beta) & (wnz != shut)
    slope0 = float(gain[free0].sum()) + slope_free

    # Tied breakpoints make zero-length segments, which move nothing.
    order = np.argsort(ev_s)
    bounds = np.concatenate([[0.0], ev_s[order], [1.0]])
    seg_slope = slope0 + np.concatenate([[0.0], np.cumsum(ev_delta[order])])
    ends = phi0 - np.cumsum(seg_slope * (bounds[1:] - bounds[:-1]))
    if ends[-1] > 0.0:
        return 1.0
    p = int(np.argmax(ends <= 0.0))
    start_val = phi0 if p == 0 else float(ends[p - 1])
    if seg_slope[p] > 0.0:
        s_star = bounds[p] + start_val / seg_slope[p]
        return float(min(max(s_star, bounds[p]), bounds[p + 1]))
    return float(0.5 * (bounds[p] + bounds[p + 1]))


def edge_root(points, S, i, j, rho, beta, n_box):
    """Root of the equal-height function of cuts i and j along their edge.

    The difference of cut values along the edge is piecewise linear and
    nonincreasing in the weight s of cut i; `_sweep_root` finds its zero,
    starting from cut j's prox point in points (see vertex_points).
    Returns s in (0, 1) or None.
    """
    W, _, V = points
    dh = S[i] - S[j]
    s = _sweep_root(float(V[j][i] - V[j][j]), dh, W[j], 1.0, rho, beta, n_box,
                    _sweep_direction(dh, beta, n_box))
    return s if 0.0 < s < 1.0 else None


def edge_case(center, a, S, rho, beta, n_box, points):
    """First two-cut support with an interior equal-height root that dominates."""
    for i, j in _EDGES:
        s = edge_root(points, S, i, j, rho, beta, n_box)
        if s is None:
            continue
        theta = np.zeros(3)
        theta[i] = s
        theta[j] = 1.0 - s
        z = project_box(center - (S.T @ theta) / rho, beta, n_box)
        vals = a + S @ z
        common = max(float(vals[i]), float(vals[j]))
        m = 3 - i - j
        if vals[m] <= common + _CASE_TOL * (1.0 + abs(common)):
            return z, theta, (i, j)
    return None


def interior_case(center, a, S, rho, beta, n_box):
    """Exact full-support solve: bracketed root of the slice slope in mu.

    Weights are theta = (mu lam, mu (1 - lam), 1 - mu).  For fixed mu the
    best lam is the equal-height root of cuts 0 and 1, found by the
    breakpoint sweep; the dual's derivative along the slice is then
    g(mu) = lam (v0 - v2) + (1 - lam) (v1 - v2), nonincreasing in mu.  Each
    trial mu is the 2x2 equal-height solve on the current clamp pattern,
    which is exact once the pattern is the optimal one.  A bisection replaces
    a trial that leaves the bracket, or any trial once the bracket has not
    halved over two evaluations.  Returns (z, theta, slice evaluations).
    """
    d01 = S[0] - S[1]
    c01 = float(a[0] - a[1])
    d1 = S[0] - S[2]
    d2 = S[1] - S[2]
    free = np.ones(S.shape[1], dtype=bool)     # the tail never clamps
    abs_a, abs_s = np.abs(a), np.abs(S)
    direction = _sweep_direction(d01, beta, n_box)   # every slice sweeps along d01

    def evaluate(mu):
        base = center - ((1.0 - mu) * S[2] + mu * S[1]) / rho
        phi0 = c01 + float(d01 @ project_box(base, beta, n_box))
        lam = _sweep_root(phi0, d01, base, mu, rho, beta, n_box, direction)
        theta = np.array([mu * lam, mu * (1.0 - lam), 1.0 - mu])
        w = center - (S.T @ theta) / rho
        z = project_box(w, beta, n_box)
        vals = a + S @ z
        r1 = float(vals[0] - vals[2])
        r2 = float(vals[1] - vals[2])
        floor = _ROUNDOFF * float((abs_a + abs_s @ np.abs(z)).max())
        return theta, w, z, r1, r2, lam * r1 + (1.0 - lam) * r2, floor

    def pattern_root(theta, w, r1, r2):
        # v0 - v2 and v1 - v2 are affine in (theta0, theta1) while no box
        # coordinate changes state, with Jacobian -G / rho.
        free[:n_box] = (w[:n_box] > 0.0) & (w[:n_box] < beta)
        m1 = d1[free]
        m2 = d2[free]
        g11, g12, g22 = float(m1 @ m1), float(m1 @ m2), float(m2 @ m2)
        det = g11 * g22 - g12 * g12
        if not det > 1e-14 * max(g11 * g22, 1e-300):
            return None
        return float(theta[0] + theta[1]) + rho * ((g22 - g12) * r1 + (g11 - g12) * r2) / det

    lo, hi = 0.0, 1.0
    widths = [2.0, 2.0]         # bracket widths before the last two evaluations
    mu = 2.0 / 3.0              # equal weights
    for evals in range(1, _MAX_SLICES + 1):
        widths = [widths[1], hi - lo]
        theta, w, z, r1, r2, g, floor = evaluate(mu)
        if abs(g) <= floor:
            break
        lo, hi = (mu, hi) if g > 0.0 else (lo, mu)
        trial = pattern_root(theta, w, r1, r2)
        if hi - lo <= 4e-16 or (trial is not None and abs(trial - mu) <= 4e-16):
            break
        if trial is None or not lo < trial < hi or hi - lo > 0.5 * widths[0]:
            trial = 0.5 * (lo + hi)
        mu = trial
    return z, theta, evals


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
        S: (3, n) cut slopes, one row per cut (row order fixes tie-breaking).
        rho: prox weight.
        beta: multiplier box upper bound.
        n_box: number of leading box-constrained coordinates.

    Returns a ProxSolution whose case_used names the case that solved it and
    whose diagnostics record the support of the weights; the interior case
    also records its slice evaluations.
    """
    points = vertex_points(center, a, S, rho, beta, n_box)
    hit = vertex_case(points)
    if hit is not None:
        z, theta, idx = hit
        return _finish(center, a, S, rho, z, theta, "vertex", support=(idx,))

    hit = edge_case(center, a, S, rho, beta, n_box, points)
    if hit is not None:
        z, theta, pair = hit
        return _finish(center, a, S, rho, z, theta, "edge", support=pair)

    z, theta, evals = interior_case(center, a, S, rho, beta, n_box)
    sol = _finish(center, a, S, rho, z, theta, "interior",
                  support=(0, 1, 2), slice_evals=evals)
    if sol.kkt_residual <= _KKT_TOL:
        return sol
    ref = qp_support_enumeration(center, a, S, rho, beta, n_box)
    zhat = project_box(center - (S.T @ ref.theta) / rho, beta, n_box)
    return _finish(center, a, S, rho, ref.z, ref.theta, "fallback",
                   proj_err=float(np.abs(ref.z - zhat).max()),
                   support=ref.support, interior_kkt=sol.kkt_residual)


def _finish(center, a, S, rho, z, theta, case, proj_err=0.0, **extra):
    """The solution with its KKT residual and objective.

    The KKT residual is the largest of the projection error
    |z - P(center - S^T theta / rho)|, the simplex error and the scaled
    complementarity error.  The exact cases build z as that projection, so
    their projection error is 0; only the fallback passes its own.
    """
    vals = a + S @ z
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

"""Three-cut proximal bundle loop with rank-one primal recovery.

Each iteration solves the prox subproblem over a fixed, a current, and an
aggregate cut, evaluates the penalized dual at the candidate with a single
extreme-eigenpair call, applies the descent test to move the stability
center, adapts the prox weight to the step (proximity control), and rebuilds
the current and aggregate cuts at the candidate.  The prox metric is
diagonal: weight rho w_i on box coordinate i, with w the clipped root mean
square of the run's eigen-cut slopes, and rho t^2 on the free Hermitian
tail, with t adapted at serious steps to the center's displacement.  With
d = (sqrt(w), t) that metric is the plain prox in the variables d x: the
center is multiplied by d, the cut slopes divided by it and the box bound
beta becomes beta d, and the solution is divided back, so the center, the
cuts and the report stay in true coordinates.  After the loop the center's
eigenvector, kept from the evaluation that made it the center, is rescaled
against the slack-bus voltage and its slack block set to that voltage, which
makes it an operating point; the verdict is feasible when that point meets
every band.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .operators import (
    EigenFailure,
    EigenResult,
    PenaltyObjective,
    apply_constraint_rank1,
    dual_matrix,  # noqa: F401  (perfbench/tracing.py wraps bundle.dual_matrix)
    leading_eigenpair,
    penalty_subgradient,
    penalty_value,
)
from .prox import ProxSolution, solve_prox


def _knob(default, help_text: str):
    return field(default=default, metadata={"help": help_text})


def as_json_dict(obj, **overrides) -> dict:
    """A dataclass's fields, then overrides, as a strict-JSON-ready dict.

    Tuples become lists, and a non-finite float becomes None (JSON null).
    """
    out = {f.name: getattr(obj, f.name) for f in fields(obj)}
    out.update(overrides)
    return {key: _strict(value) for key, value in out.items()}


def _strict(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


@dataclass(frozen=True)
class SolverConfig:
    """The settings a run may change; the rest are the constants below.

    Each field is also a CLI override flag, its help text in the metadata.
    Construction raises ValueError naming the first field out of range.
    """

    rho: float = _knob(4.0, "start value of the prox weight")
    eps: float = _knob(1e-5, "model-gap stopping tolerance")
    beta: float = _knob(0.1, "multiplier box upper bound")
    alpha: float | None = _knob(None, "penalty weight (default: limit rule)")
    max_iters: int = _knob(2000, "bundle iteration budget")
    eig_tol: float = _knob(1e-9, "eigenpair residual tolerance")

    def __post_init__(self):
        # Values may come from JSON, so types are checked too: a field takes
        # the type of its default (alpha a number or None), never a bool.
        # Reports write non-finite floats as null, which --from-report could
        # not read back, so a knob must be finite, and within a double's range
        # even if it is an integer.
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            kind = numbers.Integral if isinstance(f.default, int) else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                noun = "an integer" if kind is numbers.Integral else "a number"
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.eig_tol <= 0:
            raise ValueError("eig_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


# Fixed for every run: the descent-test fraction; a feasible operating
# point's bound on its summed limit slack; the seed of the Lanczos start's
# blend.
ETA = 0.1
FEAS_TOL = 1e-6
BLEND_SEED = 0


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration trace row of the bundle loop."""

    iteration: int
    f_center: float
    f_candidate: float
    model_value: float
    delta: float
    serious: bool
    case_used: str
    kkt_residual: float
    lambda_neg: float
    eig_matvecs: int
    eig_factors: int
    prox_seconds: float
    prox_evals: int
    step_norm: float
    rho: float
    gamma_scale: float
    box_scale_min: float
    box_scale_max: float


@dataclass
class BundleState:
    """Mutable loop state: center, its value and eigenpair, cuts and trace.

    The cuts are a + S @ x with intercepts a (3,) and slope rows S (3, n):
    the fixed, the current and the aggregate cut.  last_eig is the latest
    evaluation's eigenpair, whose vector and Temple quotient start the next
    eigensolve.  rho is the prox weight of the next step, adapted from
    config.rho by proximity control; last_delta is the previous step's model
    gap.  The next step's metric is weight rho w_i on box coordinate i and
    rho t^2 on the free Hermitian tail: gamma_scale is t, slope_sq the
    running sum of the new cuts' squared box slopes that w comes from, metric
    the scale vector d = (sqrt(w), t) and box_scale the least and the largest
    w.
    """

    problem: PenaltyObjective
    config: SolverConfig
    rng: np.random.Generator
    center: np.ndarray
    f_center: float
    a: np.ndarray
    S: np.ndarray
    rho: float
    gamma_scale: float = 1.0
    slope_sq: np.ndarray | None = None
    metric: np.ndarray | None = None
    box_scale: tuple = (1.0, 1.0)
    center_eig: EigenResult | None = None
    last_delta: float = float("inf")
    last_eig: EigenResult | None = None
    iteration: int = 0
    converged: bool = False
    history: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def _start_state(problem: PenaltyObjective, config: SolverConfig) -> BundleState:
    """The run at the box midpoint, before any eigenpair.

    Sets the run's beta and alpha (None keeps the limit rule) on the
    problem, and makes all three cuts the linear part.
    """
    alpha = problem.alpha if config.alpha is None else float(config.alpha)
    problem = replace(problem, alpha=alpha, beta=float(config.beta))
    return BundleState(
        problem=problem,
        config=config,
        rng=np.random.default_rng(BLEND_SEED),
        center=problem.start_point(),
        f_center=float("nan"),
        a=np.zeros(3),
        S=np.tile(problem.fixed_slope, (3, 1)),
        rho=float(config.rho),
        slope_sq=np.zeros(problem.n_box),
        metric=np.ones(problem.n_box + 9),
    )


# Proximity control (Kiwiel, Math. Prog. 1990; the weight update of Helmberg
# & Rendl, SIAM J. Optim. 2000).  ratio is the true over the predicted
# decrease.  After a serious step with ratio >= RHO_GOOD_RATIO whose model gap
# is at least RHO_SLOW_PROGRESS of the previous one, the weight falls to
# 2 rho (1 - ratio), by at most RHO_MAX_FACTOR; after a null step whose cut is
# off by more than delta at the center, it rises to 2 rho (1 - ratio), by at
# most RHO_MAX_FACTOR.  It stays within RHO_RANGE of config.rho either way.
# Measured at the default start (4) on planted-feasible synth_radial(10,
# seed=3) feeders: replicated 10, 30 and 50 times they take 15, 19 and 19
# iterations (42, 36 and 45 with a fixed weight), and the benchmark's 80
# ten-bus cases (base seeds 0-39, planted feasible and infeasible) take 784
# in all (755).  Without the slow-progress condition those ten-bus runs lower
# the weight after their fast early steps and then take null steps: 1,305 in
# all.  The threshold 0.5 was chosen under one weight on the box, where 0.8
# took k = 30 to 35.  Re-measured under the per-coordinate metric, 0.8 takes
# the ten-bus cases to 755 and k = 10 / 30 feasible to 12 / 18, but deep 181
# to 33 instead of 26, k = 50 feasible to 21 instead of 19 and deep 1,000's
# relative f gap from 1.2e-5 to 2e-5; 0.3 takes the ten-bus cases to 1,049.
# So 0.5 stays.
RHO_GOOD_RATIO = 0.5
RHO_SLOW_PROGRESS = 0.5
RHO_MAX_FACTOR = 4.0
RHO_RANGE = 1e3


def next_rho(rho: float, rho0: float, ratio: float, delta: float,
             last_delta: float, serious: bool, lin_err: float) -> float:
    """The prox weight after a step that did not stop the run.

    Lower after a serious step the model predicted well while progress is
    slow, higher after a null step whose new cut is poor at the center.
    """
    if serious:
        if ratio >= RHO_GOOD_RATIO and delta >= RHO_SLOW_PROGRESS * last_delta:
            return max(2.0 * rho * (1.0 - ratio), rho / RHO_MAX_FACTOR, rho0 / RHO_RANGE)
    elif lin_err > delta:
        return min(2.0 * rho * (1.0 - ratio), RHO_MAX_FACTOR * rho, rho0 * RHO_RANGE)
    return rho


# Prox metric (a variable-metric bundle, Lemaréchal & Sagastizábal, Math.
# Prog. 1997): weight rho w_i on box coordinate i and rho t^2 on the 9 free
# Hermitian ones.  At the dual optimum the box part sits at the box corners,
# so |y* - y0| = (beta / 2) sqrt(18 N) grows like sqrt(N) (0.67 at N = 10,
# 3.5 at N = 271), while |Gamma* - Gamma0| grows like N (0.65 to 16.5 planted
# feasible, 0.87 to 22.0 planted infeasible): one weight on both blocks makes
# the tail's steps too short on large feeders.  After a serious step whose
# center's displacement ratio |y_c - y0| / |Gamma_c - Gamma0| leaves
# [t / GAMMA_SCALE_LOWER, GAMMA_SCALE_RAISE t], t moves to the ratio, by at
# most GAMMA_SCALE_MAX_FACTOR, within [GAMMA_SCALE_MIN, GAMMA_SCALE_CAP].
# Measured on planted synth_radial(10, seed=3) feeders replicated k times:
# infeasible k = 15, 20 and 30 take 25, 30 and 29 iterations (44, 67 and 111
# with t = 1), feasible k = 30 takes 19 (21); the benchmark's 80 ten-bus
# cases never move t off 1.  A fixed t = 0.2 takes k = 20 infeasible to 21 but
# the ten-bus total from 784 to 2,306, hence the adaptation and the cap.
# A lower edge of t / 2 also moves the hand-built two-bus case, whose ratio
# settles at 0.35-0.40, and takes its eps = 1e-12 run from 8 iterations to 20
# and its corner-block error from 1.5e-9 to 9.7e-7.  The floor keeps a tail
# that runs off (alpha too small to bound f) finite.
GAMMA_SCALE_LOWER = 4.0
GAMMA_SCALE_RAISE = 2.0
GAMMA_SCALE_MAX_FACTOR = 4.0
GAMMA_SCALE_CAP = 1.0
GAMMA_SCALE_MIN = 1e-3


def next_gamma_scale(scale: float, y_shift: float, gamma_shift: float) -> float:
    """The tail scale t after a serious step.

    y_shift and gamma_shift are the new center's distances from the start
    point on the box part and on the tail.
    """
    if gamma_shift <= 0.0:
        ratio = GAMMA_SCALE_CAP
    else:
        ratio = y_shift / gamma_shift
    if scale / GAMMA_SCALE_LOWER <= ratio <= GAMMA_SCALE_RAISE * scale:
        return scale
    target = min(max(ratio, GAMMA_SCALE_MIN), GAMMA_SCALE_CAP)
    return min(max(target, scale / GAMMA_SCALE_MAX_FACTOR), GAMMA_SCALE_MAX_FACTOR * scale)


# The box weights w (the root-mean-square diagonal of Duchi, Hazan & Singer,
# JMLR 2011): r_i is the root of the sum of squares of the i-th box slope of
# every new cut so far, and w = r / mean(r), clipped to [1 / BOX_SCALE_CLIP,
# BOX_SCALE_CLIP].  The box slopes of one cut differ by orders of magnitude,
# so one weight on all of them spends most iterations on the last decade of
# the model gap.  Measured with and without w (w = 1) on planted
# synth_radial(n, seed=3) feeders: replicated 20 times infeasible, 30 and 42
# iterations; 30 times feasible, 19 and 22; 30 and 50 times infeasible, 29
# and 38 against 70 and 71; deep n = 181, 500 and 1,000 feasible, 26, 47 and
# 65 against 58, 104 and 155; the benchmark's 80 ten-bus cases, 784 against
# 820, worst relative f gap 2.5e-6 against 4.0e-7.  Clips of 3, 10, 30 and
# 100 take k = 30 feasible to 16, 19, 22 and 22 iterations, k = 50 feasible
# to 27, 19, 24 and 28, and k = 20 infeasible to 28, 30, 26 and 26.
BOX_SCALE_CLIP = 10.0


def refresh_metric(state: BundleState, g: np.ndarray) -> None:
    """Fold the new cut's slope g into the next step's metric, in place.

    The box part of state.metric becomes sqrt(w), the tail t.  While the
    new cuts' box slopes all vanish, w stays 1.
    """
    n_box = state.problem.n_box
    d, q = state.metric, state.slope_sq
    box = g[:n_box]
    q += box * box
    r = np.sqrt(q)
    mean = float(r.mean())
    if mean > 0.0:
        r /= mean
        np.clip(r, 1.0 / BOX_SCALE_CLIP, BOX_SCALE_CLIP, out=r)
        state.box_scale = (float(r.min()), float(r.max()))
        np.sqrt(r, out=d[:n_box])
    d[n_box:] = state.gamma_scale


def scaled_prox(center, a, S, rho, d, beta, n_box) -> ProxSolution:
    """The prox step in the diagonal metric rho d^2.

    That metric is the plain prox in the variables d x, whose box is
    [0, beta d_i] on the leading n_box coordinates: the center is multiplied
    by d, the slopes divided by it, and the solution divided back.  The
    returned z is in true coordinates; its weights, case and KKT residual are
    the scaled problem's, and the cut values at z are the same in both.
    """
    prox = solve_prox(center * d, a, S / d, rho, beta * d[:n_box], n_box)
    np.divide(prox.z, d, out=prox.z)
    return prox


def init_state(problem: PenaltyObjective, config: SolverConfig) -> BundleState:
    """Turn a case into a run: configure it and start at the box midpoint.

    The linear part of the objective is a global minorant (the penalty term is
    nonnegative), so the initial model is valid before any eigenpair has been
    computed.  The center value does require one eigenpair evaluation.
    """
    state = _start_state(problem, config)
    problem = state.problem
    eig = leading_eigenpair(problem, state.center, state.rng, tol=config.eig_tol)
    state.f_center, _ = penalty_value(problem, state.center, eig)
    state.center_eig = eig
    state.last_eig = eig
    return state


def step(state: BundleState) -> IterationRecord:
    """One bundle iteration: prox candidate, descent test, cut refresh.

    The candidate is evaluated with a single eigenpair call, warm-started
    from the previous evaluation's eigenvector and Temple quotient, that also
    yields the subgradient slope.  The stopping predicate (model gap at most
    eps) is checked by the caller on the returned record after the center
    update has been applied, matching the loop ordering in solve().
    """
    problem = state.problem
    config = state.config
    state.iteration += 1

    a, S, rho, scale = state.a, state.S, state.rho, state.gamma_scale
    box_scale_min, box_scale_max = state.box_scale
    n_box = problem.n_box
    t0 = time.perf_counter()
    prox = scaled_prox(state.center, a, S, rho, state.metric, problem.beta, n_box)
    prox_seconds = time.perf_counter() - t0
    z = prox.z
    model_value = float((a + S @ z).max())
    delta = state.f_center - model_value

    last = state.last_eig
    eig = leading_eigenpair(problem, z, state.rng, tol=config.eig_tol,
                            start=last.vector, quotient=last.quotient)
    state.last_eig = eig
    f_z, f_lambda_z = penalty_value(problem, z, eig)
    g = penalty_subgradient(problem, eig)

    center, f_old = state.center, state.f_center
    serious = f_z <= f_old - ETA * delta
    step_norm = float(np.linalg.norm(z - center))
    if serious:
        state.center = np.array(z, copy=True)
        state.f_center = f_z
        state.center_eig = eig

    record = IterationRecord(
        iteration=state.iteration,
        f_center=state.f_center,
        f_candidate=f_z,
        model_value=model_value,
        delta=delta,
        serious=serious,
        case_used=prox.case_used,
        kkt_residual=prox.kkt_residual,
        lambda_neg=eig.value,
        eig_matvecs=eig.matvecs,
        eig_factors=eig.factors,
        prox_seconds=prox_seconds,
        prox_evals=prox.diagnostics["evals"],
        step_norm=step_norm,
        rho=rho,
        gamma_scale=scale,
        box_scale_min=box_scale_min,
        box_scale_max=box_scale_max,
    )
    state.history.append(record)

    if delta <= config.eps:
        state.converged = True
        return record

    # The new cut's linearization error at the step's center, for the weight.
    lin_err = f_old - (f_lambda_z + float(g @ (center - z)))
    state.rho = next_rho(rho, config.rho, (f_old - f_z) / delta, delta,
                         state.last_delta, serious, lin_err)
    state.last_delta = delta
    if serious:
        # The start point is y0 = beta / 2 with Gamma0 = 0.
        y_shift, gamma_shift = z[:n_box] - 0.5 * problem.beta, z[n_box:]
        state.gamma_scale = next_gamma_scale(
            scale, math.sqrt(y_shift @ y_shift), math.sqrt(gamma_shift @ gamma_shift))
    refresh_metric(state, g)

    # Aggregate: the weight-combined cut, whose value at z equals the model
    # optimum up to roundoff; combining minorants keeps it a minorant.  It
    # combines the old cuts, so it is formed before the rows are overwritten.
    agg_slope = S.T @ prox.theta
    a[2] = float(prox.theta @ a)
    a[1] = f_lambda_z - float(g @ z)
    S[1] = g
    S[2] = agg_slope
    return record


@dataclass(frozen=True, eq=False)
class PrimalCertificate:
    """Rank-one operating point extracted from the bottom of the dual spectrum.

    voltage is the rescaled eigenvector with its slack block set to the slack
    voltage; slack_total is its summed band violation; top_block_err is how
    far the rescaled eigenvector's own slack block was from that voltage,
    measured on the outer product.
    """

    recovered: bool
    verdict: str
    voltage: np.ndarray | None = field(default=None, repr=False)
    slack_total: float = float("inf")
    top_block_err: float = float("inf")
    lambda_min: float = float("nan")
    primal_objective: float = float("nan")
    duality_gap: float = float("inf")
    detail: str = ""

    def to_dict(self) -> dict:
        out = as_json_dict(self)
        del out["voltage"]
        if self.voltage is not None:
            out["voltage"] = [[float(c.real), float(c.imag)] for c in self.voltage]
        return out


def recover_primal(
    problem: PenaltyObjective,
    eig: EigenResult,
    f_value: float | None = None,
) -> PrimalCertificate:
    """Rescale the bottom eigenvector of H into an operating point.

    eig is the top eigenpair of -H at a dual point, so recovery runs no
    eigensolve and builds no matrix.  The eigenvector's slack block is
    aligned with the reference voltage by a least-squares complex scalar, and
    then set to it: the voltage is an operating point by construction, and it
    is feasible when its rows leave at most FEAS_TOL of limit slack in all.
    When f_value is given the certificate also reports the scaled duality gap
    between -f_value and the primal objective.
    """
    v0 = eig.vector
    lam_min = -eig.value

    head = v0[:3]
    head_sq = float(np.vdot(head, head).real)
    if head_sq < 1e-16:
        return PrimalCertificate(
            recovered=False,
            verdict="infeasible_or_undecided",
            lambda_min=lam_min,
            detail="eigenvector has a numerically zero slack block",
        )
    scale = complex(np.vdot(head, problem.slack_voltage)) / head_sq
    voltage = scale * v0
    top_block = np.outer(voltage[:3], voltage[:3].conj())
    top_block_err = float(np.linalg.norm(top_block - problem.M1))
    voltage[:3] = problem.slack_voltage

    rows = apply_constraint_rank1(problem, voltage) + problem.m_vec
    slack_total = float(np.clip(rows, 0.0, None).sum())

    primal_obj = problem.beta * slack_total + float(
        np.vdot(voltage, problem.C @ voltage).real
    )
    duality_gap = float("inf")
    if f_value is not None:
        duality_gap = abs(f_value + primal_obj) / (1.0 + abs(primal_obj))

    return PrimalCertificate(
        recovered=True,
        verdict="feasible" if slack_total <= FEAS_TOL else "infeasible_or_undecided",
        voltage=voltage,
        slack_total=slack_total,
        top_block_err=top_block_err,
        lambda_min=lam_min,
        primal_objective=primal_obj,
        duality_gap=duality_gap,
    )


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Everything a run produced: trace, final value, certificate, warnings."""

    n_buses: int
    config: SolverConfig
    converged: bool
    iterations: int
    serious_steps: int
    f_best: float
    final_delta: float
    certificate: PrimalCertificate
    center: np.ndarray = field(repr=False)
    history: tuple = field(repr=False, default=())
    warnings: tuple = ()
    wall_seconds: float = 0.0

    @property
    def verdict(self) -> str:
        if not self.converged:
            return "not_converged"
        return self.certificate.verdict

    def to_dict(self) -> dict:
        return as_json_dict(
            self,
            config=as_json_dict(self.config),
            verdict=self.verdict,
            certificate=self.certificate.to_dict(),
            center=[float(t) for t in self.center],
            history=[as_json_dict(r) for r in self.history],
        )


def _failure(exc: Exception) -> str:
    """The cause of a run's end that a warning names."""
    if isinstance(exc, EigenFailure):
        return "eigen solver failed"
    return "arithmetic left the float64 range"


def solve(problem: PenaltyObjective, config: SolverConfig | None = None) -> SolveReport:
    """Run the bundle loop to the model-gap tolerance and recover a certificate.

    An eigensolver failure at any stage ends the run with a not_converged
    report whose warning names the stage.  So does arithmetic that overflows
    or makes a NaN, on data or settings too large for float64: the run
    raises FloatingPointError there instead of a warning, which costs no
    pass over any array.
    """
    if config is None:
        config = SolverConfig()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        return _solve(problem, config, time.perf_counter())


def _solve(problem: PenaltyObjective, config: SolverConfig, t0: float) -> SolveReport:
    try:
        state = init_state(problem, config)
    except (EigenFailure, FloatingPointError) as exc:
        state = _start_state(problem, config)
        state.warnings.append(f"{_failure(exc)} at the start point: {exc}")
        unrecovered = PrimalCertificate(False, "infeasible_or_undecided",
                                        detail="no eigenpair at the start point")
        return _report(state, unrecovered, float("inf"), t0)
    problem = state.problem
    final_delta = float("inf")
    record = None
    try:
        while state.iteration < config.max_iters and not state.converged:
            record = step(state)
            final_delta = record.delta
    except (EigenFailure, FloatingPointError) as exc:
        state.warnings.append(f"{_failure(exc)} at iteration {state.iteration}: {exc}")

    if record is None:
        state.warnings.append(f"no iteration completed, so no model gap to compare"
                              f" with eps {config.eps:.1e}")
    elif not state.converged:
        state.warnings.append(
            f"model gap {final_delta:.3e} above eps {config.eps:.1e}"
            f" after {state.iteration} iterations"
        )

    try:
        certificate = recover_primal(problem, state.center_eig, f_value=state.f_center)
        if certificate.recovered and certificate.voltage is not None:
            trace_w = float(np.vdot(certificate.voltage, certificate.voltage).real)
            if problem.alpha <= trace_w:
                state.warnings.append(
                    f"penalty weight alpha={problem.alpha:.3g} does not dominate the"
                    f" recovered trace {trace_w:.3g}; raise alpha and re-run"
                )
    except FloatingPointError as exc:
        state.warnings.append(f"{_failure(exc)} in recovery: {exc}")
        certificate = PrimalCertificate(False, "infeasible_or_undecided",
                                        detail="recovery left the float64 range")
    return _report(state, certificate, final_delta, t0)


def _report(state: BundleState, certificate, final_delta: float, t0: float) -> SolveReport:
    return SolveReport(
        n_buses=state.problem.n_buses,
        config=state.config,
        converged=state.converged,
        iterations=state.iteration,
        serious_steps=sum(1 for r in state.history if r.serious),
        f_best=state.f_center,
        final_delta=final_delta,
        certificate=certificate,
        center=np.array(state.center, copy=True),
        history=tuple(state.history),
        warnings=tuple(state.warnings),
        wall_seconds=time.perf_counter() - t0,
    )

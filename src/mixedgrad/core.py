"""Epoch-based mixed stochastic/full-gradient solver.

Each epoch recenters the problem at the current anchor, adds an L2 term
whose weight halves every epoch, computes one exact averaged gradient at
the anchor, and then runs variance-reduced projected stochastic steps
inside a domain whose radius also halves (the shrink factor gamma = 2 of
the paper's Theorem 1). The number of inner steps grows fourfold per
epoch: epoch k runs T_k = T1 * 4^(k-1) steps, so the stochastic budget
after m epochs is exactly T1 * (4^m - 1) / 3.

run_epoch is the one inner-step path, and the tests check the
variance-reduction invariants on it. Its correction grad g_i(w + anchor) -
grad g_i(anchor) is one scalar times x_i, from n cached anchor margins and
derivatives; the step is one fused expression in w, x_i and the epoch's
constants, and the bounded-step diagnostic is computed from scalars. Its
average is the iterates' running sum over their count. Each step makes
one call to the two-ball projection kernel (geometry._project_two_balls),
which owns the fast path and the shortcut for an epoch whose Delta-ball is
certified inside the R-ball (EpochDomain.outer_inactive). Each epoch's
summary counts the steps that left the fast path, by projection branch,
and records that certificate.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .geometry import (BOTH, INNER, OUTER, EpochDomain, _project_two_balls,
                       project_ball, project_epoch_domain)
from .losses import (ProblemInstance, _loss_derivative, _loss_derivatives,
                     full_objective, mean_gradient, mean_smoothness)
from .oracle import OracleCounters, SeededSampler, full_grad, sample_losses
# The single-call sampler stays importable from here: perfbench/tracer.py
# wraps mixedgrad.core.sample_loss by name.
from .oracle import sample_loss  # noqa: F401

# Largest delta (failure probability) the theory-mode parameter formulas
# accept: exp(-9/2).
MAX_FAILURE_PROBABILITY = math.exp(-4.5)


class DivergenceError(RuntimeError):
    """Raised when an iterate or gradient stops being finite.

    The solvers (run and baselines.run_sgd, run_gd, run_nag) always attach
    the oracle counters and the trace they had reached. Only
    _projected_gradient raises it bare (counters and trace None): run_gd
    and run_nag attach theirs as it passes, and the uncounted solves built
    on it (the reference optimum, the epoch subproblem) pass it on bare.
    """

    def __init__(self, message: str, counters: OracleCounters | None = None,
                 trace: list[TraceRecord] | None = None):
        super().__init__(message)
        self.counters = counters
        self.trace = trace


def _check_count(name: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_counts(config, names: tuple[str, ...]) -> None:
    for name in names:
        _check_count(name, getattr(config, name))


def _check_positive(name: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not value > 0):
        raise ValueError(f"{name} must be a positive real number, "
                         f"got {value!r}")


@dataclass(frozen=True)
class MixedGradConfig:
    eta1: float                # first-epoch step size
    delta1: float              # first-epoch domain radius
    t1: int                    # first-epoch inner iteration count
    epochs: int                # number of epochs m
    lambda1: float             # first-epoch regularization weight
    checkpoint_stride: int = 100
    gamma: ClassVar[float] = 2.0   # per-epoch shrink factor, fixed

    def __post_init__(self):
        for name in ("eta1", "delta1", "lambda1"):
            _check_positive(name, getattr(self, name))
        _check_counts(self, ("t1", "epochs", "checkpoint_stride"))


def theory_params(beta: float, radius: float, failure_prob: float,
                  epochs: int) -> MixedGradConfig:
    """Config from the high-probability analysis: lambda1=16*beta,
    Delta1=R, T1=ceil(300 ln(m/delta)), eta1=1/(2 beta sqrt(3 T1)); the
    shrink factor is the fixed MixedGradConfig.gamma = 2."""
    if not (beta > 0 and radius > 0 and epochs >= 1):
        raise ValueError("beta, radius must be positive and epochs >= 1")
    if not 0 < failure_prob <= MAX_FAILURE_PROBABILITY:
        raise ValueError(
            f"failure probability must lie in (0, e^-4.5 ~ "
            f"{MAX_FAILURE_PROBABILITY:.4g}]")
    t1 = math.ceil(300.0 * math.log(epochs / failure_prob))
    eta1 = 1.0 / (2.0 * beta * math.sqrt(3.0 * t1))
    lambda1 = 16.0 * beta
    if not (eta1 > 0 and lambda1 < math.inf):
        raise ValueError(f"beta = {beta:g} is too large: eta1 = 1/(2 beta "
                         f"sqrt(3 T1)) or lambda1 = 16 beta overflows; "
                         f"rescale the features")
    return MixedGradConfig(eta1=eta1, delta1=radius, t1=t1, epochs=epochs,
                           lambda1=lambda1)


@dataclass
class EpochState:
    """Mutable per-epoch quantities of the solver."""

    epoch_index: int           # k, starting at 1
    anchor: np.ndarray         # running solution the epoch recenters on
    delta: float               # inner domain radius
    lam: float                 # regularization weight
    eta: float                 # step size
    inner_iters: int           # number of stochastic steps this epoch
    anchor_grad: np.ndarray | None = None  # lam*anchor + mean gradient


@dataclass
class TraceRecord:
    epoch: int
    step: int
    stoch_calls: int
    full_calls: int
    objective: float
    error: float               # objective minus reference (nan if none)
    status: str = "ok"


@dataclass
class ProjectionCounts:
    """Inner steps of an epoch that left the projection fast path, by the
    branch of the two-ball projection that produced the new iterate."""

    inner: int = 0             # scaled into the inner (Delta) ball
    outer: int = 0             # scaled into the outer (R) ball
    both: int = 0              # both active: on the spheres' circle

    @property
    def total(self) -> int:
        return self.inner + self.outer + self.both


@dataclass
class EpochSummary:
    """End-of-epoch diagnostics."""

    epoch: int
    delta: float
    lam: float
    eta: float
    inner_iters: int
    anchor_after: np.ndarray
    objective_after: float
    stoch_calls: int           # cumulative at epoch end
    full_calls: int
    max_step_norm_sq: float    # max ||grad correction + lam*w||^2 observed
    # The Delta-ball was certified inside the R-ball (EpochDomain's
    # outer_inactive), so no step computed ||v + anchor||.
    outer_inactive: bool
    projections: ProjectionCounts = field(default_factory=ProjectionCounts)

    @property
    def fast_steps(self) -> int:
        """Inner steps that stayed inside both balls (no projection)."""
        return self.inner_iters - self.projections.total


class SolverResult(NamedTuple):
    """What every solver returns: its point, the checkpoint trace, the
    oracle counters it spent, and (mixedgrad only) per-epoch diagnostics."""

    point: np.ndarray
    trace: list[TraceRecord]
    counters: OracleCounters
    epoch_summaries: tuple[EpochSummary, ...] = ()


def anchor_gradient(instance: ProblemInstance, anchor: np.ndarray, lam: float,
                    counters: OracleCounters) -> np.ndarray:
    """lam * anchor + averaged gradient at the anchor (one full-oracle call)."""
    return lam * anchor + full_grad(instance, anchor, counters)


@np.errstate(invalid="ignore", over="ignore")
def run_epoch(instance: ProblemInstance, state: EpochState,
              sampler: SeededSampler, counters: OracleCounters,
              trace: list[TraceRecord] | None = None,
              checkpoint_stride: int = 100,
              reference_value: float | None = None
              ) -> tuple[np.ndarray, float, ProjectionCounts]:
    """One epoch of inner stochastic steps starting from 0.

    Returns the sum of the inner_iters + 1 iterates over inner_iters + 1,
    the largest squared norm of (gradient correction + lam * w) seen, a
    diagnostic for the bounded-step property, and the steps that left the
    projection fast path, counted by branch. Checkpoints are appended to
    the trace every checkpoint_stride steps; their objective evaluations
    do not touch the oracle counters.

    Each step is w <- P_domain(w - eta * (anchor_grad + c * x_i + lam * w)),
    where c * x_i = grad g_i(w + anchor) - grad g_i(anchor), c the difference
    of the loss derivatives at the margins w.x_i + anchor.x_i and
    anchor.x_i. It is taken fused, v = w (1 - eta lam) - eta anchor_grad -
    (eta c) x_i, with eta anchor_grad and 1 - eta lam formed once per
    epoch. The anchor's margins and loss derivatives are cached per epoch
    (O(n) memory); the labels and the ||x_i||^2 are the instance's, built
    once. The diagnostic is the scalar
    c^2 ||x_i||^2 + 2 c lam (w.x_i) + lam^2 ||w||^2, with ||w||^2 the
    squared norm the projection kernel returned with w. c is a Python
    float, so the step's scalar arithmetic stays in Python floats. Both
    margins are row dots, so at w = 0 (where w.x_i is 0.0) the correction
    and the diagnostic are exactly 0. An infinite eta or lam makes
    0 * inf on the first step, and a huge one can overflow v: numpy's
    warnings for them are silenced, and the NaN or inf they leave makes
    the projection kernel raise, which raises DivergenceError.

    The new iterate is the projection kernel's point, with its branch
    (geometry._project_two_balls): FAST, inside both balls, is v itself.
    """
    anchor = state.anchor
    g_k = state.anchor_grad
    if g_k is None:
        raise ValueError("epoch state is missing the anchor gradient")
    T = state.inner_iters
    lam, eta = state.lam, state.eta
    domain = EpochDomain(anchor, instance.domain_radius, state.delta)
    X = instance.dataset.features
    y, x_sq = instance._labels, instance._row_sq
    kind = instance.loss_kind

    # The anchor's margins and loss derivatives are fixed for the epoch:
    # cached once (no oracle access), in lists, which index faster. vecdot
    # rounds each margin as a row dot does; X @ anchor may not.
    a_margins = np.vecdot(X, anchor)
    d_anchor = _loss_derivatives(instance.dataset.labels, a_margins,
                                 kind).tolist()
    a_margins = a_margins.tolist()
    eta_g = eta * g_k
    # numpy multiplies an array by a 0-d array faster than by a Python
    # float, with the same result.
    shrink = np.array(1.0 - eta * lam)
    two_lam, lam_sq = 2.0 * lam, lam * lam

    w = np.zeros(instance.d)
    w_sq = 0.0                 # ||w||^2
    total = w.copy()           # sum of the iterates seen so far
    max_step_sq = 0.0
    branches = [0, 0, 0, 0]    # steps by projection branch (geometry's indices)
    indices = sample_losses(sampler, counters, instance.n, T)
    for t, i in enumerate(indices, 1):
        x = X[i]
        wx = float(w.dot(x))
        c = _loss_derivative(y[i], wx + a_margins[i], kind) - d_anchor[i]
        # ||c * x_i + lam * w||^2, expanded into scalars.
        step_sq = c * c * x_sq[i] + two_lam * c * wx + lam_sq * w_sq
        if step_sq > max_step_sq:
            max_step_sq = step_sq
        v = w * shrink - eta_g - (eta * c) * x
        try:
            w, branch, w_sq = _project_two_balls(v, domain)
        except ValueError:
            raise DivergenceError(
                f"non-finite iterate at epoch {state.epoch_index}, step {t}",
                counters, trace) from None
        branches[branch] += 1
        total += w
        if trace is not None and t % checkpoint_stride == 0:
            obj = full_objective(instance, w + anchor)
            err = obj - reference_value if reference_value is not None else math.nan
            trace.append(TraceRecord(state.epoch_index, t,
                                     counters.stochastic_calls,
                                     counters.full_calls, obj, err))
    projections = ProjectionCounts(
        branches[INNER], branches[OUTER], branches[BOTH])
    return total / (T + 1.0), float(max_step_sq), projections


def shrink_schedule(state: EpochState, w_tilde: np.ndarray,
                    t1: int) -> EpochState:
    """Advance to the next epoch: shift the anchor by the epoch average and
    halve delta, lam and eta.

    The step budget of epoch k + 1 is T_{k+1} = t1 * 4^k, in Python
    integers (a numpy t1 included), so it is exact and never overflows.
    """
    k = state.epoch_index
    return EpochState(
        epoch_index=k + 1,
        anchor=state.anchor + w_tilde,
        delta=state.delta / 2.0,
        lam=state.lam / 2.0,
        eta=state.eta / 2.0,
        inner_iters=int(t1) * 4 ** k,
        anchor_grad=None,
    )


def _projected_gradient(grad, project, w: np.ndarray, eta: float,
                        accelerated: bool = False, restart: bool = False):
    """Projected gradient iterates w_t = project(y_t - eta * grad(y_t)),
    t = 1, 2, ..., without end: each caller bounds and stops them.

    y_t = w_{t-1}, or when accelerated Nesterov's extrapolated point
    w_{t-1} + ((theta_t - 1) / theta_{t+1}) (w_{t-1} - w_{t-2}) with
    theta_1 = 1, theta_{t+1} = (1 + sqrt(1 + 4 theta_t^2)) / 2 and
    w_{-1} = w_0 (so the first step is a plain one). A non-finite point,
    which project must reject with ValueError, raises DivergenceError,
    without counters or trace.

    With restart (accelerated only; used by _certified_minimum, never by
    run_nag) the momentum is reset by the gradient rule of
    O'Donoghue and Candes: whenever (y_t - w_t) . (w_t - w_{t-1}) > 0,
    theta is set back to 1, so the next extrapolated point is w_t itself.
    """
    w_prev = w
    theta_prev = 1.0
    for t in itertools.count(1):
        y = w
        if accelerated:
            theta = (1.0 + math.sqrt(1.0 + 4.0 * theta_prev * theta_prev)) / 2.0
            y = w + ((theta_prev - 1.0) / theta) * (w - w_prev)
            theta_prev = theta
        v = y - eta * grad(y)
        try:
            p = project(v)
        except ValueError:
            raise DivergenceError(f"non-finite iterate at step {t}") from None
        w_prev, w = w, p
        if restart and (y - w).dot(w - w_prev) > 0:
            theta_prev = 1.0
        yield w


# A certificate costs a gradient, as much as a step, so _certified_minimum
# checks it only on every RESIDUAL_INTERVAL-th iterate (and on the last one
# before the iteration cap).
RESIDUAL_INTERVAL = 10


class CertificateError(RuntimeError):
    """A certified minimization reached its iteration cap before any checked
    iterate's residual fell below the tolerance."""


def _certified_minimum(grad, project, eta: float, d: int, tol: float,
                       max_iterations: int) -> tuple[np.ndarray, float]:
    """Minimize a convex F over a convex set by restarted accelerated
    projected gradient from 0 (uncounted gradients), with step eta at most
    1 / (smoothness of F).

    The certificate is the gradient-mapping residual
    r = ||w - project(w - eta * grad(w))||, zero exactly at the minimizer;
    it is checked on every RESIDUAL_INTERVAL-th iterate and on iterate
    max_iterations. Returns the first checked (w, r) with r < tol, or
    raises CertificateError, naming the smallest residual checked, if no
    checked iterate reaches it.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    iterates = _projected_gradient(grad, project, np.zeros(d), eta,
                                   accelerated=True, restart=True)
    smallest = math.inf
    for t, w in enumerate(itertools.islice(iterates, max_iterations), 1):
        if t % RESIDUAL_INTERVAL and t < max_iterations:
            continue
        r = float(np.linalg.norm(w - project(w - eta * grad(w))))
        if r < tol:
            return w, r
        smallest = min(smallest, r)
    raise CertificateError(
        f"residual did not fall below {tol} on any checked iterate (every "
        f"{RESIDUAL_INTERVAL}th and the last) within {max_iterations} "
        f"iterations; the smallest checked residual was {smallest:.3g}")


def epoch_subproblem_optimum(instance: ProblemInstance, anchor: np.ndarray,
                             lam: float, inner_radius: float,
                             tol: float = 1e-12,
                             max_iterations: int = 200_000
                             ) -> tuple[np.ndarray, float]:
    """Certified minimizer of the recentered epoch objective
    F(w) = (lam/2)||w||^2 + lam <w, anchor> + G(w + anchor) over the
    two-ball domain, by _certified_minimum with step 1 / (L + lam), L the
    smoothness of G (losses.mean_smoothness).

    Returns (w, distance_bound): F is lam-strongly convex and
    (L + lam)-smooth, so a residual r bounds the distance to the true
    minimizer, ||w - w*|| <= 2 (L + lam) r / lam (Nesterov, Introductory
    Lectures, 2004, Thm 2.2.7, gradient mapping). Gradients here are
    diagnostic and never touch oracle counters. Raises CertificateError (a
    RuntimeError) if no checked residual is below tol within max_iterations.
    """
    domain = EpochDomain(anchor, instance.domain_radius, inner_radius)
    smooth = mean_smoothness(instance) + lam
    w, r = _certified_minimum(
        lambda y: lam * (y + anchor) + mean_gradient(instance, y + anchor),
        lambda v: project_epoch_domain(v, domain), 1.0 / smooth, instance.d,
        tol, max_iterations)
    return w, 2.0 * smooth * r / lam


def run(instance: ProblemInstance, config: MixedGradConfig, seed: int,
        reference_value: float | None = None) -> SolverResult:
    """Full multi-epoch run; returns the final anchor, trace, counters,
    and per-epoch diagnostics.

    Oracle accounting: exactly one full-oracle call per epoch and one
    stochastic call per inner step.
    """
    counters = OracleCounters()
    sampler = SeededSampler(seed)
    trace: list[TraceRecord] = []
    summaries: list[EpochSummary] = []
    R = instance.domain_radius

    state = EpochState(
        epoch_index=1,
        anchor=np.zeros(instance.d),
        delta=config.delta1,
        lam=config.lambda1,
        eta=config.eta1,
        inner_iters=config.t1,
    )
    for _ in range(config.epochs):
        state.anchor_grad = anchor_gradient(instance, state.anchor, state.lam, counters)
        w_tilde, max_step_sq, projections = run_epoch(
            instance, state, sampler, counters, trace,
            config.checkpoint_stride, reference_value)
        next_state = shrink_schedule(state, w_tilde, config.t1)
        # The new anchor is a convex combination of feasible points, so it
        # lies in the R-ball up to roundoff; clamp the tiny excess.
        nrm = float(np.linalg.norm(next_state.anchor))
        if nrm > R:
            if nrm > R + 1e-9:
                raise DivergenceError(
                    f"anchor left the feasible ball after epoch "
                    f"{state.epoch_index}", counters, trace)
            next_state.anchor = project_ball(next_state.anchor, R)
        obj = full_objective(instance, next_state.anchor)
        err = obj - reference_value if reference_value is not None else math.nan
        trace.append(TraceRecord(state.epoch_index, state.inner_iters + 1,
                                 counters.stochastic_calls, counters.full_calls,
                                 obj, err))
        summaries.append(EpochSummary(
            epoch=state.epoch_index, delta=state.delta, lam=state.lam,
            eta=state.eta, inner_iters=state.inner_iters,
            anchor_after=next_state.anchor.copy(), objective_after=obj,
            stoch_calls=counters.stochastic_calls,
            full_calls=counters.full_calls,
            max_step_norm_sq=max_step_sq,
            outer_inactive=EpochDomain(state.anchor, R,
                                       state.delta).outer_inactive,
            projections=projections))
        state = next_state

    return SolverResult(state.anchor, trace, counters, tuple(summaries))

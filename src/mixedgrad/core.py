"""Epoch-based mixed stochastic/full-gradient solver.

Each epoch recenters the problem at the current anchor, adds an L2 term
whose weight shrinks by gamma per epoch, computes one exact averaged
gradient at the anchor, and then runs variance-reduced projected
stochastic steps inside a domain whose radius also shrinks by gamma.
The number of inner steps grows by gamma^2 per epoch: epoch k runs
T_k = round(T1 * gamma^{2(k-1)}) steps (half to even), so the stochastic
budget after m epochs is their sum, which is T1 * (gamma^{2m} - 1) /
(gamma^2 - 1) exactly when every T1 * gamma^{2(k-1)} is an integer (as
for gamma = 2).

run_epoch is the one inner-step path, and the tests check the
variance-reduction invariants on it. It reuses each step's arithmetic: the
fast-path norms feed geometry's projection kernel, and w + anchor is carried
to the next step. Each epoch's summary counts the steps that left the fast
path, by projection branch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (BOTH, INNER, OUTER, EpochDomain, _norm,
                       _project_two_balls, project_ball, project_epoch_domain)
from .losses import (ProblemInstance, _loss_derivative, _loss_derivatives,
                     full_objective, mean_gradient)
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


@dataclass(frozen=True)
class MixedGradConfig:
    eta1: float                # first-epoch step size
    delta1: float              # first-epoch domain radius
    t1: int                    # first-epoch inner iteration count
    epochs: int                # number of epochs m
    lambda1: float             # first-epoch regularization weight
    gamma: float = 2.0         # per-epoch shrink factor
    checkpoint_stride: int = 100

    def __post_init__(self):
        if not (self.eta1 > 0 and self.delta1 > 0 and self.lambda1 > 0):
            raise ValueError("eta1, delta1, lambda1 must be positive")
        if self.t1 < 1 or self.epochs < 1 or self.checkpoint_stride < 1:
            raise ValueError("t1, epochs, checkpoint_stride must be >= 1")
        if not self.gamma > 1:
            raise ValueError("gamma must exceed 1")


def theory_params(beta: float, radius: float, failure_prob: float,
                  epochs: int) -> MixedGradConfig:
    """Config from the high-probability analysis: gamma=2, lambda1=16*beta,
    Delta1=R, T1=ceil(300 ln(m/delta)), eta1=1/(2 beta sqrt(3 T1))."""
    if not (beta > 0 and radius > 0 and epochs >= 1):
        raise ValueError("beta, radius must be positive and epochs >= 1")
    if not 0 < failure_prob <= MAX_FAILURE_PROBABILITY:
        raise ValueError(
            f"failure probability must lie in (0, e^-4.5 ~ "
            f"{MAX_FAILURE_PROBABILITY:.4g}]")
    t1 = math.ceil(300.0 * math.log(epochs / failure_prob))
    eta1 = 1.0 / (2.0 * beta * math.sqrt(3.0 * t1))
    return MixedGradConfig(eta1=eta1, delta1=radius, t1=t1, epochs=epochs,
                           lambda1=16.0 * beta, gamma=2.0)


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


def run_epoch(instance: ProblemInstance, state: EpochState,
              sampler: SeededSampler, counters: OracleCounters,
              trace: list[TraceRecord] | None = None,
              checkpoint_stride: int = 100,
              reference_value: float | None = None
              ) -> tuple[np.ndarray, float, ProjectionCounts]:
    """One epoch of inner stochastic steps starting from 0.

    Returns the uniform average over the inner_iters + 1 iterates, the
    largest squared norm of (gradient correction + lam * w) seen, a
    diagnostic for the bounded-step property, and the steps that left the
    projection fast path, counted by branch. Checkpoints are appended to
    the trace every checkpoint_stride steps; their objective evaluations
    do not touch the oracle counters.

    Each step is w <- P_domain(w - eta * (anchor_grad + ((grad g_i(w +
    anchor) - grad g_i(anchor)) + lam * w))), written out to reuse its own
    arithmetic: w + anchor is carried from step to step (the margin operand
    and the checkpoint point), and the fast-path norms feed the projection
    kernel. Anchor and step margins are both row dots, so at w = 0 the
    correction is exactly 0.
    """
    anchor = state.anchor
    g_k = state.anchor_grad
    if g_k is None:
        raise ValueError("epoch state is missing the anchor gradient")
    T = state.inner_iters
    # numpy multiplies an array by a 0-d array faster than by a Python
    # float, with the same result.
    lam, eta = np.array(state.lam), np.array(state.eta)
    delta = state.delta
    R = instance.domain_radius
    domain = EpochDomain(anchor, R, delta)
    n = instance.n
    X = instance.dataset.features
    y = instance.dataset.labels
    kind = instance.loss_kind

    # Per-example gradients at the anchor are fixed for the whole epoch;
    # cache them once (pure caching, no extra oracle access). vecdot rounds
    # each margin as the step's row dot does; X @ anchor may not.
    anchor_rows = _loss_derivatives(y, np.vecdot(X, anchor), kind)[:, None] * X

    w = np.zeros(instance.d)
    w_anchor = w + anchor
    mean = w.copy()            # running mean over iterates seen so far
    count = 1.0                # a float: dividing by it is cheaper, same bits
    max_step_sq = 0.0
    branches = [0, 0, 0]       # projection-branch tally, by INNER/OUTER/BOTH
    indices = sample_losses(sampler, counters, n, T)
    for t, i in enumerate(indices, 1):
        x = X[i]
        coef = _loss_derivative(y[i], float(w_anchor.dot(x)), kind)
        step_vec = (coef * x - anchor_rows[i]) + lam * w
        step_sq = step_vec.dot(step_vec)
        if step_sq > max_step_sq:
            max_step_sq = step_sq
        v = w - eta * (g_k + step_vec)
        v_sq = v.dot(v)
        v_norm = math.sqrt(v_sq)
        u = v + anchor
        u_norm = math.sqrt(u.dot(u))
        # Projection fast path: inside both balls means no work.
        if v_norm <= delta and u_norm <= R:
            w = v
            w_anchor = u
        else:
            # A NaN or infinite entry makes v_sq non-finite, so such a v
            # never takes the fast path, and a finite v_sq proves v finite.
            # A finite v whose square overflows gets rescaled norms.
            if not math.isfinite(v_sq):
                if not np.isfinite(v).all():
                    raise DivergenceError(
                        f"non-finite iterate at epoch {state.epoch_index}, "
                        f"step {t}", counters, trace)
                v_norm, u_norm = _norm(v), _norm(u)
            w, branch = _project_two_balls(v, v_norm, u, u_norm, domain)
            branches[branch] += 1
            w_anchor = w + anchor
        count += 1.0
        mean += (w - mean) / count
        if trace is not None and t % checkpoint_stride == 0:
            obj = full_objective(instance, w_anchor)
            err = obj - reference_value if reference_value is not None else math.nan
            trace.append(TraceRecord(state.epoch_index, t,
                                     counters.stochastic_calls,
                                     counters.full_calls, obj, err))
    projections = ProjectionCounts(
        branches[INNER], branches[OUTER], branches[BOTH])
    return mean, float(max_step_sq), projections


def shrink_schedule(state: EpochState, gamma: float, w_tilde: np.ndarray,
                    t1: int) -> EpochState:
    """Advance to the next epoch: shift the anchor by the epoch average and
    divide delta/lam/eta by gamma.

    The step budget of epoch k + 1 is T_{k+1} = round(t1 * gamma^{2k}),
    rounded half to even (Python's round), from the first-epoch budget t1
    directly, so rounding does not compound from epoch to epoch.
    """
    k = state.epoch_index
    return EpochState(
        epoch_index=k + 1,
        anchor=state.anchor + w_tilde,
        delta=state.delta / gamma,
        lam=state.lam / gamma,
        eta=state.eta / gamma,
        inner_iters=int(round(t1 * gamma ** (2 * k))),
        anchor_grad=None,
    )


def _projected_gradient(grad, project, w: np.ndarray, eta: float,
                        accelerated: bool = False):
    """Projected gradient iterates w_t = project(y_t - eta * grad(y_t)),
    t = 1, 2, ..., without end: each caller bounds and stops them.

    y_t = w_{t-1}, or when accelerated Nesterov's extrapolated point
    w_{t-1} + ((theta_t - 1) / theta_{t+1}) (w_{t-1} - w_{t-2}) with
    theta_1 = 1, theta_{t+1} = (1 + sqrt(1 + 4 theta_t^2)) / 2 and
    w_{-1} = w_0 (so the first step is a plain one). A non-finite point
    raises DivergenceError, without counters or trace, before projection.
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
        if not np.isfinite(v).all():
            raise DivergenceError(f"non-finite iterate at step {t}")
        w_prev, w = w, project(v)
        yield w


def epoch_subproblem_optimum(instance: ProblemInstance, anchor: np.ndarray,
                             lam: float, inner_radius: float,
                             tol: float = 1e-12,
                             max_iterations: int = 200_000) -> np.ndarray:
    """Deterministic high-precision minimizer of the recentered epoch
    objective (lam/2)||w||^2 + lam <w, anchor> + G(w + anchor) over the
    two-ball domain, by projected gradient descent.

    Gradients here are diagnostic and never touch oracle counters. Raises
    RuntimeError if no step is shorter than tol within max_iterations.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    domain = EpochDomain(anchor, instance.domain_radius, inner_radius)
    eta = 1.0 / (instance.smoothness + lam)
    w = np.zeros(instance.d)
    iterates = _projected_gradient(
        lambda y: lam * (y + anchor) + mean_gradient(instance, y + anchor),
        lambda v: project_epoch_domain(v, domain), w, eta)
    for w_next in itertools.islice(iterates, max_iterations):
        if np.linalg.norm(w_next - w) < tol:
            return w_next
        w = w_next
    raise RuntimeError(f"epoch subproblem did not converge to tolerance {tol} "
                       f"within {max_iterations} iterations")


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
        next_state = shrink_schedule(state, config.gamma, w_tilde, config.t1)
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
            max_step_norm_sq=max_step_sq, projections=projections))
        state = next_state

    return SolverResult(state.anchor, trace, counters, tuple(summaries))

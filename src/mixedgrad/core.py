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
grad g_i(anchor) is one scalar times x_i, from the row's anchor margin and
loss derivative. The iterate is held in scalar form, w = alpha z +
beta g_k + gamma anchor (the lazy scaling of Pegasos, Shalev-Shwartz et
al., Math. Prog. 2011), with ||w||^2, w.g_k and w.anchor kept as Python
floats, and its projection is geometry._two_ball_coefficients on ||v||^2
and v.anchor. A step that kernel cannot decide (both balls active, or a
square that is not finite or is negative) is taken on the explicit point
with geometry._project_two_balls. The steps run in the short blocks of
_blocks, which baselines.run_sgd iterates too: a block ends at each
checkpoint, draws and gathers its rows once, and its Gram matrix gives
each step's z.x_i, so a step is one dot over the block and scalar
updates. One product gives the rows' anchor margins and their dots with
g_k and z, and z and the epoch average (the lazy sum of averaged SGD, Xu,
arXiv:1107.2490) are updated, and the form folded, once per block. Each
epoch's summary counts the steps that left the fast path, by projection
branch, and records whether its Delta-ball was certified inside the
R-ball (EpochDomain.outer_inactive). Every solver writes its trace
records, and builds its DivergenceError, through one _Trace.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np

from .geometry import (BOTH, INNER, OUTER, EpochDomain, _project_two_balls,
                       _two_ball_coefficients, project_ball)
# project_epoch_domain and the single-call sampler stay importable from
# here: perfbench/tracer.py wraps mixedgrad.core.project_epoch_domain and
# mixedgrad.core.sample_loss by name.
from .geometry import project_epoch_domain  # noqa: F401
from .losses import (ROW_BLOCK, ProblemInstance, _loss_derivative,
                     _loss_derivatives, _objectives)
# full_objective stays importable from here: perfbench/tracer.py wraps
# mixedgrad.core.full_objective by name.
from .losses import full_objective  # noqa: F401
from .oracle import OracleCounters, SeededSampler, full_grad, sample_losses
from .oracle import sample_loss  # noqa: F401

# Largest failure probability (delta) the theory_params formulas
# accept: exp(-9/2).
MAX_FAILURE_PROBABILITY = math.exp(-4.5)


class DivergenceError(RuntimeError):
    """Raised by a solver (run and baselines.run_sgd, run_gd, run_nag) whose
    iterate stops being finite, or whose anchor leaves the R-ball.

    Only _Trace.diverged builds it, so it always carries the oracle
    counters and the trace records the run had reached, every record's
    objective evaluated.
    """

    def __init__(self, message: str, counters: OracleCounters,
                 trace: list[TraceRecord]):
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
    _check_count("epochs", epochs)
    if (isinstance(failure_prob, bool)
            or not isinstance(failure_prob, numbers.Real)
            or not 0 < failure_prob <= MAX_FAILURE_PROBABILITY):
        raise ValueError(
            f"failure_prob must be a real number in (0, e^-4.5 ~ "
            f"{MAX_FAILURE_PROBABILITY:.4g}], got {failure_prob!r}")
    if not (beta > 0 and radius > 0):
        raise ValueError("beta, radius must be positive")
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
    """Mutable per-epoch quantities of the solver. The anchor gradient is
    not one of them: run computes it at each epoch's start and passes it
    to run_epoch."""

    epoch_index: int           # k, starting at 1
    anchor: np.ndarray         # running solution the epoch recenters on
    delta: float               # inner domain radius
    lam: float                 # regularization weight
    eta: float                 # step size
    inner_iters: int           # number of stochastic steps this epoch


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
    # outer_inactive), so no scalar step computed ||v + anchor||.
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


class _Trace:
    """The trace of one solver run: its records, and the points whose
    objectives are still owed.

    checkpoint appends a record with the counters of its moment and queues
    its point; flush fills the queued records' objective (and error, given
    a reference value) from one losses._objectives call, which touches no
    oracle counter. checkpoint flushes once max(1, ROW_BLOCK // d) points
    are queued, so the queue holds at most ROW_BLOCK entries (one point
    when d exceeds it). A solver flushes at the end of its run (run: after
    each epoch's end record, so an epoch's queued checkpoints and its end
    record share one call) and raises what diverged returns, so every
    record it hands back has its objective. diverged is the one place that
    builds a DivergenceError.
    """

    def __init__(self, instance: ProblemInstance,
                 reference_value: float | None = None):
        self.records: list[TraceRecord] = []
        self._instance = instance
        self._reference_value = reference_value
        self._queue: list[np.ndarray] = []

    def checkpoint(self, point: np.ndarray, epoch: int, step: int,
                   counters: OracleCounters) -> None:
        self.records.append(TraceRecord(
            epoch, step, counters.stochastic_calls, counters.full_calls,
            math.nan, math.nan))
        self._queue.append(point)
        if len(self._queue) >= max(1, ROW_BLOCK // self._instance.d):
            self.flush()

    def flush(self) -> None:
        if not self._queue:
            return
        P = np.array(self._queue)
        self._queue.clear()    # before _objectives adds its temporaries
        objectives = _objectives(self._instance, P).tolist()
        for record, obj in zip(self.records[-len(P):], objectives):
            record.objective = obj
            if self._reference_value is not None:
                record.error = obj - self._reference_value

    def diverged(self, message: str, counters: OracleCounters):
        """Flush, and return the DivergenceError carrying counters and the
        records."""
        self.flush()
        return DivergenceError(message, counters, self.records)


def anchor_gradient(instance: ProblemInstance, anchor: np.ndarray, lam: float,
                    counters: OracleCounters) -> np.ndarray:
    """lam * anchor + averaged gradient at the anchor (one full-oracle call)."""
    return lam * anchor + full_grad(instance, anchor, counters)


# The step keeps w = alpha z + beta g_k + gamma anchor only while each
# coefficient lies in this range; a step outside it is taken on the explicit
# point, which resets the form to w = z.
COEFFICIENT_RANGE = (1e-2, 1e2)

# Most steps in one block of _blocks: the fastest cap from 100 to 250 for
# both stochastic loops at d = 20 and 50 (CHANGES.md). STEP_BLOCK^2 <=
# ROW_BLOCK keeps a block's Gram matrix within ROW_BLOCK entries.
STEP_BLOCK = 100


def _blocks(instance: ProblemInstance, sampler: SeededSampler,
            counters: OracleCounters, T: int, stride: int):
    """The blocks of T stochastic steps that run_epoch and
    baselines.run_sgd iterate, as (t, end, XB, yB, xxs, G, kb, qb).

    Steps t + 1, ..., end form one block, t being the steps taken before
    it. A block ends at the next multiple of stride (a checkpoint) or at T,
    and has at most min(STEP_BLOCK, ROW_BLOCK // d) steps, at least one, so
    neither its rows nor its Gram matrix exceed ROW_BLOCK entries. It draws
    its indices in one oracle.sample_losses call, which counts them at
    once (a loop that stops inside the block sets the stochastic counter
    back to the steps it took), and gathers with them, once, its rows XB,
    its labels yB and their ||x_i||^2 (instance._row_sq) as the list of
    floats xxs. G = XB XB^T gives step l's z.x_i as z0.x_i + kb.G_l, where
    z0 is z at the block's start (or at its last explicit step) and kb,
    zeroed here, holds the block's additions k to z (zero past step l);
    qb, zeroed here, holds the lazy sum's coefficients A k. Each loop ends
    the block with z += kb XB and total -= qb XB, so z and the running sum
    of the iterates are updated once per block, not once per step.
    """
    X, labels = instance.dataset.features, instance.dataset.labels
    cap = max(1, min(STEP_BLOCK, ROW_BLOCK // instance.d))
    t = 0
    while t < T:
        span = min(cap, stride - t % stride, T - t)
        idx = sample_losses(sampler, counters, instance.n, span)
        XB = X[idx]
        yield (t, t + span, XB, labels[idx], instance._row_sq[idx].tolist(),
               XB @ XB.T, np.zeros(span), np.zeros(span))
        t += span


def _products(w: np.ndarray, g_k: np.ndarray, anchor: np.ndarray
              ) -> tuple[float, float, float]:
    """w.w, w.g_k and w.anchor, the scalars run_epoch keeps with w."""
    return float(w.dot(w)), float(w.dot(g_k)), float(w.dot(anchor))


@np.errstate(invalid="ignore", over="ignore")
def run_epoch(instance: ProblemInstance, state: EpochState, g_k: np.ndarray,
              sampler: SeededSampler, counters: OracleCounters,
              trace: _Trace, checkpoint_stride: int = 100
              ) -> tuple[np.ndarray, float, ProjectionCounts]:
    """One epoch of inner stochastic steps starting from 0, with g_k the
    anchor gradient (anchor_gradient at state.anchor and state.lam).

    Returns the sum of the inner_iters + 1 iterates over inner_iters + 1,
    the largest squared norm of (gradient correction + lam * w) seen, a
    diagnostic for the bounded-step property, and the steps that left the
    projection fast path, counted by branch. Checkpoints, with the
    counters of their step, are written to trace (a _Trace) every
    checkpoint_stride steps before step inner_iters, where run's
    epoch-end record, with the same counters, stands for one. run_epoch
    does not flush the trace: records it queued may still lack their
    objective when it returns, and run's flush after the epoch-end record
    evaluates them with it.

    Each step is w <- P_domain(v), v = w (1 - eta lam) - eta g_k -
    (eta c) x_i, where c x_i = grad g_i(w + anchor) - grad g_i(anchor), c
    the difference of the loss derivatives at the margins w.x_i + anchor.x_i
    and anchor.x_i. The iterate is held as w = alpha z + beta g_k +
    gamma anchor, with ||w||^2, w.g_k and w.anchor as Python floats. v
    and every projection branch but BOTH are in the span of w, g_k, x_i
    and anchor, so a step updates
    (alpha, beta, gamma) and the three products in scalars and adds
    k x_i to z, k = -eta c / ((1 - eta lam) alpha). The projection is
    geometry._two_ball_coefficients on ||v||^2 and v.anchor. A step it
    returns BOTH for (both balls active, or a square that is not finite or
    is negative), or whose coefficients before the projection leave
    COEFFICIENT_RANGE, forms v and projects it with
    geometry._project_two_balls, whose branch is the one counted, and
    recomputes the three products from the point it returns; a NaN or
    infinite v makes that kernel raise ValueError, which run_epoch turns
    into trace.diverged's DivergenceError.

    The steps run in _blocks' blocks. One product XB [z, g_k, anchor] at
    a block's start gives each step's z0.x_i, g_k.x_i and anchor.x_i, and
    losses._loss_derivatives the anchor loss derivatives; the steps take
    them, the labels and ||x_i||^2 in order, as floats, and read z.x_i
    from the Gram matrix. An explicit step adds kb XB to z first and then
    takes z0.x_i for the rest of the block from one XB z; G stays valid.
    Every block ends by closing the lazy sum (below) and, unless the epoch
    ends there, folding the form: z <- w, the coefficients reset and the
    three products recomputed from z. So no scalar form outlives its
    block, and the carried ||w||^2 never drifts for more than one block,
    whatever checkpoint_stride is; a checkpoint only decides whether a
    record of the folded w is written.

    The average is the lazy sum of averaged SGD. A block end or an explicit
    step adds A z + B g_k + C anchor to a running sum, A, B and C being the
    sums of alpha, beta and gamma since the last one, and restarts them.
    Each addition k x_i to z adds A k to the block's coefficient qb_l, and
    the block's end subtracts qb XB after its z += kb XB, so at the epoch's
    end the running sum is the iterates' sum. An epoch keeps no state per
    row and makes no pass over X. The bounded-step diagnostic is the
    scalar c^2 ||x_i||^2 + 2 c lam (w.x_i) + lam^2 ||w||^2. At w = 0 the
    margin w.x_i is 0.0, so the correction and the diagnostic are exactly
    0. An infinite eta or lam makes 0 * inf on the first step, and a huge
    one can overflow v: numpy's warnings for them are silenced. A
    DivergenceError leaves the stochastic counter at the steps taken.
    """
    anchor = state.anchor
    T = state.inner_iters
    lam, eta = state.lam, state.eta
    domain = EpochDomain(anchor, instance.domain_radius, state.delta)
    kind = instance.loss_kind
    shrink = 1.0 - eta * lam
    two_lam, lam_sq = 2.0 * lam, lam * lam
    g_sq, ga = float(g_k.dot(g_k)), float(g_k.dot(anchor))
    a_sq = domain.anchor_sq
    v_base = eta * eta * g_sq          # ||eta g_k||^2
    # The step's constant products, rounded as the step would round them.
    shrink_sq, shrink_eta = shrink * shrink, shrink * eta
    eta_g_sq, eta_ga = eta * g_sq, eta * ga
    low, high = COEFFICIENT_RANGE
    neg_high = -high

    def combine(cz, cg, ca):
        return z * cz + (g_k * cg + anchor * ca)

    z = np.zeros(instance.d)
    alpha, beta, gamma = 1.0, 0.0, 0.0
    w_sq = wg = wa = 0.0       # ||w||^2, w.g_k, w.anchor
    total = z.copy()           # running sum of the iterates
    A = B = C = 0.0            # alpha, beta, gamma summed since total grew
    zga = np.empty((instance.d, 3))
    zga[:, 1], zga[:, 2] = g_k, anchor
    max_step_sq = 0.0
    branches = [0, 0, 0, 0]    # steps by projection branch (geometry's indices)
    calls = counters.stochastic_calls
    for t, end, XB, yB, xxs, G, kb, qb in _blocks(
            instance, sampler, counters, T, checkpoint_stride):
        zga[:, 0] = z
        margins = XB @ zga
        zx0, gxs, axs = margins.T.tolist()
        d_anchors = _loss_derivatives(yB, margins[:, 2], kind).tolist()
        for l, (y, xx, G_l, gx, ax, d_anchor) in enumerate(
                zip(yB.tolist(), xxs, G, gxs, axs, d_anchors)):
            wx = alpha * (zx0[l] + float(kb.dot(G_l))) + beta * gx + gamma * ax
            c = _loss_derivative(y, wx + ax, kind) - d_anchor
            # ||c * x_i + lam * w||^2, expanded into scalars.
            step_sq = c * c * xx + two_lam * c * wx + lam_sq * w_sq
            if step_sq > max_step_sq:
                max_step_sq = step_sq
            # v = shrink w - eta g_k + m x_i = alpha_v z + beta_v g_k
            # + gamma_v a + m x_i, and its products.
            m = -eta * c
            alpha_v, beta_v = shrink * alpha, shrink * beta - eta
            gamma_v = shrink * gamma
            v_sq = (shrink_sq * w_sq + v_base + m * m * xx
                    + 2.0 * (m * (shrink * wx - eta * gx) - shrink_eta * wg))
            va = shrink * wa - eta_ga + m * ax
            k_v, k_a, branch, w_sq = _two_ball_coefficients(v_sq, va, domain)
            if (branch != BOTH and low <= alpha_v <= high
                    and neg_high <= beta_v <= high
                    and neg_high <= gamma_v <= high):
                k = m / alpha_v
                kb[l] = k
                qb[l] = A * k
                alpha, beta = k_v * alpha_v, k_v * beta_v
                gamma = k_v * gamma_v + k_a
                wg = k_v * (shrink * wg - eta_g_sq + m * gx) + k_a * ga
                wa = k_v * va + k_a * a_sq
            else:
                z += kb @ XB
                total -= qb @ XB
                kb[:] = qb[:] = 0.0
                v = combine(alpha_v, beta_v, gamma_v) + m * XB[l]
                total += combine(A, B, C)
                A = B = C = 0.0
                try:
                    z, branch = _project_two_balls(v, domain)
                except ValueError:
                    counters.stochastic_calls = calls + t + l + 1
                    raise trace.diverged(
                        f"non-finite iterate at epoch {state.epoch_index}, "
                        f"step {t + l + 1}", counters) from None
                alpha, beta, gamma = 1.0, 0.0, 0.0
                w_sq, wg, wa = _products(z, g_k, anchor)
                zx0 = (XB @ z).tolist()
            branches[branch] += 1
            A += alpha
            B += beta
            C += gamma
        z += kb @ XB
        total -= qb @ XB
        total += combine(A, B, C)
        A = B = C = 0.0
        # No fold ends the epoch, and run's epoch-end record (step T + 1)
        # stands for a checkpoint at T.
        if end < T:
            z = combine(alpha, beta, gamma)
            alpha, beta, gamma = 1.0, 0.0, 0.0
            w_sq, wg, wa = _products(z, g_k, anchor)
            if end % checkpoint_stride == 0:
                trace.checkpoint(z + anchor, state.epoch_index, end, counters)
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
    )


def _projected_gradient(grad, project, w: np.ndarray, eta: float,
                        accelerated: bool = False, restart: bool = False):
    """Projected gradient iterates w_t = project(y_t - eta * grad(y_t)),
    t = 1, 2, ..., without end: each caller bounds and stops them.

    y_t = w_{t-1}, or when accelerated Nesterov's extrapolated point
    w_{t-1} + ((theta_t - 1) / theta_{t+1}) (w_{t-1} - w_{t-2}) with
    theta_1 = 1, theta_{t+1} = (1 + sqrt(1 + 4 theta_t^2)) / 2 and
    w_{-1} = w_0 (so the first step is a plain one). project must reject a
    non-finite point with ValueError, which passes to the caller: the
    failing step is the one after the last iterate yielded, and each
    caller turns it into its own error.

    With restart (accelerated only; used by _certified_minimum, never by
    run_nag) the momentum is reset by the gradient rule of
    O'Donoghue and Candes: whenever (y_t - w_t) . (w_t - w_{t-1}) > 0,
    theta is set back to 1, so the next extrapolated point is w_t itself.
    """
    w_prev = w
    theta_prev = 1.0
    while True:
        y = w
        if accelerated:
            theta = (1.0 + math.sqrt(1.0 + 4.0 * theta_prev * theta_prev)) / 2.0
            y = w + ((theta_prev - 1.0) / theta) * (w - w_prev)
            theta_prev = theta
        w_prev, w = w, project(y - eta * grad(y))
        if restart and (y - w).dot(w - w_prev) > 0:
            theta_prev = 1.0
        yield w


# A certificate costs a gradient, as much as a step, so _certified_minimum
# checks it only on every RESIDUAL_INTERVAL-th iterate (and on the last one
# before the iteration cap).
RESIDUAL_INTERVAL = 10


class CertificateError(RuntimeError):
    """A certified minimization failed: it reached its iteration cap before
    any checked iterate's residual fell below the tolerance, or one of its
    points was not finite."""


@np.errstate(over="ignore")
def _certified_minimum(grad, project, eta: float, d: int, tol: float,
                       max_iterations: int) -> tuple[np.ndarray, float]:
    """Minimize a convex F over a convex set by restarted accelerated
    projected gradient from 0 (uncounted gradients), with step eta at most
    1 / (smoothness of F). numpy's overflow warning is silenced once, for
    the whole solve: project may be a geometry kernel, which squares its
    point without a warning guard of its own.

    The certificate is the gradient-mapping residual
    r = ||w - project(w - eta * grad(w))||, zero exactly at the minimizer;
    it is checked on every RESIDUAL_INTERVAL-th iterate and on iterate
    max_iterations. Returns the first checked (w, r) with r < tol, or
    raises CertificateError, naming the smallest residual checked, if no
    checked iterate reaches it. If project rejects a point as non-finite,
    whether the step to iterate t + 1 or the residual check of iterate t
    formed it, the CertificateError names step t + 1.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    iterates = _projected_gradient(grad, project, np.zeros(d), eta,
                                   accelerated=True, restart=True)
    smallest, t = math.inf, 0
    try:
        for t, w in enumerate(itertools.islice(iterates, max_iterations), 1):
            if t % RESIDUAL_INTERVAL and t < max_iterations:
                continue
            r = float(np.linalg.norm(w - project(w - eta * grad(w))))
            if r < tol:
                return w, r
            smallest = min(smallest, r)
    except ValueError:
        raise CertificateError(f"non-finite iterate at step {t + 1}") from None
    raise CertificateError(
        f"residual did not fall below {tol} on any checked iterate (every "
        f"{RESIDUAL_INTERVAL}th and the last) within {max_iterations} "
        f"iterations; the smallest checked residual was {smallest:.3g}")


def run(instance: ProblemInstance, config: MixedGradConfig, seed: int,
        reference_value: float | None = None) -> SolverResult:
    """Full multi-epoch run; returns the final anchor, trace, counters,
    and per-epoch diagnostics.

    Oracle accounting: exactly one full-oracle call per epoch and one
    stochastic call per inner step.
    """
    counters = OracleCounters()
    sampler = SeededSampler(seed)
    trace = _Trace(instance, reference_value)
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
        g_k = anchor_gradient(instance, state.anchor, state.lam, counters)
        w_tilde, max_step_sq, projections = run_epoch(
            instance, state, g_k, sampler, counters, trace,
            config.checkpoint_stride)
        next_state = shrink_schedule(state, w_tilde, config.t1)
        # The new anchor is a convex combination of feasible points, so it
        # lies in the R-ball up to roundoff; clamp the tiny excess.
        nrm = float(np.linalg.norm(next_state.anchor))
        if nrm > R:
            if nrm > R + 1e-9:
                raise trace.diverged(f"anchor left the feasible ball after "
                                     f"epoch {state.epoch_index}", counters)
            next_state.anchor = project_ball(next_state.anchor, R)
        trace.checkpoint(next_state.anchor, state.epoch_index,
                         state.inner_iters + 1, counters)
        trace.flush()
        summaries.append(EpochSummary(
            epoch=state.epoch_index, delta=state.delta, lam=state.lam,
            eta=state.eta, inner_iters=state.inner_iters,
            anchor_after=next_state.anchor.copy(),
            objective_after=trace.records[-1].objective,
            stoch_calls=counters.stochastic_calls,
            full_calls=counters.full_calls,
            max_step_norm_sq=max_step_sq,
            outer_inactive=EpochDomain(state.anchor, R,
                                       state.delta).outer_inactive,
            projections=projections))
        state = next_state

    return SolverResult(state.anchor, trace.records, counters,
                        tuple(summaries))

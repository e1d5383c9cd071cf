"""Reference solvers: projected SGD, projected full-gradient descent, and
Nesterov's accelerated gradient, all over the R-ball.

Their convergence regimes (error ~ 1/sqrt(T), 1/T, 1/T^2 respectively on
smooth convex problems) are what the benchmark harness measures slopes
against. Each starts from 0, counts its own oracle calls, writes its
checkpoints and its DivergenceError through a core._Trace and returns a
core.SolverResult, as core.run does. SGD touches only the stochastic
counter; GD and NAG only the full-gradient counter.

SGD's step has core.run_epoch's scalar form: the iterate is held as
w = alpha z with ||w||^2 a Python float (the lazy scaling of Pegasos), and
a projection onto the R-ball only rescales alpha; a step the scalars
cannot decide is taken on the explicit point with the ball kernel. Its
steps run in core._blocks' blocks, as run_epoch's do, whose Gram matrix
gives each step's margin, so a step is one dot over the block and scalar
updates. Its average is run_epoch's lazy sum (averaged SGD, Xu,
arXiv:1107.2490), and each block ends with one product that adds the
block's steps to z, one that closes the lazy sum, and a fold of the form.
GD and NAG run core._projected_gradient with the ball kernel, one call
per iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import (COEFFICIENT_RANGE, SolverResult, _blocks, _check_counts,
                   _check_positive, _projected_gradient, _Trace)
from .geometry import _project_ball
# project_ball stays importable from here: perfbench/tracer.py wraps
# mixedgrad.baselines.project_ball by name.
from .geometry import project_ball  # noqa: F401
from .losses import ProblemInstance, _loss_derivative
# full_objective and loss_grad stay importable from here:
# perfbench/tracer.py wraps mixedgrad.baselines.full_objective and
# mixedgrad.baselines.loss_grad by name.
from .losses import full_objective, loss_grad  # noqa: F401
from .oracle import OracleCounters, SeededSampler, full_grad
# The single-call sampler stays importable from here: perfbench/tracer.py
# wraps mixedgrad.baselines.sample_loss by name.
from .oracle import sample_loss  # noqa: F401

SGD = "sgd"
GD = "gd"
NAG = "nag"
METHODS = (SGD, GD, NAG)


@dataclass(frozen=True)
class BaselineConfig:
    method: str
    iterations: int
    step_scale: float | None = None   # c; None picks a per-method default
    checkpoint_stride: int = 100

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method!r}")
        _check_counts(self, ("iterations", "checkpoint_stride"))
        if self.step_scale is not None:
            _check_positive("step_scale", self.step_scale)


@np.errstate(over="ignore")
def run_sgd(instance: ProblemInstance, config: BaselineConfig, seed: int,
            reference_value: float | None = None) -> SolverResult:
    """Projected SGD with step c/sqrt(t); its point (and each
    checkpoint's) is the average of the iterates w_0 = 0, ..., w_t, taken
    as their running sum over their count.

    Step t is w <- P_R(v), v = w + m x_i, with m = -eta_t g, eta_t =
    c/sqrt(t) and g the loss derivative at the margin w.x_i. The iterate
    is held as w = alpha z with ||w||^2 a Python float, so a step adds
    k x_i to z, k = m / alpha, and updates scalars: ||v||^2 = ||w||^2 +
    2 m (w.x_i) + m^2 ||x_i||^2 decides the R-ball test, and a projection
    only scales alpha by R / ||v||. A step whose square is not finite or
    is negative, or whose projection would take alpha below
    core.COEFFICIENT_RANGE, forms v and projects it with the ball kernel
    (geometry._project_ball), whose ValueError for a non-finite v raises
    DivergenceError with the stochastic counter at the steps taken; the
    form restarts there at w = z.

    The steps run in core._blocks' blocks. One product XB z0, taken at a
    block's first addition, gives the rows' z0.x_i, and the Gram matrix
    then gives each step's; z += kb XB once, when the block ends or before
    an explicit step. While kb is zero (from the block's start or an
    explicit step to the next addition) alpha is 1 and the margin is the
    dot z.x_i, so a run of explicit steps does the reference's arithmetic.
    The average is run_epoch's lazy sum: a restart or a block end adds
    A z to a running sum, A the sum of alpha since the last one, and each
    addition k x_i stores A k as the block's coefficient qb_l. Every block
    ends the same way: z += kb XB, total -= qb XB (sum_j q_j x_j is
    linear, so each term may be subtracted at any time before the point
    is read), total += A z, and a fold of the form, z <- w, alpha = 1,
    with ||w||^2 recomputed from z, so no scalar form outlives its block;
    a checkpoint only decides whether the point is recorded there. numpy's
    overflow warning is silenced once for the whole run."""
    if config.method != SGD:
        raise ValueError("config.method must be 'sgd'")
    R = instance.domain_radius
    c = config.step_scale
    if c is None:
        c = R * math.sqrt(instance.n) / instance.smoothness
    counters = OracleCounters()
    sampler = SeededSampler(seed)
    trace = _Trace(instance, reference_value)
    kind = instance.loss_kind
    low = COEFFICIENT_RANGE[0]
    T, stride = config.iterations, config.checkpoint_stride
    z = np.zeros(instance.d)
    alpha, w_sq = 1.0, 0.0     # w = alpha z, ||w||^2
    total = z.copy()           # running sum of the iterates
    A = 0.0                    # alpha summed since total grew
    for t, end, XB, yB, xxs, G, kb, qb in _blocks(instance, sampler,
                                                  counters, T, stride):
        zx0 = None             # rows' z.x_i; None while kb is 0 (alpha 1)
        for l, (G_l, y, xx) in enumerate(zip(G, yB.tolist(), xxs)):
            # loss_grad written out.
            if zx0 is None:
                wx = float(z.dot(XB[l]))
            else:
                wx = alpha * (zx0[l] + float(kb.dot(G_l)))
            eta = c / math.sqrt(t + l + 1)
            m = -eta * _loss_derivative(y, wx, kind)
            v_sq = w_sq + 2.0 * m * wx + m * m * xx
            scale = 0.0        # a square that is not finite or is negative
            if 0.0 <= v_sq < math.inf:
                v_norm = math.sqrt(v_sq)
                scale = 1.0 if v_norm <= R else R / v_norm
            if alpha * scale >= low:
                if zx0 is None:
                    zx0 = (XB @ z).tolist()
                k = m / alpha
                kb[l] = k
                qb[l] = A * k
                alpha *= scale
                w_sq = scale * scale * v_sq
            else:
                if zx0 is not None:
                    z += kb @ XB
                    total -= qb @ XB
                    kb[:] = qb[:] = 0.0
                    zx0 = None
                total += z * A
                A = 0.0
                try:
                    z = _project_ball(z * alpha + m * XB[l], R)
                except ValueError:
                    counters.stochastic_calls = t + l + 1
                    raise trace.diverged(f"non-finite iterate at step "
                                         f"{t + l + 1}", counters) from None
                alpha, w_sq = 1.0, float(z.dot(z))
            A += alpha
        z += kb @ XB
        total -= qb @ XB
        total += z * A
        A = 0.0
        z *= alpha
        alpha, w_sq = 1.0, float(z.dot(z))
        if end % stride == 0 or end == T:
            point = total / (end + 1.0)
            trace.checkpoint(point, 0, end, counters)
    trace.flush()
    return SolverResult(point, trace.records, counters)  # checkpointed at T


@np.errstate(over="ignore")
def _run_full_gradient(instance: ProblemInstance, config: BaselineConfig,
                       reference_value: float | None, method: str
                       ) -> SolverResult:
    """The body of run_gd and run_nag (accelerated) over the R-ball: one
    call to the ball kernel (geometry._project_ball) per iterate, with
    numpy's overflow warning silenced once for the whole run. The kernel's
    ValueError for a non-finite point, which core._projected_gradient
    passes on, raises trace.diverged's DivergenceError naming step t + 1,
    t the iterates reached, with the full-gradient counter at t + 1."""
    if config.method != method:
        raise ValueError(f"config.method must be {method!r}")
    R = instance.domain_radius
    eta = (config.step_scale or 1.0) / instance.smoothness
    counters = OracleCounters()
    trace = _Trace(instance, reference_value)
    w = np.zeros(instance.d)
    iterates = _projected_gradient(lambda y: full_grad(instance, y, counters),
                                   lambda v: _project_ball(v, R), w, eta,
                                   accelerated=method == NAG)
    t = 0
    try:
        for t, w in enumerate(islice(iterates, config.iterations), 1):
            if t % config.checkpoint_stride == 0 or t == config.iterations:
                trace.checkpoint(w, 0, t, counters)
    except ValueError:
        raise trace.diverged(f"non-finite iterate at step {t + 1}",
                             counters) from None
    trace.flush()
    return SolverResult(w, trace.records, counters)


def run_gd(instance: ProblemInstance, config: BaselineConfig,
           reference_value: float | None = None) -> SolverResult:
    """Projected gradient descent from 0 with step 1/beta (scaled by c if
    a step scale is given)."""
    return _run_full_gradient(instance, config, reference_value, GD)


def run_nag(instance: ProblemInstance, config: BaselineConfig,
            reference_value: float | None = None) -> SolverResult:
    """Constant-step Nesterov accelerated gradient, momentum as in
    core._projected_gradient (the first step is plain GD); the projection
    follows the gradient step at the extrapolated point."""
    return _run_full_gradient(instance, config, reference_value, NAG)

"""Reference solvers: projected SGD, projected full-gradient descent, and
Nesterov's accelerated gradient, all over the R-ball.

Their convergence regimes (error ~ 1/sqrt(T), 1/T, 1/T^2 respectively on
smooth convex problems) are what the benchmark harness measures slopes
against. Each starts from 0, counts its own oracle calls and returns a
core.SolverResult, as core.run does. SGD touches only the stochastic
counter; GD and NAG only the full-gradient counter.

SGD's step has core.run_epoch's scalar form: the iterate is held as
w = alpha z with ||w||^2 a Python float (the lazy scaling of Pegasos), so
a step is one dot, one axpy and scalar updates, and a projection onto the
R-ball only rescales alpha; a step the scalars cannot decide is taken on
the explicit point with the ball kernel. Its average is run_epoch's lazy
sum (averaged SGD, Xu, arXiv:1107.2490), and its steps run in
run_epoch's blocks, each ending with one product that closes the lazy sum
and a fold of the form. GD and NAG run core._projected_gradient with the
ball kernel, one call per iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import (COEFFICIENT_RANGE, DivergenceError, SolverResult,
                   TraceRecord, _check_counts, _check_positive, _checkpoint,
                   _flush, _projected_gradient)
from .geometry import _project_ball
# project_ball stays importable from here: perfbench/tracer.py wraps
# mixedgrad.baselines.project_ball by name.
from .geometry import project_ball  # noqa: F401
from .losses import ROW_BLOCK, ProblemInstance, _loss_derivative
# full_objective and loss_grad stay importable from here:
# perfbench/tracer.py wraps mixedgrad.baselines.full_objective and
# mixedgrad.baselines.loss_grad by name.
from .losses import full_objective, loss_grad  # noqa: F401
from .oracle import OracleCounters, SeededSampler, full_grad, sample_losses
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
    is held as w = alpha z with ||w||^2 a Python float, so a step is one
    dot, z.x_i, one axpy, z += (m / alpha) x_i, and scalar updates:
    ||v||^2 = ||w||^2 + 2 m (w.x_i) + m^2 ||x_i||^2 decides the R-ball
    test, and a projection only scales alpha by R / ||v||. A step whose
    square is not finite or is negative, or whose projection would take
    alpha below core.COEFFICIENT_RANGE, forms v and projects it with the
    ball kernel (geometry._project_ball), whose ValueError for a
    non-finite v raises DivergenceError with the stochastic counter at the
    steps taken; the form restarts there at w = z.

    The steps run in blocks, as core.run_epoch's do: each ends at the next
    checkpoint or at T, has at most ROW_BLOCK // d steps, draws its index
    array in one oracle.sample_losses call and gathers with it, once, its
    rows XB, labels and ||x_i||^2 (instance._row_sq); the steps take the
    labels and ||x_i||^2 in order, as lists of floats. The average is
    run_epoch's lazy sum: a restart or a block end adds A z to a running
    sum, A the sum of alpha since the last one, and each axpy z += k x_i
    stores A k as the block's coefficient qb_l. Every block
    ends the same way: total -= qb XB (sum_j q_j x_j is linear, so each
    term may be subtracted at any time before the point is read), total
    += A z, and a fold of the form, z <- w, alpha = 1, with ||w||^2
    recomputed from z, so no scalar form outlives its block; a checkpoint
    only decides whether the point is recorded there. numpy's overflow
    warning is silenced once for the whole run."""
    if config.method != SGD:
        raise ValueError("config.method must be 'sgd'")
    R = instance.domain_radius
    c = config.step_scale
    if c is None:
        c = R * math.sqrt(instance.n) / instance.smoothness
    counters = OracleCounters()
    sampler = SeededSampler(seed)
    trace: list[TraceRecord] = []
    pending = []               # checkpoints whose objectives are owed
    X, labels = instance.dataset.features, instance.dataset.labels
    x_sq = instance._row_sq
    kind = instance.loss_kind
    low = COEFFICIENT_RANGE[0]
    T, stride = config.iterations, config.checkpoint_stride
    block = max(1, ROW_BLOCK // instance.d)
    z = np.zeros(instance.d)
    alpha, w_sq = 1.0, 0.0     # w = alpha z, ||w||^2
    total = z.copy()           # running sum of the iterates
    A = 0.0                    # alpha summed since total grew
    t = 0                      # steps taken
    while t < T:
        span = min(block, stride - t % stride, T - t)
        idx = sample_losses(sampler, counters, instance.n, span)
        XB = X[idx]
        qb = np.zeros(span)    # the lazy sum's A k, step by step
        for l, (x, y, xx) in enumerate(
                zip(XB, labels[idx].tolist(), x_sq[idx].tolist())):
            # loss_grad written out.
            wx = alpha * float(z.dot(x))
            eta = c / math.sqrt(t + l + 1)
            m = -eta * _loss_derivative(y, wx, kind)
            v_sq = w_sq + 2.0 * m * wx + m * m * xx
            scale = 0.0        # a square that is not finite or is negative
            if 0.0 <= v_sq < math.inf:
                v_norm = math.sqrt(v_sq)
                scale = 1.0 if v_norm <= R else R / v_norm
            if alpha * scale >= low:
                k = m / alpha
                z += k * x
                qb[l] = A * k
                alpha *= scale
                w_sq = scale * scale * v_sq
            else:
                total += z * A
                A = 0.0
                try:
                    z = _project_ball(z * alpha + m * x, R)
                except ValueError:
                    counters.stochastic_calls = t + l + 1
                    _flush(trace, pending, instance, reference_value)
                    raise DivergenceError(
                        f"non-finite iterate at step {t + l + 1}", counters,
                        trace) from None
                alpha, w_sq = 1.0, float(z.dot(z))
            A += alpha
        t += span
        total -= qb @ XB
        total += z * A
        A = 0.0
        z *= alpha
        alpha, w_sq = 1.0, float(z.dot(z))
        if t % stride == 0 or t == T:
            point = total / (t + 1.0)
            _checkpoint(trace, pending, instance, point, 0, t, counters,
                        reference_value)
    _flush(trace, pending, instance, reference_value)
    return SolverResult(point, trace, counters)  # as checkpointed at step T


@np.errstate(over="ignore")
def _run_full_gradient(instance: ProblemInstance, config: BaselineConfig,
                       reference_value: float | None, method: str
                       ) -> SolverResult:
    """The body of run_gd and run_nag (accelerated) over the R-ball: one
    call to the ball kernel (geometry._project_ball) per iterate, with
    numpy's overflow warning silenced once for the whole run."""
    if config.method != method:
        raise ValueError(f"config.method must be {method!r}")
    R = instance.domain_radius
    eta = (config.step_scale or 1.0) / instance.smoothness
    counters = OracleCounters()
    trace: list[TraceRecord] = []
    pending = []               # checkpoints whose objectives are owed
    w = np.zeros(instance.d)
    iterates = _projected_gradient(lambda y: full_grad(instance, y, counters),
                                   lambda v: _project_ball(v, R), w, eta,
                                   accelerated=method == NAG)
    try:
        for t, w in enumerate(islice(iterates, config.iterations), 1):
            if t % config.checkpoint_stride == 0 or t == config.iterations:
                _checkpoint(trace, pending, instance, w, 0, t, counters,
                            reference_value)
    except DivergenceError as exc:
        _flush(trace, pending, instance, reference_value)
        exc.counters, exc.trace = counters, trace
        raise
    _flush(trace, pending, instance, reference_value)
    return SolverResult(w, trace, counters)


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

"""Reference solvers: projected SGD, projected full-gradient descent, and
Nesterov's accelerated gradient, all over the R-ball.

Their convergence regimes (error ~ 1/sqrt(T), 1/T, 1/T^2 respectively on
smooth convex problems) are what the benchmark harness measures slopes
against. Each starts from 0, counts its own oracle calls and returns a
core.SolverResult, as core.run does. SGD touches only the stochastic
counter; GD and NAG only the full-gradient counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import (DivergenceError, SolverResult, TraceRecord, _check_counts,
                   _check_positive, _projected_gradient)
from .geometry import _project_ball
# project_ball stays importable from here: perfbench/tracer.py wraps
# mixedgrad.baselines.project_ball by name.
from .geometry import project_ball  # noqa: F401
from .losses import ProblemInstance, _loss_derivative, full_objective
# loss_grad stays importable from here: perfbench/tracer.py wraps
# mixedgrad.baselines.loss_grad by name.
from .losses import loss_grad  # noqa: F401
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


def _checkpoint(trace: list[TraceRecord], instance: ProblemInstance, w: np.ndarray,
                t: int, counters: OracleCounters,
                reference_value: float | None):
    obj = full_objective(instance, w)
    err = obj - reference_value if reference_value is not None else math.nan
    trace.append(TraceRecord(0, t, counters.stochastic_calls,
                             counters.full_calls, obj, err))


@np.errstate(over="ignore")
def run_sgd(instance: ProblemInstance, config: BaselineConfig, seed: int,
            reference_value: float | None = None) -> SolverResult:
    """Projected SGD with step c/sqrt(t); its point (and each
    checkpoint's) is the average of the iterates w_0 = 0, ..., w_t, taken
    as their running sum over their count.

    Step t is v = w - (eta_t * g) * x_i, with eta_t = c/sqrt(t) and g the
    loss derivative at the margin w.x_i (the labels come from the
    instance's per-example list), then projected onto the R-ball by the
    ball kernel (geometry._project_ball), whose ValueError for a non-finite
    v raises DivergenceError."""
    if config.method != SGD:
        raise ValueError("config.method must be 'sgd'")
    R = instance.domain_radius
    c = config.step_scale
    if c is None:
        c = R * math.sqrt(instance.n) / instance.smoothness
    counters = OracleCounters()
    sampler = SeededSampler(seed)
    trace: list[TraceRecord] = []
    X = instance.dataset.features
    labels = instance._labels
    kind = instance.loss_kind
    w = np.zeros(instance.d)
    total = w.copy()           # sum of the iterates seen so far
    indices = sample_losses(sampler, counters, instance.n, config.iterations)
    for t, i in enumerate(indices, 1):
        # loss_grad written out.
        eta = c / math.sqrt(t)
        x = X[i]
        v = w - (eta * _loss_derivative(labels[i], float(w.dot(x)), kind)) * x
        try:
            w = _project_ball(v, R)
        except ValueError:
            raise DivergenceError(f"non-finite iterate at step {t}",
                                  counters, trace) from None
        total += w
        if t % config.checkpoint_stride == 0 or t == config.iterations:
            point = total / (t + 1.0)
            _checkpoint(trace, instance, point, t, counters, reference_value)
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
    w = np.zeros(instance.d)
    iterates = _projected_gradient(lambda y: full_grad(instance, y, counters),
                                   lambda v: _project_ball(v, R), w, eta,
                                   accelerated=method == NAG)
    try:
        for t, w in enumerate(islice(iterates, config.iterations), 1):
            if t % config.checkpoint_stride == 0 or t == config.iterations:
                _checkpoint(trace, instance, w, t, counters, reference_value)
    except DivergenceError as exc:
        exc.counters, exc.trace = counters, trace
        raise
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

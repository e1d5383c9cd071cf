"""Reference solvers: projected SGD, projected full-gradient descent, and
Nesterov's accelerated gradient, all over the R-ball.

Their convergence regimes (error ~ 1/sqrt(T), 1/T, 1/T^2 respectively on
smooth convex problems) are what the benchmark harness measures slopes
against. SGD touches only the stochastic counter; GD and NAG only the
full-gradient counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DivergenceError, RunTrace, TraceRecord
from .geometry import _norm, project_ball
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

CONSTANT = "constant"
INV_SQRT_T = "inv_sqrt_t"


@dataclass(frozen=True)
class BaselineConfig:
    method: str
    iterations: int
    step_rule: str = INV_SQRT_T
    step_scale: float | None = None   # c; None picks a per-method default
    averaging: bool = True
    checkpoint_stride: int = 100

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.step_rule not in (CONSTANT, INV_SQRT_T):
            raise ValueError(f"unknown step rule: {self.step_rule!r}")
        if self.step_scale is not None and not self.step_scale > 0:
            raise ValueError("step scale must be positive")
        if self.checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be >= 1")


def _checkpoint(trace: RunTrace, instance: ProblemInstance, w: np.ndarray,
                t: int, counters: OracleCounters,
                reference_value: float | None):
    obj = full_objective(instance, w)
    err = obj - reference_value if reference_value is not None else math.nan
    trace.append(TraceRecord(0, t, counters.stochastic_calls,
                             counters.full_calls, obj, err))


def _check_finite(w: np.ndarray, t: int, counters: OracleCounters,
                  trace: RunTrace):
    # Runs on the point before projection, which would reject a non-finite
    # point with a ValueError of its own.
    if not np.isfinite(w).all():
        raise DivergenceError(f"non-finite iterate at step {t}", counters,
                              trace)


def run_sgd(instance: ProblemInstance, config: BaselineConfig, seed: int,
            counters: OracleCounters,
            reference_value: float | None = None,
            start: np.ndarray | None = None) -> tuple[np.ndarray, RunTrace]:
    """Projected SGD with step c/sqrt(t) (or constant c); returns the
    uniform iterate average when averaging is on, else the last iterate."""
    if config.method != SGD:
        raise ValueError("config.method must be 'sgd'")
    R = instance.domain_radius
    c = config.step_scale
    if c is None:
        c = R * math.sqrt(instance.n) / instance.smoothness
    sampler = SeededSampler(seed)
    trace = RunTrace()
    X = instance.dataset.features
    labels = instance.dataset.labels
    kind = instance.loss_kind
    constant = config.step_rule == CONSTANT
    w = np.zeros(instance.d) if start is None else np.asarray(start, dtype=float).copy()
    mean = w.copy()
    count = 1.0                # a float: dividing by it is cheaper, same bits
    indices = sample_losses(sampler, counters, instance.n, config.iterations)
    for t, i in enumerate(indices, 1):
        # loss_grad and project_ball written out: ||v||^2 is taken once
        # and serves the R-ball test, the projection and the finiteness
        # check, which only a point outside the ball needs; a finite v whose
        # square overflows gets a rescaled norm.
        eta = c if constant else c / math.sqrt(t)
        x = X[i]
        v = w - eta * (_loss_derivative(labels[i], float(w.dot(x)), kind) * x)
        v_sq = v.dot(v)
        v_norm = math.sqrt(v_sq)
        if v_norm <= R:
            w = v
        else:
            if not math.isfinite(v_sq):
                _check_finite(v, t, counters, trace)
                v_norm = _norm(v)
            w = v * (R / v_norm)
        count += 1.0
        mean += (w - mean) / count
        if t % config.checkpoint_stride == 0 or t == config.iterations:
            point = mean if config.averaging else w
            _checkpoint(trace, instance, point, t, counters, reference_value)
    return (mean if config.averaging else w), trace


def run_gd(instance: ProblemInstance, config: BaselineConfig,
           counters: OracleCounters,
           reference_value: float | None = None,
           start: np.ndarray | None = None) -> tuple[np.ndarray, RunTrace]:
    """Projected gradient descent with step 1/beta (scaled by c if
    a step scale is given)."""
    if config.method != GD:
        raise ValueError("config.method must be 'gd'")
    R = instance.domain_radius
    eta = (config.step_scale or 1.0) / instance.smoothness
    trace = RunTrace()
    w = np.zeros(instance.d) if start is None else np.asarray(start, dtype=float).copy()
    for t in range(1, config.iterations + 1):
        v = w - eta * full_grad(instance, w, counters)
        _check_finite(v, t, counters, trace)
        w = project_ball(v, R)
        if t % config.checkpoint_stride == 0 or t == config.iterations:
            _checkpoint(trace, instance, w, t, counters, reference_value)
    return w, trace


def run_nag(instance: ProblemInstance, config: BaselineConfig,
            counters: OracleCounters,
            reference_value: float | None = None,
            start: np.ndarray | None = None) -> tuple[np.ndarray, RunTrace]:
    """Constant-step Nesterov accelerated gradient.

    Momentum follows theta_{t+1} = (1 + sqrt(1 + 4 theta_t^2)) / 2 with
    theta_1 = 1 (so the first step reduces to plain GD); the projection is
    applied after the gradient step at the extrapolated point.
    """
    if config.method != NAG:
        raise ValueError("config.method must be 'nag'")
    R = instance.domain_radius
    eta = (config.step_scale or 1.0) / instance.smoothness
    trace = RunTrace()
    w = np.zeros(instance.d) if start is None else np.asarray(start, dtype=float).copy()
    w_prev = w.copy()
    theta_prev = 1.0
    for t in range(1, config.iterations + 1):
        theta = (1.0 + math.sqrt(1.0 + 4.0 * theta_prev * theta_prev)) / 2.0
        y = w + ((theta_prev - 1.0) / theta) * (w - w_prev)
        v = y - eta * full_grad(instance, y, counters)
        _check_finite(v, t, counters, trace)
        w_next = project_ball(v, R)
        w_prev, w = w, w_next
        theta_prev = theta
        if t % config.checkpoint_stride == 0 or t == config.iterations:
            _checkpoint(trace, instance, w, t, counters, reference_value)
    return w, trace

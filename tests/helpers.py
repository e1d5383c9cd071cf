"""Oracles and instance builders that only the tests use, built on the
library's internals."""

from __future__ import annotations

import numpy as np

from mixedgrad import core
from mixedgrad.core import _certified_minimum
from mixedgrad.geometry import EpochDomain, _project_two_balls
from mixedgrad.losses import (LEAST_SQUARES, Dataset, ProblemInstance,
                              _loss_derivatives, _losses, mean_gradient,
                              mean_smoothness)


def make_instance(X, y, radius=1.0):
    """A least-squares instance on the given features and labels."""
    return ProblemInstance(Dataset(np.asarray(X, float),
                                   np.asarray(y, float)),
                           LEAST_SQUARES, radius)


def random_instance(n, d=4, seed=0, radius=1.0):
    """make_instance on n unit-norm Gaussian rows with Gaussian labels."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return make_instance(X, rng.standard_normal(n), radius)


def objective_gap_bound(inst, p):
    """How far two evaluations of G(p) can lie apart when they differ only
    in the order of their dot products and sums: p in a batch of points
    against p alone, or a sum over n split by row blocks against one sum.

    With u the unit roundoff, each computed margin x_i.p is within
    d u sum_j |x_ij p_j| of the exact one, so the two margins differ by at
    most e_i, twice that. That moves g_i by at most |g_i'| e_i + e_i^2
    (g_i'' <= 2), g_i' taken at the exact margin, which is within 2 e_i of
    g_i' at a computed one: |g_i'| e_i + 3 e_i^2 in all. Each evaluation
    also rounds each loss within 8 u of itself and sums the n nonnegative
    losses within (n - 1) u of their total. No relative tolerance would
    do: where y_i - x_i.p cancels, the losses are tiny and their relative
    difference is not."""
    X, y = inst.dataset.features, inst.dataset.labels
    u = np.finfo(float).eps / 2
    margins = X @ p
    e = 2 * inst.d * u * (np.abs(X) @ np.abs(p))
    slopes = np.abs(_loss_derivatives(y, margins, inst.loss_kind))
    total = float(_losses(y, margins, inst.loss_kind).sum())
    return (float(slopes @ e + 3 * e @ e)
            + 2 * (inst.n + 8) * u * total) / inst.n


def record_objective_batches(monkeypatch):
    """Wrap core._objectives, where the trace's flush looks it up, and
    return the list each batch of points it evaluates is appended to."""
    batches = []
    objectives = core._objectives

    def recording(instance, P):
        batches.append(P.copy())
        return objectives(instance, P)

    monkeypatch.setattr(core, "_objectives", recording)
    return batches


def mean_curvature(inst):
    """The smoothness of G written plainly, for n >= d:
    c * lambda_max(X^T X) / n, with c = 2 (least squares) or 1/4."""
    X = inst.dataset.features
    c = 2.0 if inst.loss_kind == LEAST_SQUARES else 0.25
    return c * float(np.linalg.eigvalsh(X.T @ X)[-1]) / inst.n


def epoch_subproblem_optimum(instance: ProblemInstance, anchor: np.ndarray,
                             lam: float, inner_radius: float,
                             tol: float = 1e-12,
                             max_iterations: int = 200_000
                             ) -> tuple[np.ndarray, float]:
    """Certified minimizer of the recentered epoch objective
    F(w) = (lam/2)||w||^2 + lam <w, anchor> + G(w + anchor) over the
    two-ball domain, by core._certified_minimum with step 1 / (L + lam), L
    the smoothness of G (losses.mean_smoothness).

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
        lambda v: _project_two_balls(v, domain)[0], 1.0 / smooth,
        instance.d, tol, max_iterations)
    return w, 2.0 * smooth * r / lam

"""Oracles and instance builders that only the tests use, built on the
library's internals."""

from __future__ import annotations

import numpy as np

from mixedgrad.core import _certified_minimum
from mixedgrad.geometry import EpochDomain, _project_two_balls
from mixedgrad.losses import (LEAST_SQUARES, Dataset, ProblemInstance,
                              mean_gradient, mean_smoothness)


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

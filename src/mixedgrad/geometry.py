"""Feasible sets and Euclidean projections.

The per-epoch feasible set is the intersection of two balls in the
recentered variable: {v : ||v + anchor|| <= R} and {v : ||v|| <= Delta}.
Projection onto a single ball is closed form; the intersection is handled
by Dykstra's alternating projections, with a shortcut when one ball's
closed-form projection already satisfies the other constraint.

The public projections validate their input once, at entry; the
shortcuts inside project_epoch_domain then work on the validated point
without checking it again. Norms are taken as math.sqrt(v @ v), which is
bit-identical to np.linalg.norm(v) for a 1-D float vector and cheaper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DYKSTRA_MAX_SWEEPS = 500
DYKSTRA_TOL = 1e-12


@dataclass(frozen=True)
class EpochDomain:
    """Intersection {v : ||v + anchor|| <= outer_radius, ||v|| <= inner_radius}.

    Construction requires ||anchor|| <= outer_radius so the origin is
    feasible and the intersection is nonempty.
    """

    anchor: np.ndarray
    outer_radius: float
    inner_radius: float

    def __post_init__(self):
        a = np.asarray(self.anchor, dtype=float)
        if not (self.outer_radius > 0 and self.inner_radius > 0):
            raise ValueError("radii must be positive")
        if np.linalg.norm(a) > self.outer_radius + 1e-9:
            raise ValueError("anchor lies outside the outer ball; domain would be empty")
        object.__setattr__(self, "anchor", a)

    def contains(self, w: np.ndarray, tol: float = 1e-9) -> bool:
        return (np.linalg.norm(w + self.anchor) <= self.outer_radius + tol
                and np.linalg.norm(w) <= self.inner_radius + tol)


def _project_ball(w: np.ndarray, radius: float,
                  center: np.ndarray | None = None) -> np.ndarray:
    # project_ball for a finite float vector and a positive radius.
    if center is None:
        nrm = math.sqrt(w @ w)
        if nrm <= radius:
            return w
        return w * (radius / nrm)
    v = w - center
    nrm = math.sqrt(v @ v)
    if nrm <= radius:
        return w
    return center + v * (radius / nrm)


def project_ball(w: np.ndarray, radius: float, center: np.ndarray | None = None) -> np.ndarray:
    """Orthogonal projection onto the ball of given radius (default center 0)."""
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("cannot project a non-finite point")
    if not radius > 0:
        raise ValueError("radius must be positive")
    return _project_ball(w, radius, center)


def project_epoch_domain(w: np.ndarray, domain: EpochDomain) -> np.ndarray:
    """Euclidean projection onto the two-ball intersection of the domain."""
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("cannot project a non-finite point")
    a = domain.anchor
    R = domain.outer_radius
    delta = domain.inner_radius

    # Exactness shortcuts: if the closed-form projection onto one ball is
    # already feasible for the other, it is the projection onto the
    # intersection. The radii are positive by EpochDomain's construction.
    p = _project_ball(w, delta)
    q = p + a
    if math.sqrt(q @ q) <= R:
        return p
    p = _project_ball(w, R, center=-a)
    if math.sqrt(p @ p) <= delta:
        return p

    # Dykstra's alternating projections between the two balls.
    x = w.copy()
    p_inc = np.zeros_like(w)
    q_inc = np.zeros_like(w)
    for _ in range(DYKSTRA_MAX_SWEEPS):
        y = project_ball(x + p_inc, delta)
        p_inc = x + p_inc - y
        x_new = project_ball(y + q_inc, R, center=-a)
        q_inc = y + q_inc - x_new
        if np.linalg.norm(x_new - x) < DYKSTRA_TOL:
            x = x_new
            break
        x = x_new
    # Both constraint residuals should be negligible at convergence; snap
    # the tiny remaining violation of the inner ball.
    return project_ball(x, delta)

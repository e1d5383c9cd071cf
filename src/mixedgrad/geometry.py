"""Feasible sets and Euclidean projections.

The per-epoch feasible set is the intersection of two balls in the
recentered variable: {v : ||v + anchor|| <= R} and {v : ||v|| <= Delta}.
Projection onto a single ball is closed form; the intersection is handled
by Dykstra's alternating projections, with a shortcut when one ball's
closed-form projection already satisfies the other constraint.

The public projections validate their input once, at entry. The
two-ball projection has one code path, the private kernel
_project_two_balls, which takes the point v together with ||v||, v + anchor
and ||v + anchor||. project_epoch_domain checks its input and computes
those; the solver's step loop already holds them from its fast-path test
and calls the kernel directly. Norms are taken as math.sqrt(v.dot(v)),
which is bit-identical to np.linalg.norm(v) for a 1-D float vector and
cheaper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DYKSTRA_MAX_SWEEPS = 500
DYKSTRA_TOL = 1e-12

# Branches of the two-ball projection, as indices into a per-branch tally.
INNER, OUTER, BOTH = 0, 1, 2


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


def project_ball(w: np.ndarray, radius: float, center: np.ndarray | None = None) -> np.ndarray:
    """Orthogonal projection onto the ball of given radius (default center 0)."""
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("cannot project a non-finite point")
    if not radius > 0:
        raise ValueError("radius must be positive")
    if center is None:
        nrm = math.sqrt(w.dot(w))
        if nrm <= radius:
            return w
        return w * (radius / nrm)
    v = w - center
    nrm = math.sqrt(v.dot(v))
    if nrm <= radius:
        return w
    return center + v * (radius / nrm)


def project_epoch_domain(w: np.ndarray, domain: EpochDomain) -> np.ndarray:
    """Euclidean projection onto the two-ball intersection of the domain."""
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("cannot project a non-finite point")
    u = w + domain.anchor
    p, _ = _project_two_balls(w, math.sqrt(w.dot(w)), u, math.sqrt(u.dot(u)),
                              domain)
    return p


def _project_two_balls(v: np.ndarray, v_norm: float, u: np.ndarray,
                       u_norm: float, domain: EpochDomain
                       ) -> tuple[np.ndarray, int]:
    """Projection of a finite v onto the domain, given ||v||, u = v + anchor
    and ||u||; returns the point and the branch that produced it.

    If the closed-form projection onto one ball already satisfies the other
    constraint, it is the projection onto the intersection: INNER scales v
    into the Delta-ball, OUTER scales u into the R-ball and shifts it back
    (u * (R/||u||) - anchor, which equals (-anchor) + u * (R/||u||) in IEEE
    arithmetic). Otherwise both constraints are active and Dykstra's
    alternating projections run (BOTH).
    """
    a = domain.anchor
    R = domain.outer_radius
    delta = domain.inner_radius
    # The radii are positive by EpochDomain's construction.
    if v_norm <= delta:
        p, q_norm = v, u_norm
    else:
        p = v * (delta / v_norm)
        q = p + a
        q_norm = math.sqrt(q.dot(q))
    if q_norm <= R:
        return p, INNER
    if u_norm <= R:
        p, p_norm = v, v_norm
    else:
        p = u * (R / u_norm) - a
        p_norm = math.sqrt(p.dot(p))
    if p_norm <= delta:
        return p, OUTER

    # Dykstra's alternating projections between the two balls.
    x = v.copy()
    p_inc = np.zeros_like(v)
    q_inc = np.zeros_like(v)
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
    return project_ball(x, delta), BOTH

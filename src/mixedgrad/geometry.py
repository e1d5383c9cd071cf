"""Feasible sets and Euclidean projections.

The per-epoch feasible set is the intersection of two balls in the
recentered variable: {v : ||v + anchor|| <= R} and {v : ||v|| <= Delta}.
Both projections are closed form. If neither ball's projection satisfies
the other constraint, both are active, and the projection onto the
intersection is the point nearest v on the circle where the spheres meet.

Each domain has one vector kernel, a plain projection of the raw point:
_project_ball for a ball about 0 (project_ball, the full-gradient solvers
and baselines.run_sgd's steps that cannot be decided in scalars; its other
steps only rescale a scalar by R / ||v||) and _project_two_balls for an
epoch domain (project_epoch_domain, and core.run_epoch's steps that cannot
be decided in scalars). The epoch domain also has a scalar kernel,
_two_ball_coefficients, which decides FAST, INNER and OUTER from ||v||^2
and v.anchor alone and returns the point as coefficients of v and the
anchor; it is core.run_epoch's step, and answers BOTH wherever the vector
kernel must decide. It is the only kernel with a per-step shortcut: on a
domain whose Delta-ball provably lies inside the R-ball
(EpochDomain.outer_inactive, decided once from scalars) it never forms
||v + anchor||. A vector kernel takes the norms of the raw point (||v||,
and for an epoch domain ||v + anchor|| and the circle's ||v_perp||) from
_norm: math.sqrt(v.dot(v)), bit-identical to np.linalg.norm(v) for a 1-D
float vector and cheaper, rescaled by max|v_i| when the square overflows
for a finite v, and a ValueError for a v with a NaN or infinite entry; no
other finiteness check is made. The numpy overflow warning of such a
square is silenced once per public call or solver call, never per step.
The public wrappers check the shapes of their arguments; the kernels
trust their callers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

# Branches of the two-ball projection, as indices into a per-branch tally;
# FAST is the point itself, inside both balls.
INNER, OUTER, BOTH, FAST = 0, 1, 2, 3


@dataclass(frozen=True, eq=False)
class EpochDomain:
    """Intersection {v : ||v + anchor|| <= outer_radius, ||v|| <= inner_radius}.

    Construction requires a non-empty 1-D anchor with
    ||anchor|| <= outer_radius, so the origin is feasible and the
    intersection is nonempty. Domains compare and hash by identity.

    outer_inactive is derived: true when
    (A + Delta) * (1 + 4 (d + 2) eps) <= R in floating point, where A is the
    computed ||anchor||, d the anchor's length and eps machine epsilon.
    Its readers are the scalar kernel's shortcut (_two_ball_coefficients)
    and EpochSummary.outer_inactive (core.run); _project_two_balls runs its
    full body on every domain. On a certified domain every computed norm
    that body compares with R is at most R, so the R-ball never binds and
    the projection is the Delta-ball projection, branch for branch and bit
    for bit. Derivation, with
    u = eps / 2 and gamma_d = d u / (1 - d u) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sections 2.2 and 3.1):
    - A computed norm math.sqrt(x.dot(x)) of a d-vector lies within factors
      (1 - gamma_d)(1 - u) and (1 + gamma_d)(1 + u) of ||x||; _norm's
      rescaled form loses two more roundings, (1 - u)^2.
    - So ||anchor|| <= A / ((1 - gamma_d)(1 - u)), and a computed
      ||v|| <= Delta gives ||v|| <= Delta / ((1 - gamma_d)(1 - u)^3).
    - The INNER scaling p = v * (Delta / ||v||) rounds twice:
      ||p|| <= Delta (1 + u)^2 / ((1 - gamma_d)(1 - u)^3).
    - The rounded sum v + anchor (fast-path test) or p + anchor (INNER
      check) adds a factor (1 + u), and its computed norm
      (1 + gamma_d)(1 + u).
    Both computed norms are therefore at most
    (A + Delta)(1 + u)^4 (1 + gamma_d) / ((1 - gamma_d)(1 - u)^3), to first
    order (A + Delta)(1 + (2 d + 7) u). The flag's own sum and product
    round down by at most (1 - u)^2, so it certifies
    R >= (A + Delta)(1 + 8 (d + 2) u)(1 - u)^2, which exceeds that bound,
    second-order terms included, for every d up to 2^40. Comparisons are
    exact. The model assumes squares that do not underflow; an underflowed
    square is off by at most 2^-1075, which the margin absorbs while
    A + Delta exceeds about 1e-140.

    The scalar kernel (_two_ball_coefficients) tests a ||v||^2 that
    core.run_epoch carries in scalars, which differs from the exact square
    of its v by a drift e (an absolute bound, checked in the tests at every
    fold of the scalar form), not a computed v.dot(v). The bit-for-bit
    claim above is for the vector kernel only. On a certified domain the
    scalar kernel also never forms ||v + anchor||, and a point it returns
    has ||p|| <= sqrt(Delta^2 + e) <= Delta + e / (2 Delta), to rounding, so
    ||p + anchor|| <= A + Delta + e / (2 Delta) <= R + e / (2 Delta): the
    R-ball binds by at most the drift's share, which for the solver's
    epochs (e below 1e-13 R^2, Delta >= R / 2^(m-1)) is far below the
    1e-9 the solver allows an anchor outside the R-ball.
    """

    anchor: np.ndarray
    outer_radius: float
    inner_radius: float
    outer_inactive: bool = field(init=False)
    anchor_sq: float = field(init=False)   # anchor . anchor

    def __post_init__(self):
        a = _vector("anchor", self.anchor)
        if not (self.outer_radius > 0 and self.inner_radius > 0):
            raise ValueError("radii must be positive")
        a_norm = np.linalg.norm(a)
        if a_norm > self.outer_radius + 1e-9:
            raise ValueError("anchor lies outside the outer ball; domain would be empty")
        margin = 1.0 + 4 * (a.size + 2) * sys.float_info.epsilon
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "anchor_sq", float(a.dot(a)))
        object.__setattr__(self, "outer_inactive", bool(
            (a_norm + self.inner_radius) * margin <= self.outer_radius))

    def contains(self, w: np.ndarray, tol: float = 1e-9) -> bool:
        """w lies in both balls, to tol. w must have the anchor's shape."""
        w = _same_shape(w, self.anchor)
        return bool(np.linalg.norm(w + self.anchor) <= self.outer_radius + tol
                    and np.linalg.norm(w) <= self.inner_radius + tol)


def _vector(name: str, x) -> np.ndarray:
    """x as a float array, which must be non-empty and 1-D."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape "
                         f"{x.shape}")
    return x


def _same_shape(w, anchor: np.ndarray) -> np.ndarray:
    """w as a float array, which must have the anchor's shape."""
    w = np.asarray(w, dtype=float)
    if w.shape != anchor.shape:
        raise ValueError(f"w has shape {w.shape} but the domain's anchor "
                         f"has shape {anchor.shape}")
    return w


def _norm(v: np.ndarray) -> float:
    """||v||, rescaled by max|v_i| if v.dot(v) overflows. A NaN or infinite
    entry, which always makes v.dot(v) NaN or inf, raises ValueError."""
    sq = v.dot(v)
    if sq < math.inf:
        return math.sqrt(sq)
    m = float(np.abs(v).max())
    if not m < math.inf:
        raise ValueError("cannot project a non-finite point")
    v = v / m
    return m * math.sqrt(v.dot(v))


@np.errstate(over="ignore")
def project_ball(w: np.ndarray, radius: float, center: np.ndarray | None = None) -> np.ndarray:
    """Orthogonal projection onto the ball of given radius (default center
    0). w must be a non-empty 1-D array and the center, if given, of the
    same shape. A non-finite point, or one whose offset from the center
    overflows, raises ValueError."""
    w = _vector("w", w)
    if not radius > 0:
        raise ValueError("radius must be positive")
    if center is None:
        return _project_ball(w, radius)
    center = np.asarray(center, dtype=float)
    if center.shape != w.shape:
        raise ValueError(f"w has shape {w.shape} but center has shape "
                         f"{center.shape}")
    v = w - center
    p = _project_ball(v, radius)
    return w if p is v else center + p


@np.errstate(over="ignore")
def project_epoch_domain(w: np.ndarray, domain: EpochDomain) -> np.ndarray:
    """Euclidean projection onto the two-ball intersection of the domain.
    w must have the anchor's shape. A non-finite point raises ValueError."""
    p, _ = _project_two_balls(_same_shape(w, domain.anchor), domain)
    return p


def _project_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Projection of v onto the ball of the given radius about 0: v itself
    if its computed norm is at most the radius, else v scaled onto the
    sphere. A non-finite v raises ValueError (_norm)."""
    norm = _norm(v)
    return v if norm <= radius else v * (radius / norm)


def _project_two_balls(v: np.ndarray, domain: EpochDomain
                       ) -> tuple[np.ndarray, int]:
    """Projection of v onto the domain; returns the point p and the branch
    that produced it. A non-finite v raises ValueError (_norm).

    FAST: the computed ||v|| <= Delta and ||v + anchor|| <= R, so p is v
    itself; a non-finite v never gets there, as _norm rejects it first.
    Otherwise, if the closed-form projection onto one ball satisfies the
    other constraint, it is the projection onto the intersection: INNER
    scales v into the Delta-ball, OUTER scales u = v + anchor into the
    R-ball and shifts it back (u * (R/||u||) - anchor, which equals
    (-anchor) + u * (R/||u||) in IEEE arithmetic). Otherwise both
    constraints are active (BOTH). INNER is tried only when ||v|| > Delta
    (else its point would be v, which is FAST if ||u|| <= R), and OUTER
    only when ||u|| > R (else its point would be v, which lies outside the
    Delta-ball, or FAST). ||v||, ||u|| and ||v_perp|| come from _norm; the
    feasibility checks of the INNER point (||p + anchor|| <= R) and the
    OUTER point (||p|| <= Delta) are plain math.sqrt(x.dot(x)), so a
    square that overflows reads inf and fails its check.
    """
    delta = domain.inner_radius
    a = domain.anchor
    R = domain.outer_radius
    # The radii are positive by EpochDomain's construction.
    v_norm = _norm(v)
    u = v + a
    u_norm = _norm(u)
    if v_norm <= delta:
        if u_norm <= R:
            return v, FAST
    else:
        p = v * (delta / v_norm)
        q = p + a
        if math.sqrt(q.dot(q)) <= R:
            return p, INNER
    if u_norm > R:
        p = u * (R / u_norm) - a
        if math.sqrt(p.dot(p)) <= delta:
            return p, OUTER

    # p = s * a_hat + rho * e, the point nearest v on the circle where the
    # spheres meet (e: direction of v's part orthogonal to a). s is clamped
    # to [-Delta, Delta] and squares are factored against rounding.
    a_norm = math.sqrt(a.dot(a))
    if a_norm == 0.0:  # concentric balls
        return v * (min(R, delta) / v_norm), BOTH
    a_hat = a / a_norm
    s = ((R - delta) * (R + delta) - a_norm * a_norm) / (2.0 * a_norm)
    s = min(max(s, -delta), delta)
    v_perp = v - v.dot(a_hat) * a_hat
    perp_norm = _norm(v_perp)
    if perp_norm == 0.0:  # v on the anchor's axis, as always when d = 1
        return s * a_hat, BOTH
    rho = math.sqrt((delta - s) * (delta + s))
    return s * a_hat + v_perp * (rho / perp_norm), BOTH


def _two_ball_coefficients(v_sq: float, va: float, domain: EpochDomain
                           ) -> tuple[float, float, int, float]:
    """The two-ball projection of a point v known only by v_sq = ||v||^2 and
    va = v . anchor: returns (k_v, k_a, branch, p_sq) with p = k_v v + k_a
    anchor and p_sq = ||p||^2, all from scalars.

    FAST is (1, 0), INNER is (Delta / ||v||, 0) and OUTER, which scales
    u = v + anchor into the R-ball and shifts it back, is (k, k - 1) with
    k = R / ||u||; ||u||^2, ||p||^2 and the INNER point's ||p + anchor||^2
    are expanded in v_sq, va and anchor_sq. The tests are
    _project_two_balls' in the same order, so the two kernels differ only
    where a norm lies within rounding of a radius. On a domain certified
    outer_inactive only the Delta-ball is tested, and ||u|| is never
    formed: the solver's per-step shortcut, which EpochDomain derives and
    bounds for the carried square's drift. BOTH is returned when
    both constraints are active, and also when v_sq or ||u||^2 is not
    finite or is negative (a cancellation): the caller then projects the
    explicit v with _project_two_balls, which owns the circle point, the
    rescaled norm and the non-finite check. A negative square of the OUTER
    point is clamped at 0 instead: it rounds negative only when ||p||^2
    lies within its terms' rounding of 0 (in late epochs of a boundary
    optimum the point is ~1e-10 long while the terms are ~1e-5), far
    inside the Delta-ball, so the step stays OUTER and costs the caller no
    explicit projection.
    """
    delta = domain.inner_radius
    if not 0.0 <= v_sq < math.inf:
        return 1.0, 0.0, BOTH, v_sq
    v_norm = math.sqrt(v_sq)
    if domain.outer_inactive:
        if v_norm <= delta:
            return 1.0, 0.0, FAST, v_sq
        k = delta / v_norm
        return k, 0.0, INNER, k * k * v_sq
    R, a_sq = domain.outer_radius, domain.anchor_sq
    u_sq = v_sq + 2.0 * va + a_sq
    if not 0.0 <= u_sq < math.inf:
        return 1.0, 0.0, BOTH, v_sq
    u_norm = math.sqrt(u_sq)
    if v_norm <= delta:
        if u_norm <= R:
            return 1.0, 0.0, FAST, v_sq
    else:
        k = delta / v_norm
        p_sq = k * k * v_sq
        # A negative ||p + anchor||^2 is a cancellation: p + anchor ~ 0.
        if math.sqrt(max(p_sq + 2.0 * k * va + a_sq, 0.0)) <= R:
            return k, 0.0, INNER, p_sq
    if u_norm > R:
        k = R / u_norm
        k_a = k - 1.0
        # A negative ||p||^2 is a cancellation: p ~ 0, whose square is 0.
        p_sq = max(k * k * v_sq + 2.0 * k * k_a * va + k_a * k_a * a_sq, 0.0)
        if math.sqrt(p_sq) <= delta:
            return k, k_a, OUTER, p_sq
    return 1.0, 0.0, BOTH, v_sq

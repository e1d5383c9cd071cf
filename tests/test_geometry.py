import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mixedgrad.geometry import (BOTH, FAST, INNER, OUTER, EpochDomain,
                                _project_two_balls, _two_ball_coefficients,
                                project_ball, project_epoch_domain)


def grid_norms(xs, center):
    """sqrt((x - c_0)^2 + (y - c_1)^2) at every point (x, y) of the grid
    xs x xs, row k holding y = xs[k], from two 1-D squares."""
    return np.sqrt(((xs - center[0]) ** 2)[None, :]
                   + ((xs - center[1]) ** 2)[:, None])


def grid_search_projection(w, domain, resolution=1e-3):
    """Brute-force 2-D projection oracle: the feasible point of a square
    grid nearest w, and its distance."""
    d = domain.inner_radius
    xs = np.arange(-d, d + resolution, resolution)
    feas = (grid_norms(xs, np.zeros(2)) <= domain.inner_radius) \
        & (grid_norms(xs, -domain.anchor) <= domain.outer_radius)
    dists = np.where(feas, grid_norms(xs, w), np.inf)
    row, col = np.unravel_index(np.argmin(dists), dists.shape)
    return np.array([xs[col], xs[row]]), dists[row, col]


class TestProjectBall:
    def test_inside_unchanged(self):
        w = np.array([0.3, 0.4])
        np.testing.assert_array_equal(project_ball(w, 1.0), w)

    def test_radial_scaling(self):
        np.testing.assert_allclose(project_ball(np.array([3.0, 4.0]), 1.0),
                                   [0.6, 0.8], atol=1e-15)

    def test_zero_fixed_point(self):
        np.testing.assert_array_equal(project_ball(np.zeros(3), 0.7),
                                      np.zeros(3))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_ball(np.array([np.nan, 0.0]), 1.0)

    def test_finite_point_whose_square_overflows(self):
        # ||w||^2 overflows to inf although w is finite; the point still
        # lands on the sphere, not at the center.
        w = np.array([1e200, -1e200])
        with np.errstate(over="ignore"):
            p = project_ball(w, 1.0)
            shifted = project_ball(w, 1.0, center=np.array([0.5, 0.0]))
        np.testing.assert_allclose(p, [math.sqrt(0.5), -math.sqrt(0.5)],
                                   rtol=1e-15)
        np.testing.assert_allclose(shifted, [0.5 + math.sqrt(0.5),
                                             -math.sqrt(0.5)], rtol=1e-15)


NON_FINITE = [math.nan, math.inf, -math.inf]
# Two domains with anchor (0.5, 0, ...): the first certified outer_inactive,
# the second not.
CONTAINED = (2.0, 0.25)
OPEN = (1.0, 0.5)


def anchored_domain(d, radii):
    return EpochDomain(np.eye(d)[0] * 0.5, *radii)


@pytest.fixture
def warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.usefixtures("warnings_as_errors")
class TestNonFinite:
    """The kernels' one finiteness check: a square that is not finite is
    rescaled if the point is finite, and the point is rejected otherwise,
    on every public path, with no numpy warning."""

    @pytest.mark.parametrize("entry", NON_FINITE)
    @pytest.mark.parametrize("project", [
        lambda w: project_ball(w, 1.0),
        lambda w: project_ball(w, 1.0, center=np.array([0.5, 0.0, 0.0])),
        lambda w: project_epoch_domain(w, anchored_domain(3, CONTAINED)),
        lambda w: project_epoch_domain(w, anchored_domain(3, OPEN)),
    ], ids=["ball", "ball-center", "domain-contained", "domain"])
    def test_non_finite_entry_is_rejected(self, project, entry):
        with pytest.raises(ValueError,
                           match="^cannot project a non-finite point$"):
            project(np.array([0.1, entry, 0.0]))

    def test_offset_from_center_that_overflows_is_rejected(self):
        # w and the center are finite, but w - center is not: the
        # projection raises instead of returning NaN.
        with pytest.raises(ValueError,
                           match="^cannot project a non-finite point$"):
            project_ball(np.array([1e308, 0.0]), 1.0,
                         center=np.array([-1e308, 0.0]))

    def test_rescale_path_raises_no_warning(self):
        # ||w||^2 overflows although w is finite: no overflow warning
        # escapes, and every path lands on its sphere.
        w = np.array([1e200, -1e200])
        h = math.sqrt(0.5)
        np.testing.assert_allclose(project_ball(w, 1.0), [h, -h], rtol=1e-15)
        np.testing.assert_allclose(
            project_ball(w, 1.0, center=np.array([0.5, 0.0])),
            [0.5 + h, -h], rtol=1e-15)
        for radii, contained in [(CONTAINED, True), (OPEN, False)]:
            dom = anchored_domain(2, radii)
            assert dom.outer_inactive == contained
            delta = dom.inner_radius
            np.testing.assert_allclose(project_epoch_domain(w, dom),
                                       [delta * h, -delta * h], rtol=1e-15)


class TestShapes:
    @pytest.mark.parametrize("call, message", [
        (lambda: EpochDomain(np.array(0.1), 1.0, 0.5),
         r"anchor must be a non-empty 1-D array, got shape ()"),
        (lambda: EpochDomain(np.array([]), 1.0, 0.5),
         r"anchor must be a non-empty 1-D array, got shape (0,)"),
        (lambda: project_epoch_domain(np.array([0.1, 0.2, 0.3]),
                                      EpochDomain([0.1, 0.0], 2.0, 0.5)),
         r"w has shape (3,) but the domain's anchor has shape (2,)"),
        (lambda: project_epoch_domain(np.array([3.0]),
                                      EpochDomain([0.5, 0.0], 1.0, 0.5)),
         r"w has shape (1,) but the domain's anchor has shape (2,)"),
        (lambda: project_ball([3.0], 1.0, center=[0, 0]),
         r"w has shape (1,) but center has shape (2,)"),
        (lambda: project_ball(np.array(3.0), 1.0),
         r"w must be a non-empty 1-D array, got shape ()"),
        (lambda: project_ball(np.zeros((2, 2)), 1.0),
         r"w must be a non-empty 1-D array, got shape (2, 2)"),
        (lambda: EpochDomain([0.5, 0.0], 1.0, 0.5).contains(np.array([0.1])),
         r"w has shape (1,) but the domain's anchor has shape (2,)"),
        (lambda: EpochDomain([0.5, 0.0], 1.0, 0.5).contains(np.zeros((3, 2))),
         r"w has shape (3, 2) but the domain's anchor has shape (2,)"),
    ], ids=["anchor-0d", "anchor-empty", "domain-certified",
            "domain-broadcast", "ball-center", "ball-0d", "ball-2d",
            "contains-broadcast", "contains-2d"])
    def test_mismatched_shape_is_rejected(self, call, message):
        # The constructor and the public wrappers check shapes and name
        # them; unchecked, these calls broadcast, return the point
        # unchanged, or fail inside a kernel.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestEpochDomain:
    def test_rejects_anchor_outside_outer_ball(self):
        with pytest.raises(ValueError):
            EpochDomain(np.array([2.0, 0.0]), 1.0, 0.5)

    def test_origin_always_feasible(self):
        dom = EpochDomain(np.array([0.8, 0.0]), 1.0, 0.5)
        assert dom.contains(np.zeros(2))

    def test_compares_and_hashes_by_identity(self):
        # The anchor is an array, so field-wise equality would ask numpy
        # for an array's truth value; domains compare as objects.
        dom = EpochDomain(np.array([0.5, 0.0]), 1.0, 0.5)
        twin = EpochDomain(np.array([0.5, 0.0]), 1.0, 0.5)
        assert (dom == dom) is True and (dom == twin) is False
        assert (dom != twin) is True
        assert len({dom, twin, dom}) == 2


class TestProjectEpochDomain:
    def test_feasible_point_unchanged(self):
        dom = EpochDomain(np.array([0.5, 0.0]), 1.0, 0.4)
        w = np.array([0.1, 0.2])
        assert dom.contains(w)
        np.testing.assert_allclose(project_epoch_domain(w, dom), w, atol=1e-12)

    def test_reduces_to_inner_ball_when_outer_inactive(self):
        dom = EpochDomain(np.zeros(2), 2.0, 0.5)
        w = np.array([3.0, 4.0])
        np.testing.assert_allclose(project_epoch_domain(w, dom),
                                   project_ball(w, 0.5), atol=1e-12)

    def test_against_grid_search_reference_case(self):
        dom = EpochDomain(np.array([0.8, 0.0]), 1.0, 0.5)
        w = np.array([1.0, 1.0])
        p = project_epoch_domain(w, dom)
        _, best = grid_search_projection(w, dom)
        assert abs(np.linalg.norm(p - w) - best) <= 2e-3
        assert np.linalg.norm(p) <= dom.inner_radius + 1e-9
        assert np.linalg.norm(p + dom.anchor) <= dom.outer_radius + 1e-9

    def test_idempotence_nonexpansiveness_feasibility(self):
        rng = np.random.default_rng(314)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            R = rng.uniform(0.5, 2.0)
            anchor = rng.standard_normal(d)
            anchor *= rng.uniform(0, R) / np.linalg.norm(anchor)
            dom = EpochDomain(anchor, R, rng.uniform(0.1, R))
            a = rng.standard_normal(d) * 2
            b = rng.standard_normal(d) * 2
            pa = project_epoch_domain(a, dom)
            pb = project_epoch_domain(b, dom)
            assert dom.contains(pa) and dom.contains(pb)
            # idempotence
            np.testing.assert_allclose(project_epoch_domain(pa, dom), pa,
                                       atol=1e-9)
            # non-expansiveness
            assert (np.linalg.norm(pa - pb)
                    <= np.linalg.norm(a - b) + 1e-9)

    def test_oracle_equivalence_2d(self):
        rng = np.random.default_rng(2718)
        for _ in range(20):
            R = rng.uniform(0.5, 1.5)
            anchor = rng.standard_normal(2)
            anchor *= rng.uniform(0.3, 1.0) * R / np.linalg.norm(anchor)
            dom = EpochDomain(anchor, R, rng.uniform(0.2, R))
            w = rng.standard_normal(2) * 1.5
            p = project_epoch_domain(w, dom)
            _, best = grid_search_projection(w, dom)
            assert abs(np.linalg.norm(p - w) - best) <= 2e-3

    def test_rejects_nonfinite(self):
        dom = EpochDomain(np.zeros(2), 1.0, 0.5)
        with pytest.raises(ValueError):
            project_epoch_domain(np.array([np.inf, 0.0]), dom)


def two_shortcut_body(w, domain):
    """project_epoch_domain's two shortcuts as written before the kernel
    took its norms from the caller: (point, branch), point None for the
    two-ball branch, and FAST for w itself inside both balls."""
    a, R, delta = domain.anchor, domain.outer_radius, domain.inner_radius
    nrm = math.sqrt(w @ w)
    p = w if nrm <= delta else w * (delta / nrm)
    q = p + a
    if math.sqrt(q @ q) <= R:
        return p, FAST if p is w else INNER
    v = w - (-a)
    nrm = math.sqrt(v @ v)
    p = w if nrm <= R else (-a) + v * (R / nrm)
    if math.sqrt(p @ p) <= delta:
        return p, OUTER
    return None, BOTH


def circle_point(w, domain):
    """The point nearest w on the circle where the two spheres meet, as
    the textbook formula s*a_hat + rho*w_perp/||w_perp|| (a != 0)."""
    a, R, delta = domain.anchor, domain.outer_radius, domain.inner_radius
    a_norm = np.linalg.norm(a)
    a_hat = a / a_norm
    s = (R ** 2 - delta ** 2 - a_norm ** 2) / (2 * a_norm)
    rho = math.sqrt(max(delta ** 2 - s ** 2, 0.0))
    w_perp = w - (w @ a_hat) * a_hat
    perp_norm = np.linalg.norm(w_perp)
    if perp_norm == 0:
        return s * a_hat
    return s * a_hat + rho * w_perp / perp_norm


def random_case(rng, d_low=1, d_high=9):
    d = int(rng.integers(d_low, d_high))
    R = rng.uniform(0.5, 2.0)
    anchor = rng.standard_normal(d)
    anchor *= rng.uniform(0.0, R) / np.linalg.norm(anchor)
    dom = EpochDomain(anchor, R, rng.uniform(0.05, 2.0 * R))
    return rng.standard_normal(d) * rng.uniform(0.0, 3.0 * R), dom


def kernel(w, domain):
    """The kernel's point and branch for w, as project_epoch_domain and the
    solver's step loop call it. Checks on every call that the point is w
    itself exactly on the FAST branch."""
    p, branch = _project_two_balls(w, domain)
    assert (branch == FAST) == (p is w)
    return p, branch


class TestProjectionKernel:
    def test_matches_two_shortcut_body_bit_for_bit(self):
        # The shortcut branches are bit-identical to the two-shortcut body;
        # every two-ball case lies on the spheres' circle.
        rng = np.random.default_rng(1234)
        seen = {FAST: 0, INNER: 0, OUTER: 0, BOTH: 0}
        for _ in range(12_000):
            w, dom = random_case(rng)
            expected, branch = two_shortcut_body(w, dom)
            seen[branch] += 1
            p, got = kernel(w, dom)
            assert got == branch
            if branch == BOTH:
                np.testing.assert_allclose(p, circle_point(w, dom), rtol=0,
                                           atol=1e-12)
            else:
                assert np.array_equal(p, expected)
            np.testing.assert_array_equal(project_epoch_domain(w, dom), p)
        assert min(seen.values()) >= 100

    def test_two_ball_cases_satisfy_kkt(self):
        # KKT conditions of min ||w - p||^2 s.t. ||p|| <= Delta,
        # ||p + a|| <= R: feasibility, w - p = mu1 p + mu2 (p + a) with
        # mu >= 0, and complementary slackness.
        rng = np.random.default_rng(99)
        cases = 0
        # This seed reaches 1,000 two-ball cases at draw 11,323; the cap
        # makes a kernel that never returns BOTH fail instead of spin.
        for _ in range(20_000):
            w, dom = random_case(rng, d_low=2)
            p, branch = kernel(w, dom)
            if branch != BOTH:
                continue
            cases += 1
            a, R, delta = dom.anchor, dom.outer_radius, dom.inner_radius
            slack = np.array([delta - np.linalg.norm(p),
                              R - np.linalg.norm(p + a)])
            assert slack.min() >= -1e-12
            normals = np.stack([p, p + a], axis=1)
            mu = np.linalg.lstsq(normals, w - p, rcond=None)[0]
            np.testing.assert_allclose(normals @ mu, w - p, rtol=0,
                                       atol=1e-9)
            assert mu.min() >= -1e-9
            assert np.max(mu * np.abs(slack)) <= 1e-9
            if cases == 1_000:
                break
        assert cases >= 1_000

    def test_zero_anchor_scales_into_smaller_ball(self):
        # With anchor 0 and Delta = R both shortcuts can miss by an ulp
        # (the first epoch of a boundary run); the kernel then scales v.
        dom = EpochDomain(np.zeros(3), 1.0, 1.0)
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(2_000):
            w = rng.standard_normal(3)
            w *= rng.uniform(1.5, 3.0) / np.linalg.norm(w)
            p, branch = kernel(w, dom)
            if branch == BOTH:
                hits += 1
                assert np.array_equal(p, w * (1.0 / math.sqrt(w @ w)))
            assert abs(np.linalg.norm(p) - 1.0) <= 1e-15
        assert hits > 0

    @pytest.mark.parametrize("d", [1, 2])
    def test_point_on_anchor_axis(self, d):
        # Spheres that touch at one point on the anchor's axis: a v on
        # that axis reaches the two-ball branch only by rounding, and its
        # projection is the touching point s * a_hat.
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(2_000):
            alpha = rng.uniform(0.05, 0.95)
            R = rng.uniform(1.0, 2.0)
            sign = rng.choice([-1.0, 1.0])
            delta = R - alpha if sign > 0 else R + alpha
            axis = np.eye(d)[0]
            dom = EpochDomain(alpha * axis, R, delta)
            w = sign * rng.uniform(delta, 3.0 * R) * axis
            p, branch = kernel(w, dom)
            if branch == BOTH:
                hits += 1
            assert np.all(p[1:] == 0.0)
            assert abs(p[0] - sign * delta) <= 1e-15 * R
        assert hits > 0

    def test_one_dimension_matches_interval_clip(self):
        # In 1-D the domain is an interval; its two-ball cases arise only
        # by rounding (test_point_on_anchor_axis).
        rng = np.random.default_rng(7)
        seen = {FAST: 0, INNER: 0, OUTER: 0, BOTH: 0}
        for _ in range(5_000):
            w, dom = random_case(rng, d_low=1, d_high=2)
            a, R, delta = dom.anchor[0], dom.outer_radius, dom.inner_radius
            lo, hi = max(-delta, -R - a), min(delta, R - a)
            p, branch = kernel(w, dom)
            seen[branch] += 1
            assert abs(p[0] - np.clip(w[0], lo, hi)) <= 1e-15 * R
        assert seen[INNER] > 0 and seen[OUTER] > 0

    def test_finite_point_whose_square_overflows(self):
        # ||w||^2 overflows to inf although w is finite; the kernel still
        # scales w onto the inner sphere.
        dom = EpochDomain(np.array([0.5, 0.0]), 1.0, 0.25)
        w = np.array([1e200, -1e200])
        with np.errstate(over="ignore"):
            p, got = kernel(w, dom)
            public = project_epoch_domain(w, dom)
        assert got == INNER
        np.testing.assert_allclose(p, [0.25 * math.sqrt(0.5),
                                       -0.25 * math.sqrt(0.5)], rtol=1e-15)
        np.testing.assert_array_equal(public, p)

    @pytest.mark.parametrize("a, w, branch, same", [
        (0.9, [0.0, 0.1], FAST, True),
        (0.9, [-1.0, 0.3], INNER, False),
        (0.9, [0.2, 0.03], OUTER, False),
        (0.9, [0.5, 0.5], BOTH, False),
        (0.1, [0.0, 0.1], FAST, True),
        (0.1, [0.3, 1.0], INNER, False),
    ])
    def test_branch_and_identity_on_every_return(self, a, w, branch, same):
        # Each return names its branch, and only FAST returns v itself: v
        # (FAST) or v scaled (INNER), both also with a = 0.1 on a domain
        # certified outer_inactive, u scaled and shifted (OUTER), and the
        # circle point (BOTH). The concentric and on-axis BOTH returns
        # arise only by rounding; the zero-anchor and anchor-axis tests
        # above reach them through kernel().
        dom = EpochDomain(np.array([a, 0.0]), 1.0, 0.25)
        w = np.array(w)
        p, got = kernel(w, dom)
        assert got == branch and (p is w) == same
        assert dom.outer_inactive == (a == 0.1)


def threshold(anchor, delta):
    """(computed ||anchor|| + Delta) * (1 + 4 (d + 2) eps), exactly."""
    eps = Fraction(sys.float_info.epsilon)
    return ((Fraction(float(np.linalg.norm(anchor))) + Fraction(delta))
            * (1 + 4 * (anchor.size + 2) * eps))


def contained_case(rng):
    """A domain whose R lies up to twice the margin above ||a|| + Delta, so
    about half of them are certified, and a v nearly parallel to the anchor
    (where ||v + a|| is largest) with ||v|| spread around Delta: within a
    few ulp of it, or within a factor of 2."""
    d = int(rng.integers(1, 9))
    anchor = rng.standard_normal(d)
    anchor *= rng.uniform(0.0, 1.0) / np.linalg.norm(anchor)
    delta = rng.uniform(0.05, 1.0)
    a_norm = float(np.linalg.norm(anchor))
    R = (a_norm + delta) * (1.0 + rng.uniform(0.0, 2.0) * 4 * (d + 2)
                            * sys.float_info.epsilon)
    dom = EpochDomain(anchor, R, delta)
    direction = anchor + 10.0 ** rng.uniform(-12, -3) * rng.standard_normal(d)
    if rng.random() < 0.5:
        length = delta * (1.0 + rng.integers(-8, 9) * sys.float_info.epsilon)
    else:
        length = delta * 2.0 ** rng.uniform(-1, 1)
    return direction * (length / np.linalg.norm(direction)), dom


class TestOuterInactive:
    def test_shortcut_matches_full_body_bit_for_bit(self):
        # On a certified domain the computed ||v + a|| (fast-path test) and
        # ||p + a|| (INNER check) never exceed R, so the kernel's full body
        # returns the Delta-ball projection, FAST or INNER: the claim that
        # lets the scalar kernel's shortcut skip the R-ball.
        rng = np.random.default_rng(2024)
        cases = near = 0
        for _ in range(22_000):
            w, dom = contained_case(rng)
            if not dom.outer_inactive:
                continue
            cases += 1
            near += abs(math.sqrt(w @ w) - dom.inner_radius) \
                <= 8 * np.spacing(dom.inner_radius)
            expected, branch = two_shortcut_body(w, dom)
            p, got = kernel(w, dom)
            assert branch == got and got in (FAST, INNER)
            assert np.array_equal(p, expected)
        assert cases >= 10_000 and near >= 2_000

    def test_flag_follows_the_margin_to_within_four_ulp(self):
        # R four or more ulp below the exact threshold is not certified,
        # four or more above it is; ||a|| + Delta alone is never enough.
        rng = np.random.default_rng(17)
        for _ in range(500):
            d = int(rng.integers(1, 60))
            anchor = rng.standard_normal(d)
            anchor *= rng.uniform(0.0, 1.0) / np.linalg.norm(anchor)
            delta = rng.uniform(1e-6, 1.0)
            T = threshold(anchor, delta)
            down = up = float(T)
            for k in range(1, 9):
                down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
                if k >= 4:
                    assert not EpochDomain(anchor, down, delta).outer_inactive
                    assert EpochDomain(anchor, up, delta).outer_inactive
            assert Fraction(down) < T < Fraction(up)
            a_norm = float(np.linalg.norm(anchor))
            assert not EpochDomain(anchor, a_norm + delta,
                                   delta).outer_inactive


def scalar_kernel(w, domain):
    """_two_ball_coefficients on w.w and w.anchor: the point its
    coefficients give (None on BOTH, where the caller projects w itself),
    the branch and the square it returns."""
    k_v, k_a, branch, p_sq = _two_ball_coefficients(
        float(w @ w), float(w @ domain.anchor), domain)
    if branch == BOTH:
        return None, branch, p_sq
    return k_v * w + k_a * domain.anchor, branch, p_sq


class TestScalarKernel:
    # Rounding bound for a point (and its square) built from a handful of
    # scalar operations: 8 u relative to ||w|| + ||anchor|| (squared).
    TOL = 8 * 2.0 ** -53

    def assert_close(self, w, dom, q, q_sq, p):
        scale = np.linalg.norm(w) + np.linalg.norm(dom.anchor)
        assert np.linalg.norm(q - p) <= self.TOL * scale
        assert abs(q_sq - q @ q) <= self.TOL * scale * scale

    def test_matches_vector_kernel(self):
        # The vector kernel's random cases: every branch is the vector
        # kernel's, and every point and square agree to rounding.
        rng = np.random.default_rng(1234)
        seen = {FAST: 0, INNER: 0, OUTER: 0, BOTH: 0}
        for _ in range(12_000):
            w, dom = random_case(rng)
            p, branch = kernel(w, dom)
            q, got, q_sq = scalar_kernel(w, dom)
            assert got == branch
            seen[got] += 1
            if got != BOTH:
                self.assert_close(w, dom, q, q_sq, p)
        assert min(seen.values()) >= 100

    def test_ties_give_a_feasible_point_as_near_as_the_vector_kernels(self):
        # ||v|| within a few ulp of Delta, and R within a few ulp of
        # ||a|| + Delta: the spheres are nearly tangent, so a point within
        # rounding of both can lie ~sqrt(u) from the projection, and the
        # two kernels may name different branches. Wherever the scalar one
        # decides, its point is feasible to rounding and no farther from v
        # than the vector kernel's, to rounding.
        rng = np.random.default_rng(2024)
        for _ in range(22_000):
            w, dom = contained_case(rng)
            p, _ = kernel(w, dom)
            q, got, _ = scalar_kernel(w, dom)
            if got == BOTH:
                continue
            tol = self.TOL * (np.linalg.norm(w) + np.linalg.norm(dom.anchor))
            assert np.linalg.norm(q) <= dom.inner_radius + tol
            assert np.linalg.norm(q + dom.anchor) <= dom.outer_radius + tol
            assert np.linalg.norm(w - q) <= np.linalg.norm(w - p) + tol

    def test_negative_outer_square_is_clamped(self):
        # v = 1e-6 a with ||a|| = R: the OUTER point u R/||u|| - a is
        # ~1e-16 long, while the terms of its scalar square are ~1e-12, so
        # the square often rounds negative. The kernel clamps it at 0 and
        # still names OUTER, as the vector kernel does, and its point
        # agrees with the vector kernel's to rounding.
        rng = np.random.default_rng(0)
        clamped = 0
        for _ in range(200):
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            if np.linalg.norm(a) > 1.0:
                continue
            dom = EpochDomain(a, 1.0, 0.25)
            w = 1e-6 * a
            w_sq, wa = float(w @ w), float(w @ a)
            k = 1.0 / math.sqrt(w_sq + 2.0 * wa + dom.anchor_sq)
            k_a = k - 1.0
            raw = k * k * w_sq + 2.0 * k * k_a * wa + k_a * k_a * dom.anchor_sq
            if raw >= 0.0:
                continue
            clamped += 1
            p, branch = kernel(w, dom)
            q, got, q_sq = scalar_kernel(w, dom)
            assert branch == got == OUTER
            assert q_sq == 0.0
            self.assert_close(w, dom, q, q_sq, p)
        assert clamped >= 10

    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_concentric_inner_and_both_points_are_equal(self, delta):
        # Anchor 0: the INNER point v Delta/||v|| and the concentric BOTH
        # point v min(R, Delta)/||v|| are the same when Delta <= R, so
        # which branch a kernel names at Delta = R, where ||p|| rounds
        # either side of R, moves no bit of the point. The scalar kernel
        # scales by the same computed norm, and its OUTER point
        # k v + (k - 1) 0 is k v with k = R/||v||.
        dom = EpochDomain(np.zeros(3), 1.0, delta)
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(2_000):
            w = rng.standard_normal(3)
            w *= rng.uniform(1.5, 3.0) / np.linalg.norm(w)
            expected = w * (delta / math.sqrt(w @ w))
            p, branch = kernel(w, dom)
            q, got, _ = scalar_kernel(w, dom)
            seen.update([branch, got])
            assert branch in (INNER, BOTH)
            assert np.array_equal(p, expected)
            assert got == BOTH or np.array_equal(q, expected)
        assert seen >= ({INNER, BOTH} if delta == 1.0 else {INNER})


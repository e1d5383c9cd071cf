import math

import numpy as np
import pytest

from mixedgrad.geometry import (BOTH, DYKSTRA_MAX_SWEEPS, DYKSTRA_TOL, INNER,
                                OUTER, EpochDomain, _project_two_balls,
                                project_ball, project_epoch_domain)


def grid_search_projection(w, domain, resolution=1e-3):
    """Brute-force 2-D projection oracle: densest feasible grid point."""
    d = domain.inner_radius
    xs = np.arange(-d, d + resolution, resolution)
    gx, gy = np.meshgrid(xs, xs)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    feas = (np.linalg.norm(pts, axis=1) <= domain.inner_radius) \
        & (np.linalg.norm(pts + domain.anchor, axis=1) <= domain.outer_radius)
    pts = pts[feas]
    dists = np.linalg.norm(pts - w, axis=1)
    return pts[np.argmin(dists)], dists.min()


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


class TestEpochDomain:
    def test_rejects_anchor_outside_outer_ball(self):
        with pytest.raises(ValueError):
            EpochDomain(np.array([2.0, 0.0]), 1.0, 0.5)

    def test_origin_always_feasible(self):
        dom = EpochDomain(np.array([0.8, 0.0]), 1.0, 0.5)
        assert dom.contains(np.zeros(2))


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
    two-ball branch."""
    a, R, delta = domain.anchor, domain.outer_radius, domain.inner_radius
    nrm = math.sqrt(w @ w)
    p = w if nrm <= delta else w * (delta / nrm)
    q = p + a
    if math.sqrt(q @ q) <= R:
        return p, INNER
    v = w - (-a)
    nrm = math.sqrt(v @ v)
    p = w if nrm <= R else (-a) + v * (R / nrm)
    if math.sqrt(p @ p) <= delta:
        return p, OUTER
    return None, BOTH


def dykstra(w, domain):
    """The two-ball loop of project_epoch_domain, written out."""
    a, R, delta = domain.anchor, domain.outer_radius, domain.inner_radius
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
    return project_ball(x, delta)


def kernel(w, domain):
    u = w + domain.anchor
    return _project_two_balls(w, math.sqrt(w.dot(w)), u, math.sqrt(u.dot(u)),
                              domain)


class TestProjectionKernel:
    def test_matches_two_shortcut_body_bit_for_bit(self):
        rng = np.random.default_rng(1234)
        seen = {INNER: 0, OUTER: 0, BOTH: 0}
        for _ in range(12_000):
            d = int(rng.integers(1, 9))
            R = rng.uniform(0.5, 2.0)
            anchor = rng.standard_normal(d)
            anchor *= rng.uniform(0.0, R) / np.linalg.norm(anchor)
            dom = EpochDomain(anchor, R, rng.uniform(0.05, 2.0 * R))
            w = rng.standard_normal(d) * rng.uniform(0.0, 3.0 * R)
            expected, branch = two_shortcut_body(w, dom)
            # The Dykstra fallback is slow; check a sample of it.
            if branch == BOTH and seen[BOTH] >= 100:
                continue
            seen[branch] += 1
            p, got = kernel(w, dom)
            assert got == branch
            if branch == BOTH:
                expected = dykstra(w, dom)
            assert np.array_equal(p, expected)
            np.testing.assert_array_equal(project_epoch_domain(w, dom), p)
        assert sum(seen.values()) >= 10_000
        assert min(seen.values()) >= 100

    def test_finite_point_whose_square_overflows(self):
        # ||w||^2 overflows to inf although w is finite; the kernel takes
        # the same inner-ball branch the two-shortcut body takes.
        dom = EpochDomain(np.array([0.5, 0.0]), 1.0, 0.25)
        w = np.array([1e200, -1e200])
        with np.errstate(over="ignore"):
            expected, branch = two_shortcut_body(w, dom)
            p, got = kernel(w, dom)
            public = project_epoch_domain(w, dom)
        assert got == branch == INNER
        assert np.array_equal(p, expected)
        np.testing.assert_array_equal(public, p)

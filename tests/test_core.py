import math
from types import SimpleNamespace

import numpy as np
import pytest

from mixedgrad.bench import gen_synthetic
from mixedgrad.core import (DivergenceError, EpochState, MixedGradConfig,
                            ProjectionCounts, anchor_gradient,
                            epoch_subproblem_optimum, run, run_epoch,
                            shrink_schedule, theory_params)
from mixedgrad.geometry import (BOTH, INNER, OUTER, EpochDomain,
                                project_ball, project_epoch_domain)
from mixedgrad.losses import (LEAST_SQUARES, LOGISTIC, Dataset,
                              ProblemInstance, full_objective, loss_grad,
                              mean_gradient)
from mixedgrad.oracle import (INDEX_BLOCK, OracleCounters, SeededSampler,
                              sample_loss)


def make_instance(X, y, radius=1.0):
    return ProblemInstance(Dataset(np.asarray(X, float),
                                   np.asarray(y, float)),
                           LEAST_SQUARES, radius)


def random_instance(n=12, d=4, seed=0, radius=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return make_instance(X, rng.standard_normal(n), radius)


class TestAnchorGradient:
    def test_zero_anchor(self):
        inst = random_instance()
        c = OracleCounters()
        g = anchor_gradient(inst, np.zeros(4), 3.0, c)
        np.testing.assert_array_equal(g, mean_gradient(inst, np.zeros(4)))
        assert c.full_calls == 1

    def test_zero_lambda(self):
        inst = random_instance()
        w_bar = np.full(4, 0.1)
        g = anchor_gradient(inst, w_bar, 0.0, OracleCounters())
        np.testing.assert_array_equal(g, mean_gradient(inst, w_bar))

    def test_two_point_toy(self):
        # x=(1) y=1 and x=(1) y=-1, anchor=(1), lam=1:
        # grads are 0 and 4, mean 2, plus lam*anchor -> 3
        inst = make_instance([[1.0], [1.0]], [1.0, -1.0], radius=2.0)
        g = anchor_gradient(inst, np.array([1.0]), 1.0, OracleCounters())
        np.testing.assert_allclose(g, [3.0], atol=1e-15)


def correction(inst, i, w, anchor):
    """grad g_i(w + anchor) - grad g_i(anchor): the variance-reduction
    correction of reference_epoch's step."""
    return loss_grad(inst, i, w + anchor) - loss_grad(inst, i, anchor)


class TestVrGradient:
    """The variance-reduced gradient of run_epoch's inner step."""

    def test_bitwise_anchor_determinism(self):
        # At w = 0 the correction is exactly 0, so a one-step epoch on
        # example i steps to -eta * anchor_grad bit for bit, whatever i,
        # the loss, the dimension and the anchor are.
        rng = np.random.default_rng(5)
        for kind in (LEAST_SQUARES, LOGISTIC):
            for d in (3, 10, 20, 50):
                X = rng.standard_normal((30, d))
                y = (rng.standard_normal(30) if kind == LEAST_SQUARES
                     else np.where(rng.standard_normal(30) >= 0, 1.0, -1.0))
                inst = ProblemInstance(Dataset(X, y), kind, 100.0)
                eta = 0.5 / inst.smoothness
                for scale in (0.1, 1.0, 3.0):
                    anchor = scale * rng.standard_normal(d)
                    g_k = anchor_gradient(inst, anchor, 0.7, OracleCounters())
                    state = EpochState(1, anchor, 100.0, 0.7, eta, 1, g_k)
                    for i in range(inst.n):
                        # A sampler stub whose every draw is example i.
                        sampler = SimpleNamespace(
                            draw_block=lambda n, k, i=i: [i] * k)
                        mean, max_sq, _ = run_epoch(inst, state, sampler,
                                                    OracleCounters())
                        assert max_sq == 0.0
                        assert np.array_equal(2 * mean, -(eta * g_k))

    def test_unbiasedness(self):
        inst = random_instance(n=20, seed=11)
        rng = np.random.default_rng(4)
        anchor = rng.uniform(-0.2, 0.2, 4)
        lam = 0.5
        g_k = anchor_gradient(inst, anchor, lam, OracleCounters())
        for _ in range(50):
            w = rng.uniform(-0.3, 0.3, 4)
            mean_vr = sum(g_k + correction(inst, i, w, anchor) + lam * w
                          for i in range(inst.n)) / inst.n
            expected = (lam * w + lam * anchor
                        + mean_gradient(inst, w + anchor))
            np.testing.assert_allclose(mean_vr, expected, atol=1e-12)


class TestInnerStep:
    def test_zero_step_size(self):
        inst = random_instance()
        anchor = np.array([0.2, -0.1, 0.05, 0.3])
        g_k = anchor_gradient(inst, anchor, 1.0, OracleCounters())
        state = EpochState(1, anchor, 1.0, 1.0, 0.0, 100, g_k)
        mean, max_sq, _ = run_epoch(inst, state, SeededSampler(0),
                                    OracleCounters())
        np.testing.assert_array_equal(mean, np.zeros(4))
        assert max_sq == 0.0

    def test_nonfinite_gradient_raises(self):
        inst = random_instance()
        g_k = np.array([np.nan, 0.0, 0.0, 0.0])
        state = EpochState(1, np.zeros(4), 1.0, 1.0, 0.1, 50, g_k)
        c = OracleCounters()
        with pytest.raises(DivergenceError, match="epoch 1, step 1$"):
            run_epoch(inst, state, SeededSampler(0), c)
        assert c.stochastic_calls == 1


class TestRunEpoch:
    def test_zero_inner_iters_averages_initial_zero(self):
        inst = random_instance()
        state = EpochState(1, np.zeros(4), 1.0, 1.0, 0.1, 0,
                           anchor_gradient(inst, np.zeros(4), 1.0,
                                           OracleCounters()))
        w_tilde, _, _ = run_epoch(inst, state, SeededSampler(0), OracleCounters())
        np.testing.assert_array_equal(w_tilde, np.zeros(4))

    def test_huge_lambda_pins_average_near_zero(self):
        inst = random_instance()
        c = OracleCounters()
        lam = 1e6
        state = EpochState(1, np.zeros(4), 1.0, lam, 1e-7, 200,
                           np.zeros(4))
        w_tilde, _, _ = run_epoch(inst, state, SeededSampler(1), c)
        assert np.linalg.norm(w_tilde) <= 1e-3

    def test_deterministic_quadratic_reaches_subproblem_optimum(self):
        # n=1: the stochastic gradient is exact, so the epoch is plain
        # projected gradient descent on the regularized 1-D quadratic
        a = 0.8
        inst = make_instance([[1.0]], [a], radius=5.0)
        lam, eta, T, delta = 1.0, 0.1, 2000, 0.5
        c = OracleCounters()
        g_k = anchor_gradient(inst, np.zeros(1), lam, c)
        state = EpochState(1, np.zeros(1), delta, lam, eta, T, g_k)
        w_tilde, _, _ = run_epoch(inst, state, SeededSampler(0), c)
        w_opt = min(2 * a / (lam + 2), delta)  # closed form, clamped
        assert abs(w_tilde[0] - w_opt) <= 10 * eta
        assert np.linalg.norm(w_tilde) <= delta + 1e-12

    def test_infinite_step_diverges_at_first_step(self):
        inst = random_instance()
        c = OracleCounters()
        g_k = anchor_gradient(inst, np.zeros(4), 1.0, c)
        state = EpochState(1, np.zeros(4), 1.0, 1.0, math.inf, 50, g_k)
        with pytest.raises(DivergenceError, match="epoch 1, step 1$"):
            run_epoch(inst, state, SeededSampler(0), c)
        assert c.stochastic_calls == 1


    def test_step_whose_square_overflows_is_projected(self):
        # eta = 1e200 keeps each v finite but overflows ||v||^2; every
        # step still lands on the Delta-sphere, as project_epoch_domain
        # puts it, instead of at the origin.
        inst = random_instance()
        g_k = anchor_gradient(inst, np.zeros(4), 1.0, OracleCounters())
        state = EpochState(1, np.zeros(4), 0.5, 1.0, 1e200, 30, g_k)
        with np.errstate(over="ignore"):
            mean, _, projections = run_epoch(inst, state, SeededSampler(0),
                                             OracleCounters())
            ref_mean, _, ref_projections = reference_epoch(
                inst, state, SeededSampler(0), OracleCounters())
        assert projections == ref_projections == ProjectionCounts(30, 0, 0)
        np.testing.assert_array_equal(mean, ref_mean)
        assert np.linalg.norm(mean) > 0.1


def projection_branch(v, domain):
    """None when v lies in both balls, else the branch of the two-ball
    projection: INNER when the Delta-ball projection also lies in the
    R-ball, OUTER when the R-ball projection lies in the Delta-ball, BOTH
    otherwise."""
    a, R, delta = domain.anchor, domain.outer_radius, domain.inner_radius
    if np.linalg.norm(v) <= delta and np.linalg.norm(v + a) <= R:
        return None
    if np.linalg.norm(project_ball(v, delta) + a) <= R:
        return INNER
    if np.linalg.norm(project_ball(v, R, center=-a)) <= delta:
        return OUTER
    return BOTH


def reference_epoch(inst, state, sampler, counters):
    """The epoch written plainly: per step one sample_loss call, two
    loss_grad calls and a project_epoch_domain call. Returns what
    run_epoch returns, plus the projection-branch tally."""
    anchor, lam, eta = state.anchor, state.lam, state.eta
    domain = EpochDomain(anchor, inst.domain_radius, state.delta)
    w = np.zeros(inst.d)
    mean = w.copy()
    max_step_sq = 0.0
    tally = [0, 0, 0]
    for t in range(1, state.inner_iters + 1):
        i = sample_loss(sampler, counters, inst.n)
        step = correction(inst, i, w, anchor) + lam * w
        max_step_sq = max(max_step_sq, float(step @ step))
        v = w - eta * (state.anchor_grad + step)
        branch = projection_branch(v, domain)
        if branch is not None:
            tally[branch] += 1
        w = project_epoch_domain(v, domain)
        mean += (w - mean) / (t + 1)
    return mean, max_step_sq, ProjectionCounts(*tally)


def assert_matches_reference(inst, state):
    """run_epoch and reference_epoch agree bit for bit: mean, largest step,
    counters, sampler position and projection branches. Returns the
    branch counts."""
    s_run, s_ref = SeededSampler(3), SeededSampler(3)
    c_run, c_ref = OracleCounters(), OracleCounters()
    mean, max_sq, projections = run_epoch(inst, state, s_run, c_run)
    ref_mean, ref_max_sq, ref_projections = reference_epoch(
        inst, state, s_ref, c_ref)
    np.testing.assert_array_equal(mean, ref_mean)
    assert max_sq == ref_max_sq
    assert c_run == c_ref
    assert s_run.draw(inst.n) == s_ref.draw(inst.n)
    assert projections == ref_projections
    return projections


class TestRunEpochMatchesReference:
    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    @pytest.mark.parametrize("radius, delta, anchor", [
        (100.0, 50.0, [0.25, -0.125, 0.0, 0.5]),   # interior: fast path
        # boundary: each of the inner, outer and two-ball branches of
        # the projection runs dozens of times or more
        (0.5, 0.5, [-0.375, 0.25, 0.0, 0.125]),
    ])
    def test_bit_identical(self, kind, radius, delta, anchor):
        rng = np.random.default_rng(7)
        X = rng.integers(-4, 5, (16, 4)) / 4.0
        y = (rng.integers(-8, 9, 16) / 4.0 if kind == LEAST_SQUARES
             else np.where(rng.integers(0, 2, 16) == 1, 1.0, -1.0))
        inst = ProblemInstance(Dataset(X, y), kind, radius)
        anchor = np.array(anchor)
        lam = 0.1 * inst.smoothness
        g_k = anchor_gradient(inst, anchor, lam, OracleCounters())
        state = EpochState(1, anchor, delta, lam, 0.5 / inst.smoothness,
                           INDEX_BLOCK + 40, g_k)
        projections = assert_matches_reference(inst, state)
        if radius < 1.0:
            assert min(projections.inner, projections.outer,
                       projections.both) > 0
        else:
            assert projections.total == 0

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    @pytest.mark.parametrize("radius, delta", [(100.0, 50.0), (0.5, 0.5)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_gaussian(self, kind, radius, delta, seed):
        # Gaussian features and anchors: margins round, and the anchor's
        # and the step's must round alike.
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((16, 10))
        y = (rng.standard_normal(16) if kind == LEAST_SQUARES
             else np.where(rng.standard_normal(16) >= 0, 1.0, -1.0))
        inst = ProblemInstance(Dataset(X, y), kind, radius)
        anchor = rng.standard_normal(10)
        anchor *= 0.8 * min(radius, 1.0) / np.linalg.norm(anchor)
        lam = 0.1 * inst.smoothness
        g_k = anchor_gradient(inst, anchor, lam, OracleCounters())
        state = EpochState(1, anchor, delta, lam, 0.5 / inst.smoothness,
                           INDEX_BLOCK + 40, g_k)
        projections = assert_matches_reference(inst, state)
        if radius < 1.0:
            assert projections.total > 0
        else:
            assert projections.total == 0

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_single_example_collapse(self, kind):
        # n = 1: the variance-reduced gradient is the exact gradient of
        # the regularized epoch objective, so the epoch is projected
        # gradient descent on it.
        inst = ProblemInstance(
            Dataset(np.array([[1.0, 2.0]]), np.array([1.0])), kind, 2.0)
        anchor = np.array([0.1, 0.2])
        lam, eta, delta, T = 0.3, 0.5 / inst.smoothness, 0.5, 50
        g_k = anchor_gradient(inst, anchor, lam, OracleCounters())
        state = EpochState(1, anchor, delta, lam, eta, T, g_k)
        assert_matches_reference(inst, state)
        domain = EpochDomain(anchor, inst.domain_radius, delta)
        w, gd_mean = np.zeros(2), np.zeros(2)
        for t in range(1, T + 1):
            grad = lam * (w + anchor) + loss_grad(inst, 0, w + anchor)
            w = project_epoch_domain(w - eta * grad, domain)
            gd_mean += (w - gd_mean) / (t + 1)
        mean, _, _ = run_epoch(inst, state, SeededSampler(0),
                               OracleCounters())
        np.testing.assert_allclose(mean, gd_mean, atol=1e-12)


class TestShrinkSchedule:
    def test_geometric_sequences(self):
        state = EpochState(1, np.zeros(2), 1.0, 8.0, 0.4, 10, np.zeros(2))
        s2 = shrink_schedule(state, 2.0, np.zeros(2), 10)
        s3 = shrink_schedule(s2, 2.0, np.zeros(2), 10)
        assert (s2.delta, s3.delta) == (0.5, 0.25)
        assert (s2.inner_iters, s3.inner_iters) == (40, 160)
        assert (s2.lam, s3.lam) == (4.0, 2.0)
        assert (s2.eta, s3.eta) == (0.2, 0.1)
        assert s3.epoch_index == 3

    def test_budget_does_not_compound_rounding(self):
        # gamma = 1.5, T1 = 10: T_k = round(10 * 2.25^(k-1)), half to even,
        # is 10, 22, 51, 114, 256, 577. Rounding each epoch's count from
        # the last rounded one gave 10, 22, 50, 112, 252, 567 (1,013).
        state = EpochState(1, np.zeros(2), 1.0, 1.0, 0.1, 10, np.zeros(2))
        counts = [state.inner_iters]
        for _ in range(5):
            state = shrink_schedule(state, 1.5, np.zeros(2), 10)
            counts.append(state.inner_iters)
        assert counts == [10, 22, 51, 114, 256, 577]
        inst = random_instance(n=8, d=3, seed=2)
        cfg = MixedGradConfig(eta1=0.05, delta1=1.0, t1=10, epochs=6,
                              lambda1=1.0, gamma=1.5)
        res = run(inst, cfg, seed=0)
        assert [s.inner_iters for s in res.epoch_summaries] == counts
        assert res.counters.stochastic_calls == 1030

    @pytest.mark.parametrize("t1, epochs, budget", [
        (32, 7, 174_752), (32, 4, 2_720), (32, 6, 43_680)])
    def test_gamma_two_budgets_exact(self, t1, epochs, budget):
        state = EpochState(1, np.zeros(1), 1.0, 1.0, 0.1, t1, np.zeros(1))
        total = state.inner_iters
        for _ in range(epochs - 1):
            state = shrink_schedule(state, 2.0, np.zeros(1), t1)
            total += state.inner_iters
        assert total == budget == t1 * (4 ** epochs - 1) // 3

    def test_anchor_shift(self):
        state = EpochState(1, np.array([0.1, 0.2]), 1.0, 1.0, 0.1, 10,
                           np.zeros(2))
        s2 = shrink_schedule(state, 2.0, np.array([0.0, 0.0]), 10)
        np.testing.assert_array_equal(s2.anchor, state.anchor)
        s2 = shrink_schedule(state, 2.0, np.array([0.05, -0.1]), 10)
        np.testing.assert_allclose(s2.anchor, [0.15, 0.1], atol=1e-15)


class TestTheoryParams:
    def test_reference_values(self):
        cfg = theory_params(1.0, 1.0, math.exp(-4.5), 5)
        assert cfg.gamma == 2.0
        assert cfg.lambda1 == 16.0
        assert cfg.delta1 == 1.0
        assert cfg.t1 == 1833
        assert cfg.eta1 == pytest.approx(1.0 / (2.0 * math.sqrt(3 * 1833)),
                                         rel=1e-15)

    def test_lambda_beta_ratio(self):
        for beta in (0.5, 2.0, 7.0):
            assert theory_params(beta, 1.0, 1e-3, 4).lambda1 == 16.0 * beta

    def test_rejects_large_failure_probability(self):
        with pytest.raises(ValueError):
            theory_params(1.0, 1.0, 0.1, 5)


class TestRun:
    def test_oracle_accounting(self):
        inst = random_instance(n=8, d=3, seed=2)
        cfg = MixedGradConfig(eta1=0.05, delta1=1.0, t1=10, epochs=3,
                              lambda1=1.0)
        res = run(inst, cfg, seed=0)
        assert res.counters.full_calls == 3
        assert res.counters.stochastic_calls == 10 * (4 ** 3 - 1) // 3  # 210

    def test_fixed_point_at_optimum(self):
        # all-zero labels make w=0 a global minimizer with zero gradients
        rng = np.random.default_rng(3)
        inst = make_instance(rng.standard_normal((6, 3)), np.zeros(6))
        cfg = MixedGradConfig(eta1=0.1, delta1=1.0, t1=5, epochs=3,
                              lambda1=0.5)
        res = run(inst, cfg, seed=0)
        np.testing.assert_array_equal(res.point, np.zeros(3))

    def test_monotone_error_decay_deterministic(self):
        inst = make_instance([[1.0]], [0.5], radius=1.0)
        cfg = MixedGradConfig(eta1=0.2, delta1=1.0, t1=50, epochs=5,
                              lambda1=0.5)
        res = run(inst, cfg, seed=0)
        errs = [full_objective(inst, np.zeros(1))] \
            + [s.objective_after for s in res.epoch_summaries]
        assert all(e2 < e1 + 1e-15 for e1, e2 in zip(errs, errs[1:]))

    def test_anchors_stay_in_ball(self):
        inst = random_instance(n=10, d=3, seed=8, radius=0.8)
        cfg = MixedGradConfig(eta1=0.1, delta1=0.8, t1=20, epochs=4,
                              lambda1=1.0)
        res = run(inst, cfg, seed=5)
        for s in res.epoch_summaries:
            assert np.linalg.norm(s.anchor_after) <= 0.8 + 1e-9

    def test_bounded_step_diagnostic(self):
        inst = random_instance(n=10, d=3, seed=8)
        beta = inst.smoothness
        cfg = MixedGradConfig(eta1=0.1, delta1=1.0, t1=30, epochs=4,
                              lambda1=beta)
        res = run(inst, cfg, seed=1)
        for s in res.epoch_summaries:
            assert s.lam <= 2 * beta
            assert s.max_step_norm_sq <= 6 * beta ** 2 * s.delta ** 2 + 1e-6

    def test_trace_counters_nondecreasing(self):
        inst = random_instance(n=10, d=3, seed=8)
        cfg = MixedGradConfig(eta1=0.1, delta1=1.0, t1=30, epochs=3,
                              lambda1=1.0, checkpoint_stride=7)
        res = run(inst, cfg, seed=1)
        stoch = [r.stoch_calls for r in res.trace]
        full = [r.full_calls for r in res.trace]
        assert stoch == sorted(stoch)
        assert full == sorted(full)

    def test_projection_counts_interior_least_squares(self):
        inst = gen_synthetic(0, 200, 20, 0.0, LEAST_SQUARES, 1.0)
        beta = inst.smoothness
        cfg = MixedGradConfig(eta1=0.5 / beta, delta1=1.0, t1=32, epochs=4,
                              lambda1=0.05 * beta)
        res = run(inst, cfg, seed=0)
        for s in res.epoch_summaries:
            assert s.projections == ProjectionCounts()
            assert s.fast_steps == s.inner_iters

    def test_projection_counts_boundary_logistic(self):
        # Separable data: the optimum lies on the R-sphere, so after the
        # first epoch nearly every step projects onto the outer ball.
        inst = gen_synthetic(0, 200, 20, 0.0, LOGISTIC, 1.0)
        beta = inst.smoothness
        cfg = MixedGradConfig(eta1=0.5 / beta, delta1=1.0, t1=32, epochs=4,
                              lambda1=0.05 * beta)
        res = run(inst, cfg, seed=0)
        for s in res.epoch_summaries:
            p = s.projections
            assert s.fast_steps + p.inner + p.outer + p.both == s.inner_iters
            assert s.fast_steps >= 0
        total = sum(s.inner_iters for s in res.epoch_summaries)
        outer = sum(s.projections.outer for s in res.epoch_summaries)
        assert outer > 0.9 * total

    def test_divergence_carries_counters_and_trace(self):
        inst = random_instance(n=8, d=3, seed=2)
        cfg = MixedGradConfig(eta1=math.inf, delta1=1.0, t1=10, epochs=3,
                              lambda1=1.0)
        with pytest.raises(DivergenceError, match="epoch 1, step 1$") as exc:
            run(inst, cfg, seed=0)
        assert exc.value.counters == OracleCounters(1, 1)
        assert len(exc.value.trace) == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MixedGradConfig(eta1=0.1, delta1=1.0, t1=10, epochs=3,
                            lambda1=1.0, gamma=1.0)
        with pytest.raises(ValueError):
            MixedGradConfig(eta1=-0.1, delta1=1.0, t1=10, epochs=3,
                            lambda1=1.0)


class TestEpochSubproblem:
    def test_matches_closed_form_quadratic(self):
        a = 0.6
        inst = make_instance([[1.0]], [a], radius=5.0)
        lam = 0.8
        w = epoch_subproblem_optimum(inst, np.zeros(1), lam, 0.25)
        assert w[0] == pytest.approx(min(2 * a / (lam + 2), 0.25), abs=1e-9)

    def test_raises_at_iteration_cap(self):
        inst = random_instance(seed=3)
        args = (inst, np.zeros(inst.d), 0.1, 0.5)
        assert epoch_subproblem_optimum(*args).shape == (inst.d,)
        with pytest.raises(RuntimeError, match="within 3 iterations"):
            epoch_subproblem_optimum(*args, max_iterations=3)

    def test_rejects_nonpositive_iteration_cap(self):
        inst = random_instance(seed=3)
        with pytest.raises(ValueError, match="max_iterations"):
            epoch_subproblem_optimum(inst, np.zeros(inst.d), 0.1, 0.5,
                                     max_iterations=0)


def reference_subproblem(inst, anchor, lam, inner_radius, tol=1e-12,
                         max_iterations=200_000):
    """The epoch-subproblem solve written plainly: projected gradient
    descent on the recentered objective until a step is shorter than tol.
    Returns (point, iterations)."""
    domain = EpochDomain(anchor, inst.domain_radius, inner_radius)
    eta = 1.0 / (inst.smoothness + lam)
    w = np.zeros(inst.d)
    for k in range(1, max_iterations + 1):
        grad = lam * (w + anchor) + mean_gradient(inst, w + anchor)
        w_next = project_epoch_domain(w - eta * grad, domain)
        if np.linalg.norm(w_next - w) < tol:
            return w_next, k
        w = w_next
    raise AssertionError("reference subproblem solve did not converge")


class TestEpochSubproblemMatchesReference:
    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    @pytest.mark.parametrize("inner_radius", [0.05, 1.0])
    def test_bit_identical(self, kind, inner_radius):
        # Inner radius 0.05 makes the Delta-ball bind at the optimum; 1.0
        # leaves the anchor's R-ball as the only active constraint, if any.
        inst = gen_synthetic(3, 40, 5, 0.3, kind, 1.0)
        anchor = np.random.default_rng(5).standard_normal(inst.d)
        anchor *= 0.6 / np.linalg.norm(anchor)
        w = epoch_subproblem_optimum(inst, anchor, 0.1, inner_radius)
        ref, iterations = reference_subproblem(inst, anchor, 0.1, inner_radius)
        assert iterations > 5
        np.testing.assert_array_equal(w, ref)
        if inner_radius == 0.05:
            assert np.linalg.norm(w) == pytest.approx(0.05, rel=1e-12)

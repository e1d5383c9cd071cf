import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import mixedgrad.baselines
import mixedgrad.core
from mixedgrad.baselines import (BaselineConfig, run_gd, run_nag, run_sgd)
from mixedgrad.bench import gen_synthetic
from mixedgrad.core import DivergenceError
from mixedgrad.geometry import project_ball
from mixedgrad.losses import (LEAST_SQUARES, LOGISTIC, _loss_derivative,
                              _objectives, full_objective, loss_grad)
from mixedgrad.oracle import (OracleCounters, SeededSampler, full_grad,
                              sample_loss)

from helpers import (make_instance, objective_gap_bound, random_instance,
                     record_objective_batches)


class TestSgd:
    def test_single_unrolled_step(self):
        inst = random_instance(15, seed=4)
        seed = 77
        i1 = SeededSampler(seed).draw_block(inst.n, 1)[0]
        expected = project_ball(-loss_grad(inst, i1, np.zeros(4)),
                                inst.domain_radius)
        cfg = BaselineConfig("sgd", 1, step_scale=1.0, checkpoint_stride=1)
        # The point is the average of w_0 = 0 and w_1.
        point = run_sgd(inst, cfg, seed).point
        np.testing.assert_allclose(point, expected / 2, atol=1e-15)

    def test_deterministic_quadratic_monotone(self):
        inst = make_instance([[1.0]], [0.5])
        cfg = BaselineConfig("sgd", 60, step_scale=0.05, checkpoint_stride=1)
        trace = run_sgd(inst, cfg, 0).trace
        objs = [r.objective for r in trace]
        assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(1)
        inst = make_instance(rng.standard_normal((5, 3)), np.zeros(5))
        cfg = BaselineConfig("sgd", 50)
        point = run_sgd(inst, cfg, 0).point
        np.testing.assert_array_equal(point, np.zeros(3))

    def test_counter_discipline(self):
        inst = random_instance(15)
        c = run_sgd(inst, BaselineConfig("sgd", 25), 0).counters
        assert c.stochastic_calls == 25 and c.full_calls == 0

    def test_iterates_stay_in_ball(self):
        inst = random_instance(15, radius=0.5)
        cfg = BaselineConfig("sgd", 100, step_scale=5.0, checkpoint_stride=1)
        point = run_sgd(inst, cfg, 3).point
        assert np.linalg.norm(point) <= 0.5 + 1e-9


def reference_sgd(inst, config, seed, counters):
    """Projected SGD written plainly: per step one sample_loss call, the
    loss derivative at w.x_i, the step w - (eta_t * derivative) * x_i and a
    project_ball call. Returns (point, number of steps that projected)."""
    sampler = SeededSampler(seed)
    c = config.step_scale
    X, y, kind = inst.dataset.features, inst.dataset.labels, inst.loss_kind
    w = np.zeros(inst.d)
    total = w.copy()
    projected = 0
    for t in range(1, config.iterations + 1):
        i = sample_loss(sampler, counters, inst.n)
        x = X[i]
        derivative = _loss_derivative(y[i], float(w @ x), kind)
        v = w - ((c / math.sqrt(t)) * derivative) * x
        if not np.isfinite(v).all():
            raise DivergenceError(f"non-finite iterate at step {t}",
                                  counters, [])
        w = project_ball(v, inst.domain_radius)
        projected += w is not v
        total += w
    return total / (config.iterations + 1), projected


def step_term_bound(inst, config):
    """M = max(R, c G max||x_i||), G = max |loss derivative| over the
    R-ball (least squares 2 (max|y_i| + R max||x_i||), logistic 1): a bound
    on every vector term of an SGD step, w and m x_i."""
    R, x_max = inst.domain_radius, math.sqrt(max(inst._row_sq))
    G = (2.0 * (np.abs(inst.dataset.labels).max() + R * x_max)
         if inst.loss_kind == LEAST_SQUARES else 1.0)
    return max(R, config.step_scale * G * x_max)


def sgd_rounding_bound(inst, config):
    """A bound on |run_sgd's point - reference_sgd's point|, entrywise.

    Both compute the same exact iterates; each step's map
    w -> P_R(w - eta_t grad g_i(w)) is nonexpansive when
    eta_t L ||x_i||^2 <= 2 (a gradient step on a convex L ||x_i||^2-smooth
    g_i, then a projection), which c beta <= 2 ensures as eta_t <= c. So
    the local rounding errors of the steps add up, every iterate's error is
    at most T times one step's, and so is the average's; one step's is
    e = 64 u stride M (1 + M / R), M from step_term_bound:
    - between two folds (at most stride steps) z and each k x_i are at most
      1 / COEFFICIENT_RANGE[0] = 100 times their terms of w, but enter w
      scaled by an alpha no larger than the one they were added at, so each
      axpy and each projection's scale of alpha rounds w by a relative u on
      terms of at most M; the lazy sum's A z and sum_j q_j x_j are at most
      stride times those terms, and round alike;
    - the carried ||v||^2 drifts by at most a dozen roundings of terms of
      at most M^2 per step over those steps, and a projection's scale
      R / ||v|| turns a drift of the square into a move of the point of at
      most drift / (2 R) (as does a fast-path test decided the other way at
      a tie): the factor M / R;
    - the factor 64 covers the dozen roundings per step of the scalar form
      and of the reference, each on a term of at most stride M.
    """
    u = 2.0 ** -53
    M = step_term_bound(inst, config)
    R = inst.domain_radius
    step = 64 * u * config.checkpoint_stride * M * (1 + M / R)
    return config.iterations * step


class TestSgdMatchesReference:
    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_bit_identical(self, kind):
        # With R = 0.2 both the R-ball projection and the fast path run
        # hundreds of times on each loss. run_sgd holds w = alpha z and
        # ||w||^2 in scalars, so the points agree within
        # sgd_rounding_bound, not bit for bit; the counters exactly. The
        # strides give one-step blocks (1), blocks that do not divide the
        # run (7), blocks that do (50), and blocks capped at STEP_BLOCK
        # (250): the 100-step blocks end at folds that are not checkpoints,
        # and each checkpoint ends a partial block of 50 steps.
        inst = gen_synthetic(2, 40, 5, 0.3, kind, 0.2)
        for stride in (1, 7, 50, 250):
            cfg = BaselineConfig("sgd", 600, step_scale=0.5,
                                 checkpoint_stride=stride)
            assert cfg.step_scale * inst.smoothness <= 2
            c_ref = OracleCounters()
            point, _, c_run, _ = run_sgd(inst, cfg, 9)
            ref_point, projected = reference_sgd(inst, cfg, 9, c_ref)
            assert 0 < projected < cfg.iterations
            np.testing.assert_allclose(point, ref_point, rtol=0,
                                       atol=sgd_rounding_bound(inst, cfg))
            assert c_run == c_ref == OracleCounters(cfg.iterations, 0)

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_divergence_at_first_step(self, kind):
        inst = gen_synthetic(2, 40, 5, 0.3, kind, 1.0)
        cfg = BaselineConfig("sgd", 10, step_scale=math.inf)
        c_ref = OracleCounters()
        with pytest.raises(DivergenceError) as run_exc:
            run_sgd(inst, cfg, 0)
        with pytest.raises(DivergenceError) as ref_exc:
            reference_sgd(inst, cfg, 0, c_ref)
        assert str(run_exc.value) == str(ref_exc.value) \
            == "non-finite iterate at step 1"
        assert run_exc.value.counters == c_ref == OracleCounters(1, 0)
        assert run_exc.value.trace == []

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_step_diverges_with_counters(self, entry,
                                                    monkeypatch):
        # The second step's loss derivative is -entry, which puts entry
        # into both coordinates of v (x_i is positive). At stride 1 each
        # block is one step; at stride 100 the run is one block of 5 drawn
        # indices, and the counter must still stop at the steps taken.
        calls = []

        def derivative(y, margin, kind):
            calls.append(margin)
            return (_loss_derivative(y, margin, kind) if len(calls) == 1
                    else -entry)

        monkeypatch.setattr(mixedgrad.baselines, "_loss_derivative",
                            derivative)
        inst = make_instance([[1.0, 0.5]], [1.0])
        for stride, steps in ((1, [1]), (100, [])):
            calls.clear()
            cfg = BaselineConfig("sgd", 5, checkpoint_stride=stride)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(
                        DivergenceError,
                        match="^non-finite iterate at step 2$") as exc:
                    run_sgd(inst, cfg, 0)
            assert exc.value.counters == OracleCounters(2, 0)
            assert [r.step for r in exc.value.trace] == steps

    def test_divergence_after_checkpoints_keeps_their_records(self,
                                                              monkeypatch):
        # The loss derivative turns NaN at step 35, when the checkpoints at
        # 10, 20 and 30 are still queued: they are evaluated in one batch
        # before the DivergenceError.
        inst = gen_synthetic(2, 40, 5, 0.3, LEAST_SQUARES, 1.0)
        cfg = BaselineConfig("sgd", 50, checkpoint_stride=10)
        healthy = run_sgd(inst, cfg, 9, reference_value=0.0).trace
        batches = record_objective_batches(monkeypatch)
        calls = []

        def derivative(y, margin, kind):
            calls.append(margin)
            return (_loss_derivative(y, margin, kind) if len(calls) < 35
                    else math.nan)

        monkeypatch.setattr(mixedgrad.baselines, "_loss_derivative",
                            derivative)
        with pytest.raises(DivergenceError,
                           match="^non-finite iterate at step 35$") as exc:
            run_sgd(inst, cfg, 9, reference_value=0.0)
        # Step 35 is step 5 of the block that starts at 30.
        assert exc.value.counters == OracleCounters(35, 0)
        assert_queued_records_kept(inst, exc.value.trace, healthy, batches,
                                   [10, 20, 30])

    def test_step_whose_square_overflows_raises_no_warning(self):
        # After one step the point is (0 + w_1) / 2, with w_1 on the sphere.
        inst = gen_synthetic(2, 40, 5, 0.3, LEAST_SQUARES, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = run_sgd(inst, BaselineConfig("sgd", 1, step_scale=1e200),
                            9).point
        assert np.linalg.norm(2 * first) == pytest.approx(1.0, rel=1e-15)

    def test_step_whose_square_overflows_lands_on_sphere(self):
        # With a step scale of 1e200 each v is finite but ||v||^2
        # overflows; every step still projects onto the R-sphere, as
        # project_ball does, instead of to the origin.
        inst = gen_synthetic(2, 40, 5, 0.3, LEAST_SQUARES, 1.0)
        cfg = BaselineConfig("sgd", 20, step_scale=1e200)
        c_ref = OracleCounters()
        with np.errstate(over="ignore"):
            point = run_sgd(inst, cfg, 9).point
            ref_point, projected = reference_sgd(inst, cfg, 9, c_ref)
            # After one step the point is (0 + w_1) / 2, with w_1 on the
            # sphere.
            first = run_sgd(inst, BaselineConfig("sgd", 1, step_scale=1e200),
                            9).point
        assert projected == cfg.iterations
        np.testing.assert_array_equal(point, ref_point)
        assert np.linalg.norm(2 * first) == pytest.approx(1.0, rel=1e-15)


class TestSgdScalarState:
    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_scalar_norm_tracks_the_explicit_one(self, kind, monkeypatch):
        # Before every step (each call of the loss derivative) the ||w||^2
        # carried in scalars must agree with the explicit w.w, w = alpha
        # (z + kb XB) (z lags the block's additions kb until the block ends),
        # to an absolute 16 u stride M^2: each step rounds about a dozen
        # terms of its update of ||w||^2, each at most M^2 (step_term_bound),
        # and scales the error it inherits by at most 1 (a projection), over
        # at most stride steps since the last fold.
        inst = gen_synthetic(2, 40, 5, 0.3, kind, 0.2)
        cfg = BaselineConfig("sgd", 600, step_scale=0.5, checkpoint_stride=50)
        M = step_term_bound(inst, cfg)
        bound = 16 * 2.0 ** -53 * cfg.checkpoint_stride * M * M
        gaps = []

        def checked(*args):
            state = sys._getframe(1).f_locals
            w = state["alpha"] * (state["z"] + state["kb"] @ state["XB"])
            gaps.append(abs(state["w_sq"] - float(w.dot(w))))
            return _loss_derivative(*args)

        monkeypatch.setattr(mixedgrad.baselines, "_loss_derivative", checked)
        run_sgd(inst, cfg, 9)
        assert len(gaps) == cfg.iterations
        assert all(gap <= bound for gap in gaps)

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_explicit_steps_run_and_stay_in_ball(self, kind, monkeypatch):
        # At step scale 20 a projection scales alpha by R / ||v|| with
        # ||v|| up to ~100 R, so many steps would take alpha below
        # COEFFICIENT_RANGE and are taken on the explicit point instead.
        calls = []

        def counting(v, radius):
            calls.append(v)
            return project_ball_kernel(v, radius)

        project_ball_kernel = mixedgrad.baselines._project_ball
        monkeypatch.setattr(mixedgrad.baselines, "_project_ball", counting)
        inst = gen_synthetic(2, 40, 5, 0.3, kind, 0.2)
        cfg = BaselineConfig("sgd", 600, step_scale=20.0,
                             checkpoint_stride=50)
        point = run_sgd(inst, cfg, 9).point
        assert 0 < len(calls) < cfg.iterations
        assert np.linalg.norm(point) <= inst.domain_radius * (1 + 1e-12)

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    @pytest.mark.parametrize("step_scale", [1e10, 1e100])
    def test_step_that_would_shrink_alpha_out_of_range_is_explicit(
            self, kind, step_scale):
        # ||v||^2 is finite but every projection would scale alpha by less
        # than 1e-2: each step is taken on the explicit point and runs the
        # reference's operations, so the points agree bit for bit. Kept in
        # scalars, such a step would add k x_i with |k| ~ step_scale to z
        # and cancel it out of the lazy sum again.
        inst = gen_synthetic(2, 40, 5, 0.3, kind, 1.0)
        cfg = BaselineConfig("sgd", 200, step_scale=step_scale,
                             checkpoint_stride=50)
        point = run_sgd(inst, cfg, 9).point
        with np.errstate(over="ignore"):
            ref_point, projected = reference_sgd(inst, cfg, 9,
                                                 OracleCounters())
        assert projected == cfg.iterations
        np.testing.assert_array_equal(point, ref_point)

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    @pytest.mark.parametrize("step_scale", [1e200, 1e300])
    def test_huge_step_scale_finishes_without_warning(self, kind,
                                                      step_scale):
        # ||v||^2 overflows on every step: each is taken on the explicit
        # point, which the ball kernel rescales onto the sphere. m * m on a
        # Python float gives inf where m ** 2 would raise OverflowError.
        inst = gen_synthetic(2, 40, 5, 0.3, kind, 1.0)
        cfg = BaselineConfig("sgd", 200, step_scale=step_scale,
                             checkpoint_stride=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point, trace, counters, _ = run_sgd(inst, cfg, 9)
        assert counters == OracleCounters(cfg.iterations, 0)
        assert [r.step for r in trace] == [50, 100, 150, 200]
        assert 0 < np.linalg.norm(point) <= 1.0

    def test_memory_of_a_short_run_stays_below_one_row_array(self,
                                                             monkeypatch):
        # 32 steps on the 20,000 x 50 large-n shape hold O(d) vectors and
        # one coefficient per row drawn: no array of n entries (160 KB).
        # The checkpoint objective, one pass over X by design, is replaced
        # where the trace's flush, core._Trace.flush, looks it up, so that only
        # the step loop and the lazy sum are counted.
        inst = gen_synthetic(0, 20000, 50, 0.5, LEAST_SQUARES, 1.0)
        monkeypatch.setattr(mixedgrad.core, "_objectives",
                            lambda instance, P: np.zeros(len(P)))
        tracemalloc.start()
        try:
            run_sgd(inst, BaselineConfig("sgd", 32), 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**10


class TestGd:
    def test_one_step_exact_on_matched_curvature(self):
        # g(w) = (0.5 - w)^2 has beta = 2; eta = 1/2 solves it in one step
        # from 0
        inst = make_instance([[1.0]], [0.5], radius=2.0)
        cfg = BaselineConfig("gd", 1, checkpoint_stride=1)
        point = run_gd(inst, cfg).point
        np.testing.assert_allclose(point, [0.5], atol=1e-15)

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(2)
        inst = make_instance(rng.standard_normal((5, 3)), np.zeros(5))
        point = run_gd(inst, BaselineConfig("gd", 20)).point
        np.testing.assert_array_equal(point, np.zeros(3))

    def test_objective_nonincreasing_and_more_steps_help(self):
        inst = random_instance(15, seed=6)
        cfg = BaselineConfig("gd", 50, checkpoint_stride=1)
        trace = run_gd(inst, cfg).trace
        objs = [r.objective for r in trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        assert objs[49] <= objs[24]

    def test_counter_discipline(self):
        inst = random_instance(15)
        c = run_gd(inst, BaselineConfig("gd", 30)).counters
        assert c.full_calls == 30 and c.stochastic_calls == 0


class TestNag:
    def test_first_step_equals_gd(self):
        inst = random_instance(15, seed=8)
        p_gd = run_gd(inst, BaselineConfig("gd", 1)).point
        p_nag = run_nag(inst, BaselineConfig("nag", 1)).point
        assert np.linalg.norm(p_gd) > 0
        np.testing.assert_allclose(p_nag, p_gd, atol=1e-15)

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(3)
        inst = make_instance(rng.standard_normal((5, 3)), np.zeros(5))
        point = run_nag(inst, BaselineConfig("nag", 20)).point
        np.testing.assert_array_equal(point, np.zeros(3))

    def test_beats_gd_on_quadratic(self):
        inst = make_instance([[1.0, 0.0], [0.0, 0.2]], [0.5, 0.1], radius=2.0)
        p_gd = run_gd(inst, BaselineConfig("gd", 100)).point
        p_nag = run_nag(inst, BaselineConfig("nag", 100)).point
        err_gd = full_objective(inst, p_gd)
        err_nag = full_objective(inst, p_nag)
        assert err_nag <= err_gd + 1e-18

    def test_counter_discipline(self):
        inst = random_instance(15)
        c = run_nag(inst, BaselineConfig("nag", 30)).counters
        assert c.full_calls == 30 and c.stochastic_calls == 0


def reference_full_gradient(inst, config, counters, accelerated):
    """Projected GD or Nesterov's method from 0 written plainly, one
    full_grad and one project_ball call per step. Returns (point,
    checkpoint objectives, number of steps that projected); the
    checkpoints are evaluated at the end in one _objectives call, the
    batch run_gd and run_nag flush when fewer than ROW_BLOCK // d."""
    R = inst.domain_radius
    eta = (config.step_scale or 1.0) / inst.smoothness
    w = np.zeros(inst.d)
    w_prev = w.copy()
    theta_prev = 1.0
    checkpoints = []
    projected = 0
    for t in range(1, config.iterations + 1):
        y = w
        if accelerated:
            theta = (1.0 + math.sqrt(1.0 + 4.0 * theta_prev * theta_prev)) / 2.0
            y = w + ((theta_prev - 1.0) / theta) * (w - w_prev)
            theta_prev = theta
        v = y - eta * full_grad(inst, y, counters)
        if not np.isfinite(v).all():
            raise DivergenceError(f"non-finite iterate at step {t}",
                                  counters, [])
        w_prev, w = w, project_ball(v, R)
        projected += w is not v
        if t % config.checkpoint_stride == 0 or t == config.iterations:
            checkpoints.append(w)
    return w, _objectives(inst, np.array(checkpoints)).tolist(), projected


def assert_queued_records_kept(inst, trace, healthy, batches, steps):
    """A diverged run's trace holds the records at steps, with the healthy
    run's counters, each evaluated in the one batch flushed before the
    DivergenceError, within rounding of its point's objective."""
    assert [r.step for r in trace] == steps
    assert [(r.step, r.stoch_calls, r.full_calls) for r in trace] \
        == [(r.step, r.stoch_calls, r.full_calls)
            for r in healthy[:len(steps)]]
    assert [len(P) for P in batches] == [len(steps)]
    for record, p in zip(trace, batches[0]):
        assert abs(record.objective - full_objective(inst, p)) \
            <= objective_gap_bound(inst, p)
        assert record.error == record.objective


FULL_GRADIENT = [(run_gd, "gd", False), (run_nag, "nag", True)]


class TestFullGradientMatchesReference:
    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    @pytest.mark.parametrize("solver, method, accelerated", FULL_GRADIENT)
    @pytest.mark.parametrize("step_scale", [None, 1.5])
    def test_bit_identical(self, kind, solver, method, accelerated,
                           step_scale):
        # With R = 0.2 the R-ball projection clips every logistic step and
        # all but a few least-squares steps, at the default step 1/beta and
        # at a longer one.
        inst = gen_synthetic(2, 40, 5, 0.3, kind, 0.2)
        cfg = BaselineConfig(method, 300, step_scale=step_scale,
                             checkpoint_stride=7)
        c_ref = OracleCounters()
        point, trace, c_run, _ = solver(inst, cfg)
        ref_point, ref_objectives, projected = reference_full_gradient(
            inst, cfg, c_ref, accelerated)
        assert projected > 0
        np.testing.assert_array_equal(point, ref_point)
        assert [r.objective for r in trace] == ref_objectives
        assert c_run == c_ref == OracleCounters(0, cfg.iterations)

    @pytest.mark.parametrize("solver, method, accelerated", FULL_GRADIENT)
    def test_divergence_after_checkpoints_keeps_their_records(
            self, solver, method, accelerated, monkeypatch):
        # The full gradient turns NaN at its 25th call, when the
        # checkpoints at 10 and 20 are still queued.
        inst = gen_synthetic(2, 40, 5, 0.3, LEAST_SQUARES, 1.0)
        cfg = BaselineConfig(method, 50, checkpoint_stride=10)
        healthy = solver(inst, cfg, reference_value=0.0).trace
        batches = record_objective_batches(monkeypatch)

        def gradient(instance, w, counters):
            g = full_grad(instance, w, counters)
            return g if counters.full_calls < 25 else g * math.nan

        monkeypatch.setattr(mixedgrad.baselines, "full_grad", gradient)
        with pytest.raises(DivergenceError,
                           match="^non-finite iterate at step 25$") as exc:
            solver(inst, cfg, reference_value=0.0)
        assert exc.value.counters == OracleCounters(0, 25)
        assert_queued_records_kept(inst, exc.value.trace, healthy, batches,
                                   [10, 20])

    @pytest.mark.parametrize("solver, method, accelerated", FULL_GRADIENT)
    def test_divergence_at_first_step(self, solver, method, accelerated):
        inst = gen_synthetic(2, 40, 5, 0.3, LEAST_SQUARES, 1.0)
        cfg = BaselineConfig(method, 10, step_scale=math.inf)
        c_ref = OracleCounters()
        with pytest.raises(DivergenceError) as run_exc:
            solver(inst, cfg)
        with pytest.raises(DivergenceError) as ref_exc:
            reference_full_gradient(inst, cfg, c_ref, accelerated)
        assert str(run_exc.value) == str(ref_exc.value) \
            == "non-finite iterate at step 1"
        assert run_exc.value.counters == c_ref == OracleCounters(0, 1)
        assert run_exc.value.trace == []


class TestConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            BaselineConfig("adam", 10)

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            BaselineConfig("sgd", 0)

    @pytest.mark.parametrize("field", ["iterations", "checkpoint_stride"])
    @pytest.mark.parametrize("value", [100.0, 1.5, False, "100"])
    def test_non_integer_count_rejected(self, field, value):
        counts = dict(iterations=100, checkpoint_stride=10)
        counts[field] = value
        with pytest.raises(ValueError,
                           match=f"^{field} must be an integer >= 1, got "):
            BaselineConfig("sgd", **counts)

    @pytest.mark.parametrize("value", ["0.5", "abc", True, 1j, 0, -1.0,
                                       math.nan])
    def test_non_positive_real_step_scale_rejected(self, value):
        with pytest.raises(ValueError, match="^step_scale must be a positive "
                                             "real number, got "):
            BaselineConfig("sgd", 100, step_scale=value)

    def test_method_mismatch_rejected(self):
        inst = random_instance(15)
        with pytest.raises(ValueError):
            run_gd(inst, BaselineConfig("sgd", 10))

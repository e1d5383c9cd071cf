import math

import numpy as np
import pytest

from mixedgrad.baselines import (BaselineConfig, run_gd, run_nag, run_sgd)
from mixedgrad.bench import gen_synthetic
from mixedgrad.core import DivergenceError
from mixedgrad.geometry import project_ball
from mixedgrad.losses import (LEAST_SQUARES, LOGISTIC, Dataset,
                              ProblemInstance, full_objective, loss_grad)
from mixedgrad.oracle import (OracleCounters, SeededSampler, full_grad,
                              sample_loss)


def make_instance(X, y, radius=1.0):
    return ProblemInstance(Dataset(np.asarray(X, float),
                                   np.asarray(y, float)),
                           LEAST_SQUARES, radius)


def random_instance(n=15, d=4, seed=0, radius=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return make_instance(X, rng.standard_normal(n), radius)


class TestSgd:
    def test_single_unrolled_step(self):
        inst = random_instance(seed=4)
        seed = 77
        i1 = SeededSampler(seed).draw(inst.n)
        expected = project_ball(-loss_grad(inst, i1, np.zeros(4)),
                                inst.domain_radius)
        cfg = BaselineConfig("sgd", 1, step_rule="inv_sqrt_t", step_scale=1.0,
                             averaging=False, checkpoint_stride=1)
        point = run_sgd(inst, cfg, seed).point
        np.testing.assert_allclose(point, expected, atol=1e-15)

    def test_deterministic_quadratic_monotone(self):
        inst = make_instance([[1.0]], [0.5])
        cfg = BaselineConfig("sgd", 60, step_rule="constant", step_scale=0.05,
                             averaging=False, checkpoint_stride=1)
        trace = run_sgd(inst, cfg, 0).trace
        objs = [r.objective for r in trace]
        assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(1)
        inst = make_instance(rng.standard_normal((5, 3)), np.zeros(5))
        cfg = BaselineConfig("sgd", 50, averaging=False)
        point = run_sgd(inst, cfg, 0).point
        np.testing.assert_array_equal(point, np.zeros(3))

    def test_counter_discipline(self):
        inst = random_instance()
        c = run_sgd(inst, BaselineConfig("sgd", 25), 0).counters
        assert c.stochastic_calls == 25 and c.full_calls == 0

    def test_iterates_stay_in_ball(self):
        inst = random_instance(radius=0.5)
        cfg = BaselineConfig("sgd", 100, step_scale=5.0, averaging=False,
                             checkpoint_stride=1)
        point = run_sgd(inst, cfg, 3).point
        assert np.linalg.norm(point) <= 0.5 + 1e-9


def reference_sgd(inst, config, seed, counters):
    """Projected SGD written plainly: per step one sample_loss call, one
    loss_grad call and a project_ball call. Returns (point, number of
    steps that projected)."""
    sampler = SeededSampler(seed)
    c = config.step_scale
    w = np.zeros(inst.d)
    mean = w.copy()
    projected = 0
    for t in range(1, config.iterations + 1):
        i = sample_loss(sampler, counters, inst.n)
        eta = c if config.step_rule == "constant" else c / math.sqrt(t)
        v = w - eta * loss_grad(inst, i, w)
        if not np.isfinite(v).all():
            raise DivergenceError(f"non-finite iterate at step {t}")
        w = project_ball(v, inst.domain_radius)
        projected += w is not v
        mean += (w - mean) / (t + 1)
    return (mean if config.averaging else w), projected


class TestSgdMatchesReference:
    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    @pytest.mark.parametrize("step_rule, averaging",
                             [("constant", False), ("inv_sqrt_t", True)])
    def test_bit_identical(self, kind, step_rule, averaging):
        # With R = 0.2 both the R-ball projection and the fast path run
        # hundreds of times on each loss and step rule.
        inst = gen_synthetic(2, 40, 5, 0.3, kind, 0.2)
        cfg = BaselineConfig("sgd", 600, step_rule=step_rule, step_scale=0.5,
                             averaging=averaging, checkpoint_stride=50)
        c_ref = OracleCounters()
        point, _, c_run, _ = run_sgd(inst, cfg, 9)
        ref_point, projected = reference_sgd(inst, cfg, 9, c_ref)
        assert 0 < projected < cfg.iterations
        np.testing.assert_array_equal(point, ref_point)
        assert c_run == c_ref

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

    def test_step_whose_square_overflows_lands_on_sphere(self):
        # With a step scale of 1e200 each v is finite but ||v||^2
        # overflows; every step still projects onto the R-sphere, as
        # project_ball does, instead of to the origin.
        inst = gen_synthetic(2, 40, 5, 0.3, LEAST_SQUARES, 1.0)
        cfg = BaselineConfig("sgd", 20, step_rule="constant",
                             step_scale=1e200, averaging=False)
        c_ref = OracleCounters()
        with np.errstate(over="ignore"):
            point = run_sgd(inst, cfg, 9).point
            ref_point, projected = reference_sgd(inst, cfg, 9, c_ref)
        assert projected == cfg.iterations
        np.testing.assert_array_equal(point, ref_point)
        assert np.linalg.norm(point) == pytest.approx(1.0, rel=1e-15)


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
        inst = random_instance(seed=6)
        cfg = BaselineConfig("gd", 50, checkpoint_stride=1)
        trace = run_gd(inst, cfg).trace
        objs = [r.objective for r in trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        assert objs[49] <= objs[24]

    def test_counter_discipline(self):
        inst = random_instance()
        c = run_gd(inst, BaselineConfig("gd", 30)).counters
        assert c.full_calls == 30 and c.stochastic_calls == 0


class TestNag:
    def test_first_step_equals_gd(self):
        inst = random_instance(seed=8)
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
        inst = random_instance()
        c = run_nag(inst, BaselineConfig("nag", 30)).counters
        assert c.full_calls == 30 and c.stochastic_calls == 0


def reference_full_gradient(inst, config, counters, accelerated):
    """Projected GD or Nesterov's method from 0 written plainly, one
    full_grad and one project_ball call per step. Returns (point,
    checkpoint objectives, number of steps that projected)."""
    R = inst.domain_radius
    eta = (config.step_scale or 1.0) / inst.smoothness
    w = np.zeros(inst.d)
    w_prev = w.copy()
    theta_prev = 1.0
    objectives = []
    projected = 0
    for t in range(1, config.iterations + 1):
        y = w
        if accelerated:
            theta = (1.0 + math.sqrt(1.0 + 4.0 * theta_prev * theta_prev)) / 2.0
            y = w + ((theta_prev - 1.0) / theta) * (w - w_prev)
            theta_prev = theta
        v = y - eta * full_grad(inst, y, counters)
        if not np.isfinite(v).all():
            raise DivergenceError(f"non-finite iterate at step {t}")
        w_prev, w = w, project_ball(v, R)
        projected += w is not v
        if t % config.checkpoint_stride == 0 or t == config.iterations:
            objectives.append(full_objective(inst, w))
    return w, objectives, projected


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

    def test_method_mismatch_rejected(self):
        inst = random_instance()
        with pytest.raises(ValueError):
            run_gd(inst, BaselineConfig("sgd", 10))

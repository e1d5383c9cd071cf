import math

import numpy as np
import pytest

from mixedgrad.baselines import (BaselineConfig, run_gd, run_nag, run_sgd)
from mixedgrad.bench import gen_synthetic
from mixedgrad.core import DivergenceError
from mixedgrad.geometry import project_ball
from mixedgrad.losses import (LEAST_SQUARES, LOGISTIC, Dataset,
                              ProblemInstance, full_objective, loss_grad)
from mixedgrad.oracle import OracleCounters, SeededSampler, sample_loss


def make_instance(X, y, radius=1.0):
    return ProblemInstance.create(Dataset(np.asarray(X, float),
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
        point, _ = run_sgd(inst, cfg, seed, OracleCounters())
        np.testing.assert_allclose(point, expected, atol=1e-15)

    def test_deterministic_quadratic_monotone(self):
        inst = make_instance([[1.0]], [0.5])
        cfg = BaselineConfig("sgd", 60, step_rule="constant", step_scale=0.05,
                             averaging=False, checkpoint_stride=1)
        _, trace = run_sgd(inst, cfg, 0, OracleCounters())
        objs = [r.objective for r in trace]
        assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(1)
        inst = make_instance(rng.standard_normal((5, 3)), np.zeros(5))
        cfg = BaselineConfig("sgd", 50, averaging=False)
        point, _ = run_sgd(inst, cfg, 0, OracleCounters())
        np.testing.assert_array_equal(point, np.zeros(3))

    def test_counter_discipline(self):
        inst = random_instance()
        c = OracleCounters()
        run_sgd(inst, BaselineConfig("sgd", 25), 0, c)
        assert c.stochastic_calls == 25 and c.full_calls == 0

    def test_iterates_stay_in_ball(self):
        inst = random_instance(radius=0.5)
        cfg = BaselineConfig("sgd", 100, step_scale=5.0, averaging=False,
                             checkpoint_stride=1)
        _, trace = run_sgd(inst, cfg, 3, OracleCounters())
        point, _ = run_sgd(inst, cfg, 3, OracleCounters())
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
        c_run, c_ref = OracleCounters(), OracleCounters()
        point, _ = run_sgd(inst, cfg, 9, c_run)
        ref_point, projected = reference_sgd(inst, cfg, 9, c_ref)
        assert 0 < projected < cfg.iterations
        np.testing.assert_array_equal(point, ref_point)
        assert c_run == c_ref

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_divergence_at_first_step(self, kind):
        inst = gen_synthetic(2, 40, 5, 0.3, kind, 1.0)
        cfg = BaselineConfig("sgd", 10, step_scale=math.inf)
        c_run, c_ref = OracleCounters(), OracleCounters()
        with pytest.raises(DivergenceError) as run_exc:
            run_sgd(inst, cfg, 0, c_run)
        with pytest.raises(DivergenceError) as ref_exc:
            reference_sgd(inst, cfg, 0, c_ref)
        assert str(run_exc.value) == str(ref_exc.value) \
            == "non-finite iterate at step 1"
        assert c_run == c_ref == OracleCounters(1, 0)
        assert run_exc.value.counters is c_run
        assert len(run_exc.value.trace) == 0


class TestGd:
    def test_one_step_exact_on_matched_curvature(self):
        # g(w) = w^2 has beta = 2; eta = 1/2 solves it in one step from 1
        inst = make_instance([[1.0]], [0.0], radius=2.0)
        cfg = BaselineConfig("gd", 1, checkpoint_stride=1)
        point, _ = run_gd(inst, cfg, OracleCounters(), start=np.array([1.0]))
        np.testing.assert_allclose(point, [0.0], atol=1e-15)

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(2)
        inst = make_instance(rng.standard_normal((5, 3)), np.zeros(5))
        point, _ = run_gd(inst, BaselineConfig("gd", 20), OracleCounters())
        np.testing.assert_array_equal(point, np.zeros(3))

    def test_objective_nonincreasing_and_more_steps_help(self):
        inst = random_instance(seed=6)
        cfg = BaselineConfig("gd", 50, checkpoint_stride=1)
        _, trace = run_gd(inst, cfg, OracleCounters())
        objs = [r.objective for r in trace]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        assert objs[49] <= objs[24]

    def test_counter_discipline(self):
        inst = random_instance()
        c = OracleCounters()
        run_gd(inst, BaselineConfig("gd", 30), c)
        assert c.full_calls == 30 and c.stochastic_calls == 0


class TestNag:
    def test_first_step_equals_gd(self):
        inst = random_instance(seed=8)
        start = np.array([0.2, -0.1, 0.0, 0.1])
        p_gd, _ = run_gd(inst, BaselineConfig("gd", 1), OracleCounters(),
                         start=start)
        p_nag, _ = run_nag(inst, BaselineConfig("nag", 1), OracleCounters(),
                           start=start)
        np.testing.assert_allclose(p_nag, p_gd, atol=1e-15)

    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(3)
        inst = make_instance(rng.standard_normal((5, 3)), np.zeros(5))
        point, _ = run_nag(inst, BaselineConfig("nag", 20), OracleCounters())
        np.testing.assert_array_equal(point, np.zeros(3))

    def test_beats_gd_on_quadratic(self):
        inst = make_instance([[1.0, 0.0], [0.0, 0.2]], [0.5, 0.1], radius=2.0)
        p_gd, _ = run_gd(inst, BaselineConfig("gd", 100), OracleCounters())
        p_nag, _ = run_nag(inst, BaselineConfig("nag", 100), OracleCounters())
        err_gd = full_objective(inst, p_gd)
        err_nag = full_objective(inst, p_nag)
        assert err_nag <= err_gd + 1e-18

    def test_counter_discipline(self):
        inst = random_instance()
        c = OracleCounters()
        run_nag(inst, BaselineConfig("nag", 30), c)
        assert c.full_calls == 30 and c.stochastic_calls == 0


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
            run_gd(inst, BaselineConfig("sgd", 10), OracleCounters())

"""End-to-end acceptance suite.

Nine criteria covering oracle accounting, parameter schedules,
variance-reduction invariants, projection correctness, gradient
correctness, rate separation against baselines, per-epoch containment,
the bounded-step property, and geometric per-epoch error decay.
Criterion 3 checks the solver's own step: run_epoch at w = 0, and the
loss_grad difference, which tests/test_core.py ties to a plainly written
scalar correction (the difference of the loss derivatives at the two
margins, times x_i) to 4 ulp, and to run_epoch's own correction within a
first-order rounding bound derived in the test.

Each test ends with a single printed PASS line carrying the measured
quantities (run pytest with -s or check captured stdout). A failed
assertion is the corresponding FAIL.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from mixedgrad import (
    BaselineConfig, Dataset, EpochDomain, LEAST_SQUARES, LOGISTIC,
    MixedGradConfig, OracleCounters, ProblemInstance, anchor_gradient,
    compute_reference_optimum, fit_slope, gen_synthetic, loss_grad,
    loss_value, mean_gradient, project_ball, project_epoch_domain, run,
    run_gd, run_nag, run_sgd, theory_params,
)
from mixedgrad.baselines import GD, NAG, SGD
from mixedgrad.core import EpochState, _Trace, run_epoch

from helpers import epoch_subproblem_optimum


def _report(criterion: int, detail: str):
    print(f"\n[acceptance {criterion}] PASS -- {detail}")


def _random_instance(seed: int, n: int, d: int, loss_kind: str,
                     radius: float = 1.0) -> ProblemInstance:
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    if loss_kind == LEAST_SQUARES:
        y = rng.standard_normal(n)
    else:
        y = np.where(rng.standard_normal(n) >= 0, 1.0, -1.0)
    return ProblemInstance(Dataset(X, y), loss_kind, radius)


# ---------------------------------------------------------------------------
# Shared rate-separation instance (criteria 6-9).
#
# Pinned constants: lambda1 = 0.05*beta and eta1 = 0.5/beta. The theory
# default lambda1 over-regularizes at this scale (the regularization bias
# dominates the fitted window and masks the rate); the smaller weight
# exposes the per-call decay the fits are meant to measure.
# ---------------------------------------------------------------------------

RATE_SEEDS = (0, 1, 2, 3, 4)
RATE_EPOCHS = 7
RATE_T1 = 32


@pytest.fixture(scope="module")
def rate_setup():
    t0 = time.perf_counter()
    inst = gen_synthetic(0, 200, 20, 0.0, LEAST_SQUARES, 1.0)
    ref_point, ref_value = compute_reference_optimum(inst, 1e-10)
    beta = inst.smoothness
    cfg = MixedGradConfig(eta1=0.5 / beta, delta1=inst.domain_radius,
                          t1=RATE_T1, epochs=RATE_EPOCHS,
                          lambda1=0.05 * beta)
    runs = {seed: run(inst, cfg, seed, reference_value=ref_value)
            for seed in RATE_SEEDS}
    return {
        "instance": inst,
        "ref_value": ref_value,
        "config": cfg,
        "runs": runs,
        "build_seconds": time.perf_counter() - t0,
    }


class TestCriterion1OracleAccounting:
    def test_counters_exact(self):
        t0 = time.perf_counter()
        inst = _random_instance(7, 40, 5, LEAST_SQUARES)
        beta = inst.smoothness
        cfg = MixedGradConfig(eta1=1.0 / (2.0 * beta * math.sqrt(3 * 10)),
                              delta1=1.0, t1=10, epochs=6, lambda1=beta)
        res = run(inst, cfg, seed=0)
        elapsed = time.perf_counter() - t0
        assert res.counters.full_calls == 6
        assert res.counters.stochastic_calls == 13650
        assert elapsed < 1.0
        _report(1, f"full_calls=6, stochastic_calls=13650, {elapsed:.2f}s")


class TestCriterion2ParameterFormulas:
    def test_schedule_values(self):
        cfg = theory_params(beta=1.0, radius=1.0,
                            failure_prob=math.exp(-4.5), epochs=5)
        assert cfg.gamma == 2.0
        assert cfg.lambda1 == 16.0
        assert cfg.delta1 == 1.0
        assert cfg.t1 == 1833
        assert cfg.eta1 == 1.0 / (2.0 * math.sqrt(3 * 1833))
        with pytest.raises(ValueError):
            theory_params(beta=1.0, radius=1.0, failure_prob=0.1, epochs=5)
        _report(2, "gamma=2, lambda1=16, delta1=1, t1=1833, "
                   "eta1=1/(2*sqrt(5499)); delta=0.1 rejected")


class TestCriterion3VarianceReduction:
    def test_invariants(self):
        t0 = time.perf_counter()
        inst = _random_instance(11, 50, 10, LEAST_SQUARES)
        rng = np.random.default_rng(11)
        beta = inst.smoothness
        anchor = project_ball(rng.standard_normal(10), 0.9)
        lam = 0.5 * beta
        counters = OracleCounters()
        g = anchor_gradient(inst, anchor, lam, counters)

        # (a) at w = 0 the variance-reduced gradient is the anchor gradient,
        # bitwise: a one-step epoch on example i has a zero correction and
        # steps to -eta * g. The sampler stub draws example i every time.
        eta = 0.01 / beta
        state = EpochState(1, anchor, 1.0, lam, eta, 1)
        for i in range(inst.n):
            sampler = SimpleNamespace(draw_block=lambda n, k, i=i: [i] * k)
            mean, max_step_sq, _ = run_epoch(inst, state, g, sampler,
                                             OracleCounters(), _Trace(inst))
            assert max_step_sq == 0.0
            assert np.array_equal(2 * mean, -(eta * g))

        # (b) averaging over all i recovers the exact shifted gradient.
        max_resid = 0.0
        for _ in range(20):
            w = project_ball(rng.standard_normal(10), 0.1)
            mean_vr = np.mean(
                [g + (loss_grad(inst, i, w + anchor)
                      - loss_grad(inst, i, anchor)) for i in range(inst.n)],
                axis=0)
            exact = g + mean_gradient(inst, w + anchor) - mean_gradient(inst, anchor)
            max_resid = max(max_resid,
                            float(np.linalg.norm(mean_vr - exact)))
        assert max_resid <= 1e-12

        # (c) per-example gradient differences are beta-Lipschitz in w.
        worst_excess = -math.inf
        for _ in range(500):
            i = int(rng.integers(inst.n))
            w = rng.standard_normal(10) * rng.uniform(0, 0.2)
            diff = float(np.linalg.norm(
                loss_grad(inst, i, w + anchor) - loss_grad(inst, i, anchor)))
            bound = beta * float(np.linalg.norm(w)) + 1e-9
            worst_excess = max(worst_excess, diff - bound)
            assert diff <= bound
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        _report(3, f"bitwise anchor match, unbiasedness residual "
                   f"{max_resid:.2e} <= 1e-12, Lipschitz margin "
                   f"{-worst_excess:.2e} >= 0, {elapsed:.2f}s")


class TestCriterion4ProjectionEquivalence:
    @staticmethod
    def _grid_projection(w, domain, resolution=1e-3):
        # Distance from w to the nearest feasible point of the grid
        # xs x xs; each norm sqrt((x - c_0)^2 + (y - c_1)^2) comes from two
        # 1-D squares.
        d = domain.inner_radius
        xs = np.arange(-d, d + resolution, resolution)

        def norms(center):
            return np.sqrt(((xs - center[0]) ** 2)[None, :]
                           + ((xs - center[1]) ** 2)[:, None])

        feas = (norms(np.zeros(2)) <= domain.inner_radius) \
            & (norms(-domain.anchor) <= domain.outer_radius)
        return norms(w)[feas].min()

    def test_matches_grid_search(self):
        t0 = time.perf_counter()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            R = rng.uniform(0.5, 2.0)
            anchor = rng.standard_normal(2)
            nrm = np.linalg.norm(anchor)
            if nrm > 0.9 * R:
                anchor *= 0.9 * R / nrm
            delta = rng.uniform(0.1, 1.5)
            domain = EpochDomain(anchor, R, delta)
            w = rng.standard_normal(2) * 2.0
            p = project_epoch_domain(w, domain)
            dist = float(np.linalg.norm(p - w))
            grid_dist = self._grid_projection(w, domain)
            worst = max(worst, abs(dist - grid_dist))
            assert abs(dist - grid_dist) <= 2e-3
            # idempotence
            assert np.linalg.norm(project_epoch_domain(p, domain) - p) <= 1e-9
            # non-expansiveness
            v = rng.standard_normal(2) * 2.0
            q = project_epoch_domain(v, domain)
            assert (np.linalg.norm(p - q)
                    <= np.linalg.norm(w - v) + 1e-9)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        _report(4, f"20 cases, worst grid gap {worst:.2e} <= 2e-3, "
                   f"idempotent + non-expansive to 1e-9, {elapsed:.2f}s")


class TestCriterion5GradientCorrectness:
    def test_finite_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(23)
        h = 1e-6
        worst = 0.0
        for trial in range(100):
            kind = LEAST_SQUARES if trial % 2 == 0 else LOGISTIC
            inst = _random_instance(100 + trial, 20, 6, kind)
            i = int(rng.integers(inst.n))
            w = rng.standard_normal(6) * 0.5
            g = loss_grad(inst, i, w)
            fd = np.empty(6)
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                fd[j] = (loss_value(inst, i, w + e)
                         - loss_value(inst, i, w - e)) / (2 * h)
            rel = (np.linalg.norm(fd - g)
                   / max(np.linalg.norm(g), 1e-12))
            worst = max(worst, float(rel))
            assert rel <= 1e-5
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0
        _report(5, f"100 triples, worst relative gap {worst:.2e} <= 1e-5, "
                   f"{elapsed:.2f}s")


class TestCriterion6RateSeparation:
    def test_slopes(self, rate_setup):
        t0 = time.perf_counter()
        inst = rate_setup["instance"]
        ref_value = rate_setup["ref_value"]

        mg_slopes, sgd_slopes = {}, {}
        for seed in RATE_SEEDS:
            res = rate_setup["runs"][seed]
            pts = [{"stoch_calls": s.stoch_calls,
                    "error": s.objective_after - ref_value}
                   for s in res.epoch_summaries]
            f = fit_slope(pts, "stoch_calls", "error", skip_head=1)
            assert f.slope <= -0.75 and f.r_squared >= 0.9, \
                f"mixedgrad seed {seed}: {f.slope:.3f}, r2 {f.r_squared:.3f}"
            mg_slopes[seed] = f.slope

            tr = run_sgd(
                inst,
                BaselineConfig(SGD, 20000, step_scale=0.05,
                               checkpoint_stride=500),
                seed, reference_value=ref_value).trace
            fs = fit_slope(tr, "stoch_calls", "error", skip_head=2)
            assert -0.75 <= fs.slope <= -0.30 and fs.r_squared >= 0.9, \
                f"sgd seed {seed}: {fs.slope:.3f}, r2 {fs.r_squared:.3f}"
            sgd_slopes[seed] = fs.slope
            assert mg_slopes[seed] < sgd_slopes[seed]

        tg = run_gd(inst, BaselineConfig(GD, 150, checkpoint_stride=25),
                    reference_value=ref_value).trace
        fg = fit_slope(tg, "full_calls", "error")
        assert fg.slope <= -0.9 and fg.r_squared >= 0.9

        tn = run_nag(inst, BaselineConfig(NAG, 150, checkpoint_stride=25),
                     reference_value=ref_value).trace
        fn = fit_slope(tn, "full_calls", "error")
        assert fn.slope <= -1.6 and fn.r_squared >= 0.9

        elapsed = (time.perf_counter() - t0) + rate_setup["build_seconds"]
        assert elapsed < 120.0
        _report(6, f"mixedgrad {min(mg_slopes.values()):.2f}.."
                   f"{max(mg_slopes.values()):.2f} <= -0.75, sgd "
                   f"{min(sgd_slopes.values()):.2f}.."
                   f"{max(sgd_slopes.values()):.2f} in [-0.75,-0.30], gd "
                   f"{fg.slope:.2f} <= -0.9, nag {fn.slope:.2f} <= -1.6, "
                   f"mixedgrad < sgd on all seeds, {elapsed:.1f}s")


class TestCriterion7PerEpochContainment:
    def test_subproblem_optimum_shrinks(self, rate_setup):
        t0 = time.perf_counter()
        inst = rate_setup["instance"]
        base = rate_setup["config"]
        cfg = MixedGradConfig(eta1=base.eta1, delta1=base.delta1,
                              t1=base.t1, epochs=5, lambda1=base.lambda1)
        contained_runs = 0
        worst_margin = math.inf
        for seed in range(10):
            res = run(inst, cfg, seed)
            ok = True
            for s in res.epoch_summaries:
                lam_next = s.lam / cfg.gamma
                delta_next = s.delta / cfg.gamma
                # Minimize the next epoch's recentered objective over the
                # looser ball (radius delta_k); containment in the shrunk
                # ball is then a real property, not a constraint artifact.
                # The certified distance bound makes it a proof: the true
                # minimizer lies within bound of w.
                w, bound = epoch_subproblem_optimum(
                    inst, s.anchor_after, lam_next, inner_radius=s.delta)
                margin = delta_next - (float(np.linalg.norm(w)) + bound)
                worst_margin = min(worst_margin, margin)
                if margin < 0:
                    ok = False
                    break
            contained_runs += ok
        elapsed = time.perf_counter() - t0
        assert contained_runs >= 9
        assert elapsed < 60.0
        _report(7, f"certified containment held in {contained_runs}/10 "
                   f"runs (need >= 9), smallest margin {worst_margin:.2e}, "
                   f"{elapsed:.1f}s")


class TestCriterion8BoundedSteps:
    def test_step_norms(self, rate_setup):
        beta = rate_setup["instance"].smoothness
        worst_ratio = 0.0
        for seed in RATE_SEEDS:
            for s in rate_setup["runs"][seed].epoch_summaries:
                assert s.lam <= 2.0 * beta
                bound = 6.0 * beta * beta * s.delta * s.delta + 1e-6
                assert s.max_step_norm_sq <= bound
                worst_ratio = max(worst_ratio, s.max_step_norm_sq / bound)
        _report(8, f"max ||step||^2 / (6 beta^2 delta^2 + 1e-6) = "
                   f"{worst_ratio:.3f} <= 1 over all epochs and seeds")


class TestCriterion9GeometricDecay:
    def test_halving_per_epoch(self, rate_setup):
        ref_value = rate_setup["ref_value"]
        worst = 0.0
        for seed in RATE_SEEDS:
            errs = [s.objective_after - ref_value
                    for s in rate_setup["runs"][seed].epoch_summaries]
            for k in range(2, RATE_EPOCHS - 1):   # epochs 3..7, consecutive
                ratio = errs[k + 1] / errs[k]
                worst = max(worst, ratio)
                assert ratio <= 0.5, f"seed {seed}, epoch {k + 2}: {ratio:.3f}"
        _report(9, f"worst consecutive-epoch error ratio {worst:.3f} <= 0.5 "
                   f"over epochs 3-7, all seeds")

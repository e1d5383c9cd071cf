import itertools
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from mixedgrad import core
from mixedgrad.baselines import BaselineConfig, run_sgd
from mixedgrad.bench import gen_synthetic
from mixedgrad.core import (CertificateError, DivergenceError, EpochState,
                            MixedGradConfig, ProjectionCounts,
                            _certified_minimum, _projected_gradient, _Trace,
                            anchor_gradient, run, run_epoch,
                            shrink_schedule, theory_params)
from mixedgrad.geometry import (BOTH, INNER, OUTER, EpochDomain,
                                project_ball, project_epoch_domain)
from mixedgrad.losses import (LEAST_SQUARES, LOGISTIC, ROW_BLOCK, Dataset,
                              ProblemInstance, _loss_derivative,
                              _loss_derivatives, full_objective, loss_grad,
                              mean_gradient)
from mixedgrad.oracle import OracleCounters, SeededSampler, sample_loss

from helpers import (epoch_subproblem_optimum, make_instance,
                     mean_curvature, objective_gap_bound, random_instance,
                     record_objective_batches)


class TestAnchorGradient:
    def test_zero_anchor(self):
        inst = random_instance(12)
        c = OracleCounters()
        g = anchor_gradient(inst, np.zeros(4), 3.0, c)
        np.testing.assert_array_equal(g, mean_gradient(inst, np.zeros(4)))
        assert c.full_calls == 1

    def test_zero_lambda(self):
        inst = random_instance(12)
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
    """grad g_i(w + anchor) - grad g_i(anchor), the variance-reduction
    correction, as one scalar times x_i: the difference of the loss
    derivatives at the two margins."""
    x, y = inst.dataset.features[i], inst.dataset.labels[i]
    kind = inst.loss_kind
    return (_loss_derivative(y, float((w + anchor) @ x), kind)
            - _loss_derivative(y, float(anchor @ x), kind)) * x


class TestVrGradient:
    """The variance-reduced gradient of run_epoch's inner step."""

    def test_bitwise_anchor_determinism(self):
        # At w = 0 the correction is exactly 0, so a one-step epoch on
        # example i steps to -eta * g_k bit for bit, whatever i,
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
                    state = EpochState(1, anchor, 100.0, 0.7, eta, 1)
                    for i in range(inst.n):
                        # A sampler stub whose every draw is example i.
                        sampler = SimpleNamespace(
                            draw_block=lambda n, k, i=i: [i] * k)
                        mean, max_sq, _ = run_epoch(inst, state, g_k, sampler,
                                                    OracleCounters(),
                                                    _Trace(inst))
                        assert max_sq == 0.0
                        assert np.array_equal(2 * mean, -(eta * g_k))

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_correction_matches_loss_grad_difference(self, kind):
        # The scalar form of the correction is the gradient difference up
        # to rounding: within 4 ulp of the larger of the two gradients'
        # entries, also when w is small and the difference cancels.
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 10))
        y = (rng.standard_normal(30) if kind == LEAST_SQUARES
             else np.where(rng.standard_normal(30) >= 0, 1.0, -1.0))
        inst = ProblemInstance(Dataset(X, y), kind, 100.0)
        for scale in (1e-8, 1e-3, 1.0):
            anchor = rng.standard_normal(10)
            w = scale * rng.standard_normal(10)
            for i in range(inst.n):
                g_wa = loss_grad(inst, i, w + anchor)
                g_a = loss_grad(inst, i, anchor)
                larger = np.maximum(np.abs(g_wa), np.abs(g_a))
                assert np.all(np.abs(correction(inst, i, w, anchor)
                                     - (g_wa - g_a))
                              <= 4 * np.spacing(larger))

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_solver_correction_matches_loss_grad_difference(self, kind,
                                                            monkeypatch):
        # run_epoch's own correction c x_i against the loss_grad
        # difference. A two-step epoch on one example with eta = 1,
        # lam = 0 and anchor gradient g_k = -w steps to w exactly (the
        # correction is 0 at w = 0), and its second step takes the
        # correction at w. Both steps are one block: D0, the anchor's
        # derivative, is recorded from the block's array form
        # (_loss_derivatives), D1 from the step's scalar form, which the
        # array form matches bit for bit (step 1's margin is exactly a.x).
        #
        # The second step's margin is alpha (z0.x + kb.G_1) + beta g_k.x +
        # gamma a.x with alpha = 1, beta = -1, gamma = 0, z0 = 0 and kb = 0
        # (the first step added nothing to z), so it is exactly
        # -(g_k.x) + a.x, both dots taken from the block's product
        # XB [z, g_k, a]. Bound, first order in u = 2^-53, per entry j
        # (standard rounding model, which holds for a dot product summed in
        # any order, so for a gemm's; numpy's exp within 2 ulp): the
        # margins -(g_k.x) + a.x (solver) and (w + a).x (loss_grad) each
        # lie within (d + 1) u (S_w + S_a) of the exact one and a.x within
        # d u S_a, where S_w = sum|w_k x_k| and S_a = sum|a_k x_k|. The
        # derivative g' is L-Lipschitz (L = 2 least squares, 1/4 logistic)
        # and evaluated to a relative kappa u (kappa = 1 and 10). Each
        # difference and product adds u. So |c x_j - (g_wa - g_a)_j| <=
        # u |x_j| [2 L (d + 1)(S_w + S_a) + 2 L d S_a + (2 kappa + 1)(|D1|
        # + |D0|) + 3 |D1 - D0|], with D1, D0 the derivatives at w + a and
        # a; the factor 1 + 1e-6 covers the second-order terms.
        L, kappa = (2.0, 1) if kind == LEAST_SQUARES else (0.25, 10)
        u = 2.0 ** -53
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 10))
        y = (rng.standard_normal(30) if kind == LEAST_SQUARES
             else np.where(rng.standard_normal(30) >= 0, 1.0, -1.0))
        inst = ProblemInstance(Dataset(X, y), kind, 100.0)
        d = inst.d
        anchor_derivatives, derivatives = [], []

        def recorded_block(*args):
            anchor_derivatives.append(_loss_derivatives(*args))
            return anchor_derivatives[-1]

        def recorded(*args):
            derivatives.append(_loss_derivative(*args))
            return derivatives[-1]

        monkeypatch.setattr(core, "_loss_derivatives", recorded_block)
        monkeypatch.setattr(core, "_loss_derivative", recorded)
        for scale in (1e-8, 1e-3, 1.0):
            anchor = rng.standard_normal(d)
            w = scale * rng.standard_normal(d)
            state = EpochState(1, anchor, 50.0, 0.0, 1.0, 2)
            for i in range(inst.n):
                sampler = SimpleNamespace(draw_block=lambda n, k, i=i: [i] * k)
                run_epoch(inst, state, -w, sampler, OracleCounters(),
                          _Trace(inst))
                # One block of two steps: one array of the two steps'
                # anchor derivatives, then one derivative per step.
                block = anchor_derivatives[-1]
                assert block.shape == (2,)
                assert derivatives[-2] == block[0]   # step 1: correction 0
                D0, D1 = float(block[1]), derivatives[-1]
                x = X[i]
                got = (D1 - D0) * x
                want = loss_grad(inst, i, w + anchor) - loss_grad(inst, i,
                                                                  anchor)
                S_w, S_a = np.abs(w * x).sum(), np.abs(anchor * x).sum()
                bound = u * np.abs(x) * (
                    2 * L * (d + 1) * (S_w + S_a) + 2 * L * d * S_a
                    + (2 * kappa + 1) * (abs(D1) + abs(D0))
                    + 3 * abs(D1 - D0))
                assert np.all(np.abs(got - want) <= bound * (1 + 1e-6))
            assert len(anchor_derivatives) == len(derivatives) / 2

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
        inst = random_instance(12)
        anchor = np.array([0.2, -0.1, 0.05, 0.3])
        g_k = anchor_gradient(inst, anchor, 1.0, OracleCounters())
        state = EpochState(1, anchor, 1.0, 1.0, 0.0, 100)
        mean, max_sq, _ = run_epoch(inst, state, g_k, SeededSampler(0),
                                    OracleCounters(), _Trace(inst))
        np.testing.assert_array_equal(mean, np.zeros(4))
        assert max_sq == 0.0

    def test_nonfinite_gradient_raises(self):
        inst = random_instance(12)
        g_k = np.array([np.nan, 0.0, 0.0, 0.0])
        state = EpochState(1, np.zeros(4), 1.0, 1.0, 0.1, 50)
        c = OracleCounters()
        with pytest.raises(DivergenceError, match="epoch 1, step 1$"):
            run_epoch(inst, state, g_k, SeededSampler(0), c, _Trace(inst))
        assert c.stochastic_calls == 1


class TestRunEpoch:
    def test_zero_inner_iters_averages_initial_zero(self):
        inst = random_instance(12)
        g_k = anchor_gradient(inst, np.zeros(4), 1.0, OracleCounters())
        state = EpochState(1, np.zeros(4), 1.0, 1.0, 0.1, 0)
        w_tilde, _, _ = run_epoch(inst, state, g_k, SeededSampler(0),
                                  OracleCounters(), _Trace(inst))
        np.testing.assert_array_equal(w_tilde, np.zeros(4))

    def test_huge_lambda_pins_average_near_zero(self):
        inst = random_instance(12)
        c = OracleCounters()
        lam = 1e6
        state = EpochState(1, np.zeros(4), 1.0, lam, 1e-7, 200)
        w_tilde, _, _ = run_epoch(inst, state, np.zeros(4), SeededSampler(1),
                                  c, _Trace(inst))
        assert np.linalg.norm(w_tilde) <= 1e-3

    def test_deterministic_quadratic_reaches_subproblem_optimum(self):
        # n=1: the stochastic gradient is exact, so the epoch is plain
        # projected gradient descent on the regularized 1-D quadratic
        a = 0.8
        inst = make_instance([[1.0]], [a], radius=5.0)
        lam, eta, T, delta = 1.0, 0.1, 2000, 0.5
        c = OracleCounters()
        g_k = anchor_gradient(inst, np.zeros(1), lam, c)
        state = EpochState(1, np.zeros(1), delta, lam, eta, T)
        w_tilde, _, _ = run_epoch(inst, state, g_k, SeededSampler(0), c,
                                  _Trace(inst))
        w_opt = min(2 * a / (lam + 2), delta)  # closed form, clamped
        assert abs(w_tilde[0] - w_opt) <= 10 * eta
        assert np.linalg.norm(w_tilde) <= delta + 1e-12

    def test_infinite_step_diverges_at_first_step(self):
        inst = random_instance(12)
        c = OracleCounters()
        g_k = anchor_gradient(inst, np.zeros(4), 1.0, c)
        state = EpochState(1, np.zeros(4), 1.0, 1.0, math.inf, 50)
        with pytest.raises(DivergenceError, match="epoch 1, step 1$"):
            run_epoch(inst, state, g_k, SeededSampler(0), c, _Trace(inst))
        assert c.stochastic_calls == 1


    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("delta", [0.25, 1.0])
    def test_non_finite_step_diverges_with_counters(self, entry, delta):
        # The anchor gradient's entry puts -entry into v at the first step
        # (the correction is 0 at w = 0), on a contained epoch (Delta =
        # 0.25) and on one that is not (Delta = R).
        inst = random_instance(12)
        c = OracleCounters()
        g_k = anchor_gradient(inst, np.zeros(4), 1.0, c)
        g_k[1] = entry
        state = EpochState(1, np.zeros(4), delta, 1.0, 0.1, 50)
        assert EpochDomain(np.zeros(4), 1.0, delta).outer_inactive \
            == (delta < 1.0)
        trace = _Trace(inst)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match="^non-finite iterate at epoch 1, "
                                     "step 1$") as exc:
                run_epoch(inst, state, g_k, SeededSampler(0), c, trace)
        assert exc.value.counters is c and c == OracleCounters(1, 1)
        assert exc.value.trace is trace.records

    def test_step_whose_square_overflows_raises_no_warning(self):
        inst = random_instance(12)
        g_k = anchor_gradient(inst, np.zeros(4), 1.0, OracleCounters())
        state = EpochState(1, np.zeros(4), 0.5, 1.0, 1e200, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, _, projections = run_epoch(
                inst, state, g_k, SeededSampler(0), OracleCounters(),
                _Trace(inst))
        assert projections == ProjectionCounts(30, 0, 0)
        assert np.linalg.norm(mean) > 0.1

    def test_step_whose_square_overflows_is_projected(self):
        # eta = 1e200 keeps each v finite but overflows ||v||^2; every
        # step still lands on the Delta-sphere, as project_epoch_domain
        # puts it, instead of at the origin. The shrink 1 - eta lam leaves
        # COEFFICIENT_RANGE, so every step is taken on the explicit point,
        # with the reference's operations, and the means agree bit for bit.
        inst = random_instance(12)
        g_k = anchor_gradient(inst, np.zeros(4), 1.0, OracleCounters())
        state = EpochState(1, np.zeros(4), 0.5, 1.0, 1e200, 30)
        with np.errstate(over="ignore"):
            mean, _, projections = run_epoch(
                inst, state, g_k, SeededSampler(0), OracleCounters(),
                _Trace(inst))
            ref_mean, _, ref_projections = reference_epoch(
                inst, state, g_k, SeededSampler(0), OracleCounters())
        assert projections == ref_projections == ProjectionCounts(30, 0, 0)
        np.testing.assert_array_equal(mean, ref_mean)
        assert np.linalg.norm(mean) > 0.1


    def test_memory_stays_linear_in_n(self):
        # An epoch holds one block of rows and its Gram matrix at a time,
        # never a per-example array: X here is 8 MB, the epoch's peak well
        # under 2 MB.
        inst = gen_synthetic(0, 20000, 50, 0.5, LEAST_SQUARES, 1.0)
        anchor = np.full(50, 0.01)
        lam = 0.05 * inst.smoothness
        g_k = anchor_gradient(inst, anchor, lam, OracleCounters())
        state = EpochState(1, anchor, 1.0, lam, 0.5 / inst.smoothness, 500)
        tracemalloc.start()
        try:
            run_epoch(inst, state, g_k, SeededSampler(0), OracleCounters(),
                      _Trace(inst))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_memory_of_a_short_epoch_stays_below_its_rows(self):
        # A 32-step epoch on the same 20,000 x 50 instance gathers only the
        # rows it draws: no per-example array of n entries (160 KB each)
        # and no pass over X.
        inst = gen_synthetic(0, 20000, 50, 0.5, LEAST_SQUARES, 1.0)
        anchor = np.full(50, 0.01)
        lam = 0.05 * inst.smoothness
        g_k = anchor_gradient(inst, anchor, lam, OracleCounters())
        state = EpochState(1, anchor, 1.0, lam, 0.5 / inst.smoothness, 32)
        tracemalloc.start()
        try:
            run_epoch(inst, state, g_k, SeededSampler(0), OracleCounters(),
                      _Trace(inst))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 2**10


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


def reference_epoch(inst, state, g_k, sampler, counters):
    """The epoch written plainly: per step one sample_loss call, the
    correction scalar c from two loss derivatives (the margin w.x_i +
    anchor.x_i), the fused step w (1 - eta lam) - eta g_k -
    (eta c) x_i and a project_epoch_domain call; the average is the
    iterates' sum over their count. Returns what run_epoch returns, with
    the largest ||c x_i + lam w||^2 taken from the vector, plus the
    projection-branch tally."""
    anchor, lam, eta = state.anchor, state.lam, state.eta
    X, y, kind = inst.dataset.features, inst.dataset.labels, inst.loss_kind
    domain = EpochDomain(anchor, inst.domain_radius, state.delta)
    w = np.zeros(inst.d)
    total = w.copy()
    max_step_sq = 0.0
    tally = [0, 0, 0]
    for t in range(1, state.inner_iters + 1):
        i = sample_loss(sampler, counters, inst.n)
        x = X[i]
        a_margin = float(anchor @ x)
        c = (_loss_derivative(y[i], float(w @ x) + a_margin, kind)
             - _loss_derivative(y[i], a_margin, kind))
        step = c * x + lam * w
        max_step_sq = max(max_step_sq, float(step @ step))
        v = w * (1.0 - eta * lam) - eta * g_k - (eta * c) * x
        branch = projection_branch(v, domain)
        if branch is not None:
            tally[branch] += 1
        w = project_epoch_domain(v, domain)
        total += w
    return (total / (state.inner_iters + 1), max_step_sq,
            ProjectionCounts(*tally))


def epoch_rounding_bound(inst, state, g_k, stride=100):
    """A bound on |run_epoch's mean - reference_epoch's mean|, entrywise.

    Both compute the same exact epoch; each step's map
    w -> P(w - eta (lam w + grad g_i(w + anchor) - grad g_i(anchor)) -
    eta g_k) is nonexpansive when eta (lam + beta) <= 2 (a gradient
    step on a convex (lam + beta)-smooth function, then a projection), so
    the local rounding errors of the steps add up, and the mean's error is
    at most T times one step's, e = 64 u stride M (1 + M / min(Delta, R)):
    - M = max(Delta, ||anchor||, eta ||g_k||, eta L Delta max||x_i||^2)
      bounds every vector term of a step (w, anchor, eta g_k,
      eta c x_i, with |c| <= L |w.x_i| and L the loss derivative's
      Lipschitz constant, 2 or 1/4);
    - between two folds (at most stride steps) the coefficients of the
      scalar form grow to at most stride times these terms (each projection
      scales by at most 1 and moves the anchor's coefficient by less than
      1), and each rounds to a relative u; the factor 64 covers the dozen
      roundings per step of the form and of the reference, each on a term
      of at most stride M; run_epoch's margin z.x_i, z0.x_i + kb.G_l in a
      block, sums the same at most stride additions to z as a sequence of
      axpys and a dot would, one rounding per term;
    - the scalar ||v||^2 and v.anchor drift by at most the same relative
      amount of M^2 over those steps, and a projection's scale
      radius / ||v|| turns a drift of the square into a move of the point
      of at most drift / (2 radius): the factor M / min(Delta, R).
    """
    u = 2.0 ** -53
    L = 2.0 if inst.loss_kind == LEAST_SQUARES else 0.25
    delta, eta = state.delta, state.eta
    M = max(delta, np.linalg.norm(state.anchor),
            eta * np.linalg.norm(g_k), eta * L * delta * inst._row_sq.max())
    step = 64 * u * stride * M * (1 + M / min(delta, inst.domain_radius))
    return state.inner_iters * step


def assert_matches_reference(inst, state, g_k):
    """run_epoch, at each checkpoint_stride of 1 (one-step blocks), 7
    (blocks that do not divide the epoch) and 100 (the default), and
    reference_epoch agree: the mean within epoch_rounding_bound for that
    stride, counters, sampler position and projection branches exactly;
    the largest step's squared norm, a scalar expansion in run_epoch, to a
    relative 1e-12. Returns the branch counts."""
    assert state.eta * (state.lam + inst.smoothness) <= 2
    s_ref, c_ref = SeededSampler(3), OracleCounters()
    ref_mean, ref_max_sq, ref_projections = reference_epoch(
        inst, state, g_k, s_ref, c_ref)
    ref_next = s_ref.draw_block(inst.n, 1)[0]
    for stride in (1, 7, 100):
        s_run, c_run = SeededSampler(3), OracleCounters()
        mean, max_sq, projections = run_epoch(inst, state, g_k, s_run, c_run,
                                              _Trace(inst), stride)
        np.testing.assert_allclose(
            mean, ref_mean, rtol=0,
            atol=epoch_rounding_bound(inst, state, g_k, stride))
        assert max_sq == pytest.approx(ref_max_sq, rel=1e-12, abs=0.0)
        assert c_run == c_ref
        assert s_run.draw_block(inst.n, 1)[0] == ref_next
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
        state = EpochState(1, anchor, delta, lam, 0.5 / inst.smoothness, 4136)
        projections = assert_matches_reference(inst, state, g_k)
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
        state = EpochState(1, anchor, delta, lam, 0.5 / inst.smoothness, 4136)
        projections = assert_matches_reference(inst, state, g_k)
        if radius < 1.0:
            assert projections.total > 0
        else:
            assert projections.total == 0

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_bit_identical_contained(self, kind):
        # ||anchor|| + Delta = 0.8 < R: the domain is certified
        # outer_inactive, so run_epoch never forms v + anchor, and its
        # steps leave the fast path only into the Delta-ball, thousands of
        # times; the reference still tests both balls on every step.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((16, 10))
        y = (rng.standard_normal(16) if kind == LEAST_SQUARES
             else np.where(rng.standard_normal(16) >= 0, 1.0, -1.0))
        inst = ProblemInstance(Dataset(X, y), kind, 1.0)
        anchor = rng.standard_normal(10)
        anchor *= 0.5 / np.linalg.norm(anchor)
        assert EpochDomain(anchor, 1.0, 0.3).outer_inactive
        lam = 0.1 * inst.smoothness
        g_k = anchor_gradient(inst, anchor, lam, OracleCounters())
        state = EpochState(1, anchor, 0.3, lam, 0.5 / inst.smoothness, 4136)
        projections = assert_matches_reference(inst, state, g_k)
        assert projections.inner >= 1_000
        assert projections.outer == projections.both == 0
        assert projections.total < state.inner_iters

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
        state = EpochState(1, anchor, delta, lam, eta, T)
        assert_matches_reference(inst, state, g_k)
        domain = EpochDomain(anchor, inst.domain_radius, delta)
        w, gd_mean = np.zeros(2), np.zeros(2)
        for t in range(1, T + 1):
            grad = lam * (w + anchor) + loss_grad(inst, 0, w + anchor)
            w = project_epoch_domain(w - eta * grad, domain)
            gd_mean += (w - gd_mean) / (t + 1)
        mean, _, _ = run_epoch(inst, state, g_k, SeededSampler(0),
                               OracleCounters(), _Trace(inst))
        np.testing.assert_allclose(mean, gd_mean, atol=1e-12)


class TestShrinkSchedule:
    def test_geometric_sequences(self):
        state = EpochState(1, np.zeros(2), 1.0, 8.0, 0.4, 10)
        s2 = shrink_schedule(state, np.zeros(2), 10)
        s3 = shrink_schedule(s2, np.zeros(2), 10)
        assert (s2.delta, s3.delta) == (0.5, 0.25)
        assert (s2.inner_iters, s3.inner_iters) == (40, 160)
        assert (s2.lam, s3.lam) == (4.0, 2.0)
        assert (s2.eta, s3.eta) == (0.2, 0.1)
        assert s3.epoch_index == 3

    @pytest.mark.parametrize("t1, epochs, budget", [
        (32, 7, 174_752), (32, 4, 2_720), (32, 6, 43_680)])
    def test_gamma_two_budgets_exact(self, t1, epochs, budget):
        state = EpochState(1, np.zeros(1), 1.0, 1.0, 0.1, t1)
        total = state.inner_iters
        for _ in range(epochs - 1):
            state = shrink_schedule(state, np.zeros(1), t1)
            total += state.inner_iters
        assert total == budget == t1 * (4 ** epochs - 1) // 3

    @pytest.mark.parametrize("k, t1", [(600, 3), (31, np.int64(32))])
    def test_late_epoch_budget_is_exact(self, k, t1):
        # Integer arithmetic: no float overflow at k = 600 and no int64
        # wrap-around for a numpy t1 (32 * 4^31 = 2^67).
        state = EpochState(k, np.zeros(1), 1.0, 1.0, 0.1, 1)
        s = shrink_schedule(state, np.zeros(1), t1)
        assert s.inner_iters == int(t1) * 4 ** k
        assert type(s.inner_iters) is int

    def test_anchor_shift(self):
        state = EpochState(1, np.array([0.1, 0.2]), 1.0, 1.0, 0.1, 10)
        s2 = shrink_schedule(state, np.array([0.0, 0.0]), 10)
        np.testing.assert_array_equal(s2.anchor, state.anchor)
        s2 = shrink_schedule(state, np.array([0.05, -0.1]), 10)
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

    @pytest.mark.parametrize("beta", [1e307, 1e308])
    def test_rejects_a_beta_whose_parameters_overflow(self, beta):
        # 2 beta sqrt(3 T1) overflows (T1 = 1712), so eta1 would be 0; at
        # 1e308, lambda1 = 16 beta overflows too.
        with pytest.raises(ValueError, match="^beta = 1e\\+30[78] is too "
                                             "large"):
            theory_params(beta, 1.0, 0.01, 3)


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

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_scalar_norm_tracks_the_explicit_one(self, kind, monkeypatch):
        # Every block but an epoch's last ends with a fold of the scalar form,
        # whatever the stride, and a block is at most 100 steps
        # (min(STEP_BLOCK, ROW_BLOCK // d) at d = 20), so some fold or
        # epoch end comes at least every 100 steps: at stride 100 the folds
        # are the checkpoints, at stride 10^4 most are not. At a fold
        # run_epoch recomputes w.w from the vector; when the fold follows a
        # scalar step, the ||w||^2 carried in scalars, the square the scalar
        # kernel last returned, must agree with it to an absolute
        # 16 u n S^2, n = min(stride, 100). A step taken on the explicit
        # point drops the carried square and takes w.w from the vector, so
        # its own w.w, and a fold with no scalar step since, have nothing to
        # compare. Each step rounds about a dozen terms of its update of
        # ||w||^2, each at most S^2, and scales the error it inherits by at
        # most 1 (a shrink and a projection), over at most n steps since the
        # last fold; S = Delta + ||anchor|| + eta ||g_k|| + eta L Delta
        # max||x_i||^2 bounds every vector term of a step (epoch 1's Delta
        # and eta, which only halve). Relative agreement cannot hold: late
        # logistic iterates have ||w||^2 near 1e-20.
        inst = gen_synthetic(0, 200, 20, 0.0, kind, 1.0)
        beta = inst.smoothness
        L = 2.0 if kind == LEAST_SQUARES else 0.25
        eta, delta, u = 0.5 / beta, 1.0, 2.0 ** -53
        block = 100

        def draw(*args):
            idx = sample_losses(*args)
            drawn[0] += len(idx)
            return idx

        def scalar(*args):
            out = coefficients(*args)
            carried[0] = out[3]
            return out

        def vector(*args):
            explicit[0] += 1
            carried[0] = None
            return project(*args)

        def checked(w, g_k, anchor):
            out = products(w, g_k, anchor)
            at.append(drawn[0])
            if carried[0] is not None:
                S = (delta + np.linalg.norm(anchor) + eta * np.linalg.norm(g_k)
                     + eta * L * delta * inst._row_sq.max())
                gaps.append((abs(carried[0] - out[0]),
                             16 * u * min(stride, block) * S * S))
            carried[0] = None
            return out

        sample_losses = core.sample_losses
        coefficients = core._two_ball_coefficients
        project = core._project_two_balls
        products = core._products
        monkeypatch.setattr(core, "sample_losses", draw)
        monkeypatch.setattr(core, "_two_ball_coefficients", scalar)
        monkeypatch.setattr(core, "_project_two_balls", vector)
        monkeypatch.setattr(core, "_products", checked)
        for stride in (100, 10 ** 4):
            carried, explicit, gaps = [None], [0], []
            drawn, at = [0], []    # steps drawn; the step of each w.w
            cfg = MixedGradConfig(eta1=eta, delta1=delta, t1=32, epochs=6,
                                  lambda1=0.05 * beta,
                                  checkpoint_stride=stride)
            res = run(inst, cfg, seed=0)
            ends = itertools.accumulate(cfg.t1 * 4 ** k
                                        for k in range(cfg.epochs))
            marks = sorted({0, *ends, *at})
            assert max(b - a for a, b in zip(marks, marks[1:])) <= block
            folds = len(at) - explicit[0]
            if stride <= block:
                assert folds == len(res.trace) - cfg.epochs  # checkpoints
            assert folds - explicit[0] <= len(gaps) <= folds
            assert all(gap <= bound for gap, bound in gaps)

    def test_trace_counters_nondecreasing(self):
        # Stochastic counts must strictly increase, as bench fit's x values
        # must. Stride 5 divides every epoch (30, 120, 480 steps): the
        # epoch-end record stands for the checkpoint at T.
        inst = random_instance(n=10, d=3, seed=8)
        for stride in (7, 5):
            cfg = MixedGradConfig(eta1=0.1, delta1=1.0, t1=30, epochs=3,
                                  lambda1=1.0, checkpoint_stride=stride)
            res = run(inst, cfg, seed=1)
            stoch = [r.stoch_calls for r in res.trace]
            full = [r.full_calls for r in res.trace]
            assert all(a < b for a, b in zip(stoch, stoch[1:]))
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
            # Epoch 1 has Delta_1 = R, which the margin cannot certify; from
            # epoch 2 the halved Delta-ball lies inside the R-ball.
            assert s.outer_inactive == (s.epoch >= 2)

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
            # Epoch 1 has Delta_1 = R, and later anchors sit on the
            # R-sphere: no epoch is certified.
            assert not s.outer_inactive
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

    @pytest.mark.parametrize("field", ["t1", "epochs", "checkpoint_stride"])
    @pytest.mark.parametrize("value", [8.0, True, "8", None])
    def test_non_integer_count_rejected(self, field, value):
        counts = dict(t1=10, epochs=3, checkpoint_stride=5)
        counts[field] = value
        with pytest.raises(ValueError,
                           match=f"^{field} must be an integer >= 1, got "):
            MixedGradConfig(eta1=0.1, delta1=1.0, lambda1=1.0, **counts)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MixedGradConfig(eta1=-0.1, delta1=1.0, t1=10, epochs=3,
                            lambda1=1.0)

    @pytest.mark.parametrize("field", ["eta1", "delta1", "lambda1"])
    @pytest.mark.parametrize("value", ["0.1", "abc", True, None, 1j, 0,
                                       -0.5, math.nan])
    def test_non_positive_real_rejected(self, field, value):
        reals = dict(eta1=0.1, delta1=1.0, lambda1=1.0)
        reals[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be a positive "
                                             f"real number, got "):
            MixedGradConfig(t1=10, epochs=3, **reals)

    @pytest.mark.parametrize("value", [2, np.float64(0.5), np.int64(3),
                                       math.inf])
    def test_positive_reals_accepted(self, value):
        cfg = MixedGradConfig(eta1=value, delta1=value, t1=10, epochs=3,
                              lambda1=value)
        assert cfg.eta1 == cfg.delta1 == cfg.lambda1 == value


class TestDeferredCheckpoints:
    def test_divergence_mid_epoch_keeps_the_queued_records(self,
                                                           monkeypatch):
        # Epochs of 8, 32 and 128 steps at stride 5. The loss derivative
        # turns NaN at epoch 3's step 63, when its checkpoints 5, ..., 60
        # are still queued: they are evaluated in one batch before the
        # DivergenceError, and keep the healthy run's counters.
        inst = random_instance(n=30, d=4, seed=3)
        cfg = MixedGradConfig(eta1=0.1, delta1=1.0, t1=8, epochs=3,
                              lambda1=1.0, checkpoint_stride=5)
        ref = 0.25
        healthy = run(inst, cfg, seed=0, reference_value=ref).trace
        batches = record_objective_batches(monkeypatch)
        calls = []

        def derivative(y, margin, kind):
            calls.append(margin)
            return (_loss_derivative(y, margin, kind)
                    if len(calls) < 8 + 32 + 63 else math.nan)

        monkeypatch.setattr(core, "_loss_derivative", derivative)
        with pytest.raises(DivergenceError,
                           match="epoch 3, step 63$") as exc:
            run(inst, cfg, seed=0, reference_value=ref)
        assert exc.value.counters == OracleCounters(8 + 32 + 63, 3)
        trace = exc.value.trace
        assert [(r.epoch, r.step) for r in trace if r.epoch == 3] \
            == [(3, t) for t in range(5, 61, 5)]
        assert [(r.epoch, r.step, r.stoch_calls, r.full_calls)
                for r in trace] == [(r.epoch, r.step, r.stoch_calls,
                                     r.full_calls)
                                    for r in healthy[:len(trace)]]
        assert len(batches[-1]) == 12
        points = np.concatenate(batches)
        assert len(points) == len(trace)
        for record, p in zip(trace, points):
            assert math.isfinite(record.objective)
            assert abs(record.objective - full_objective(inst, p)) \
                <= objective_gap_bound(inst, p)
            assert record.error == record.objective - ref

    def test_queue_is_flushed_at_its_cap(self, monkeypatch):
        # d = 2000 caps the queue at ROW_BLOCK // d = 16 points. At stride
        # 1 epochs of 8, 32 and 128 steps queue 7, 31 and 127 checkpoints,
        # so epochs 2 and 3 flush inside the epoch; every record is still
        # written, in order, with its point's objective.
        d = 2000
        cap = ROW_BLOCK // d
        inst = random_instance(n=10, d=d, seed=4)
        cfg = MixedGradConfig(eta1=0.1, delta1=1.0, t1=8, epochs=3,
                              lambda1=1.0, checkpoint_stride=1)
        batches = record_objective_batches(monkeypatch)
        trace = run(inst, cfg, seed=0).trace
        assert [(r.epoch, r.step) for r in trace] == [
            (k, t) for k, T in ((1, 8), (2, 32), (3, 128))
            for t in [*range(1, T), T + 1]]
        assert [len(P) for P in batches] == [
            7, 1, cap, 31 - cap, 1, *[cap] * 7, 127 - 7 * cap, 1]
        points = np.concatenate(batches)
        assert len(points) == len(trace)
        for record, p in zip(trace, points):
            assert abs(record.objective - full_objective(inst, p)) \
                <= objective_gap_bound(inst, p)


class TestStepBlock:
    @pytest.mark.parametrize("T, stride, d, cap", [
        (1, 1, 20, 100), (500, 7, 20, 100), (2500, 1000, 20, 100),
        (300, 1000, 500, 65), (10, 1000, 40000, 1)])
    def test_blocks_tile_the_steps_with_the_drawn_rows(self, T, stride, d,
                                                       cap):
        # The cap is min(STEP_BLOCK, ROW_BLOCK // d), at least one: at
        # d = 40000 a single row exceeds ROW_BLOCK entries.
        inst = random_instance(n=30, d=d, seed=1)
        # Drawn in one call, the same sequence as the blocks' draws.
        drawn = SeededSampler(5).draw_block(inst.n, T)
        counters = OracleCounters()
        ends = [0]
        for t, end, XB, yB, xxs, G, kb, qb in core._blocks(
                inst, SeededSampler(5), counters, T, stride):
            assert t == ends[-1] and 0 < end - t <= cap
            assert counters.stochastic_calls == end
            idx = drawn[t:end]
            np.testing.assert_array_equal(XB, inst.dataset.features[idx])
            assert yB.tolist() == inst.dataset.labels[idx].tolist()
            assert xxs == inst._row_sq[idx].tolist()
            assert G.tobytes() == (XB @ XB.T).tobytes()
            assert kb.tolist() == qb.tolist() == [0.0] * (end - t)
            ends.append(end)
        assert ends[-1] == T
        assert set(range(stride, T, stride)) <= set(ends)

    @pytest.mark.parametrize("d, cap", [(20, 100), (500, 65)])
    def test_blocks_of_both_loops_stay_within_the_cap(self, d, cap,
                                                      monkeypatch):
        # Both loops draw through core._blocks, one sample_losses call per
        # block, so the sizes drawn are the block lengths. At stride 1000
        # neither loop's blocks are cut by a checkpoint before the cap,
        # min(STEP_BLOCK, ROW_BLOCK // d): STEP_BLOCK = 100 at d = 20, and
        # ROW_BLOCK // d = 65 at d = 500. The block's Gram matrix stays
        # within ROW_BLOCK entries.
        assert core.STEP_BLOCK ** 2 <= ROW_BLOCK
        sizes = []

        def draw(*args):
            idx = sample_losses(*args)
            sizes.append(len(idx))
            return idx

        sample_losses = core.sample_losses
        monkeypatch.setattr(core, "sample_losses", draw)
        inst = gen_synthetic(0, 100, d, 0.1, LEAST_SQUARES, 1.0)
        beta = inst.smoothness
        run(inst, MixedGradConfig(eta1=0.5 / beta, delta1=1.0, t1=32,
                                  epochs=4, lambda1=0.05 * beta,
                                  checkpoint_stride=1000), seed=0)
        assert sum(sizes) == 32 * (4 ** 4 - 1) // 3
        assert max(sizes) == cap
        sizes.clear()
        run_sgd(inst, BaselineConfig("sgd", 2500, checkpoint_stride=1000), 0)
        assert sum(sizes) == 2500
        assert max(sizes) == cap


class TestEpochSubproblem:
    def test_matches_closed_form_quadratic(self):
        a = 0.6
        inst = make_instance([[1.0]], [a], radius=5.0)
        lam = 0.8
        w, bound = epoch_subproblem_optimum(inst, np.zeros(1), lam, 0.25)
        assert w[0] == pytest.approx(min(2 * a / (lam + 2), 0.25), abs=1e-9)
        assert bound < 1e-10

    def test_raises_at_iteration_cap(self):
        inst = random_instance(12, seed=3)
        args = (inst, np.zeros(inst.d), 0.1, 0.5)
        w, _ = epoch_subproblem_optimum(*args)
        assert w.shape == (inst.d,)
        with pytest.raises(RuntimeError, match="within 3 iterations"):
            epoch_subproblem_optimum(*args, max_iterations=3)

    def test_cap_error_names_the_smallest_checked_residual(self):
        # F(w) = (w - 1)^2 / 2 with step 1/2: the one checked iterate is
        # w_1 = 0.5, whose residual is |0.5 - (0.5 + 0.25)| = 0.25.
        with pytest.raises(CertificateError, match="within 1 iterations; "
                           "the smallest checked residual was 0.25$"):
            _certified_minimum(lambda w: w - 1.0,
                               lambda v: project_ball(v, 5.0), 0.5, 1,
                               1e-3, 1)
        # An ill-conditioned quadratic, capped at 11: iterates 10 and 11
        # are checked, and the residual rises between them.
        A, b = np.diag([1.0, 0.01]), np.array([1.0, 0.5])

        def grad(w):
            return A @ w - b

        def project(v):
            return project_ball(v, 10.0)

        iterates = _projected_gradient(grad, project, np.zeros(2), 1.0,
                                       accelerated=True, restart=True)
        r = [np.linalg.norm(w - project(w - grad(w)))
             for w in itertools.islice(iterates, 11)]
        assert r[9] < r[10]
        with pytest.raises(CertificateError) as exc:
            _certified_minimum(grad, project, 1.0, 2, 1e-12, 11)
        assert str(exc.value).endswith(f"was {r[9]:.3g}")

    def test_rejects_nonpositive_iteration_cap(self):
        inst = random_instance(12, seed=3)
        with pytest.raises(ValueError, match="max_iterations"):
            epoch_subproblem_optimum(inst, np.zeros(inst.d), 0.1, 0.5,
                                     max_iterations=0)

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    @pytest.mark.parametrize("iterations", [1, 3, 7])
    def test_distance_bound_holds(self, kind, iterations):
        # An early iterate (the last one before the cap is checked, and an
        # infinite tolerance accepts it) lies within its bound of a long
        # run, itself within its own bound of the true minimizer.
        rng = np.random.default_rng(21)
        for seed in range(8):
            inst = gen_synthetic(seed, 30, 4, 0.3, kind, 1.0)
            anchor = rng.standard_normal(inst.d)
            anchor *= rng.uniform(0, 0.9) / np.linalg.norm(anchor)
            lam = 10.0 ** rng.uniform(-3, 0)
            inner_radius = rng.uniform(0.01, 1.0)
            args = (inst, anchor, lam, inner_radius)
            w, bound = epoch_subproblem_optimum(
                *args, tol=math.inf, max_iterations=iterations)
            w_star, bound_star = epoch_subproblem_optimum(*args)
            assert bound_star < 1e-8
            assert np.linalg.norm(w - w_star) <= bound + bound_star


def reference_subproblem(inst, anchor, lam, inner_radius, tol=1e-12,
                         max_iterations=200_000):
    """The epoch-subproblem solve written plainly: Nesterov's accelerated
    projected gradient on the recentered objective, with step 1/(L + lam)
    and momentum restarted whenever (y - w) . (w - w_prev) > 0, until the
    projected-gradient residual r, checked on every 10th iterate and the
    last, is below tol. Returns (point, 2 (L + lam) r / lam, iterations)."""
    domain = EpochDomain(anchor, inst.domain_radius, inner_radius)
    smooth = mean_curvature(inst) + lam
    eta = 1.0 / smooth

    def grad(w):
        return lam * (w + anchor) + mean_gradient(inst, w + anchor)

    w = np.zeros(inst.d)
    w_prev = w.copy()
    theta_prev = 1.0
    for k in range(1, max_iterations + 1):
        theta = (1.0 + math.sqrt(1.0 + 4.0 * theta_prev * theta_prev)) / 2.0
        y = w + ((theta_prev - 1.0) / theta) * (w - w_prev)
        w_prev, w = w, project_epoch_domain(y - eta * grad(y), domain)
        theta_prev = 1.0 if (y - w).dot(w - w_prev) > 0 else theta
        if k % 10 == 0 or k == max_iterations:
            r = float(np.linalg.norm(
                w - project_epoch_domain(w - eta * grad(w), domain)))
            if r < tol:
                return w, 2.0 * smooth * r / lam, k
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
        w, bound = epoch_subproblem_optimum(inst, anchor, 0.1, inner_radius)
        ref, ref_bound, iterations = reference_subproblem(
            inst, anchor, 0.1, inner_radius)
        assert iterations > 5
        np.testing.assert_array_equal(w, ref)
        assert bound == ref_bound
        if inner_radius == 0.05:
            assert np.linalg.norm(w) == pytest.approx(0.05, rel=1e-12)

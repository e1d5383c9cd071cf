import numpy as np
import pytest

from mixedgrad.losses import (LEAST_SQUARES, Dataset, ProblemInstance,
                              loss_grad)
from mixedgrad.oracle import (OracleCounters, SeededSampler, full_grad,
                              sample_loss, sample_losses)


def make_instance(n=5, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return ProblemInstance(
        Dataset(rng.standard_normal((n, d)), rng.standard_normal(n)),
        LEAST_SQUARES, 1.0)


class TestSampleLoss:
    def test_single_choice(self):
        s = SeededSampler(0)
        c = OracleCounters()
        assert all(sample_loss(s, c, 1) == 0 for _ in range(10))
        assert c.stochastic_calls == 10

    def test_seed_reproducibility(self):
        a = [sample_loss(SeededSampler(7), OracleCounters(), 10)
             for _ in range(1)]
        s1, s2 = SeededSampler(7), SeededSampler(7)
        c = OracleCounters()
        seq1 = [sample_loss(s1, c, 10) for _ in range(3)]
        seq2 = [sample_loss(s2, c, 10) for _ in range(3)]
        assert seq1 == seq2

    def test_uniform_frequencies(self):
        s = SeededSampler(123)
        c = OracleCounters()
        draws = np.array([sample_loss(s, c, 4) for _ in range(100_000)])
        for i in range(4):
            freq = np.mean(draws == i)
            assert abs(freq - 0.25) <= 0.005
        assert c.stochastic_calls == 100_000

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_loss(SeededSampler(0), OracleCounters(), 0)
        with pytest.raises(ValueError):
            sample_losses(SeededSampler(0), OracleCounters(), 0, 5)


class TestSampleLosses:
    @pytest.mark.parametrize("n", [1, 200, 20000])
    def test_matches_single_draws_across_blocks(self, n):
        # Blocks of every size the solvers draw (one step, a short span, a
        # full run_epoch block, more than any block) must reproduce the
        # single-draw sequence, count every index, and leave both samplers
        # in step.
        blocked, single = SeededSampler(11), SeededSampler(11)
        cb, cs = OracleCounters(), OracleCounters()
        for k in (1, 7, 181, 5001):
            got = sample_losses(blocked, cb, n, k)
            want = [sample_loss(single, cs, n) for _ in range(k)]
            assert got == want
            assert cb == cs
        assert cb.stochastic_calls == 1 + 7 + 181 + 5001
        assert blocked.draw_block(n, 1) == single.draw_block(n, 1)


class TestFullGrad:
    def test_single_example(self):
        inst = make_instance(n=1)
        c = OracleCounters()
        w = np.array([0.1, -0.2, 0.3])
        np.testing.assert_array_equal(full_grad(inst, w, c),
                                      loss_grad(inst, 0, w))
        assert c.full_calls == 1 and c.stochastic_calls == 0

    def test_counter_contract(self):
        inst = make_instance()
        c = OracleCounters()
        w = np.zeros(3)
        full_grad(inst, w, c)
        full_grad(inst, w, c)
        assert c.full_calls == 2 and c.stochastic_calls == 0

    def test_matches_brute_force_mean(self):
        inst = make_instance(n=11, d=4, seed=3)
        c = OracleCounters()
        rng = np.random.default_rng(1)
        w = rng.uniform(-1, 1, 4)
        brute = sum(loss_grad(inst, i, w) for i in range(11)) / 11
        np.testing.assert_allclose(full_grad(inst, w, c), brute, atol=1e-12)

    def test_vanishes_at_interior_minimizer(self):
        # unconstrained least-squares solution via a direct solve
        inst = make_instance(n=30, d=4, seed=9)
        X, y = inst.dataset.features, inst.dataset.labels
        w_star, *_ = np.linalg.lstsq(X, y, rcond=None)
        g = full_grad(inst, w_star, OracleCounters())
        assert np.linalg.norm(g) <= 1e-8

import math

import numpy as np
import pytest

from mixedgrad.losses import (LEAST_SQUARES, LOGISTIC, Dataset,
                              ProblemInstance, _loss_derivative,
                              _loss_derivatives, full_objective,
                              load_dataset_csv, loss_grad, loss_value,
                              mean_gradient, save_dataset_csv,
                              smoothness_constant)


def make_instance(X, y, kind, radius=1.0):
    return ProblemInstance(Dataset(np.asarray(X, float),
                                   np.asarray(y, float)), kind, radius)


class TestLossValue:
    def test_least_squares_zero_w(self):
        inst = make_instance([[1.0, 0.0]], [1.0], LEAST_SQUARES)
        assert loss_value(inst, 0, np.zeros(2)) == 1.0

    def test_logistic_at_origin_is_ln2(self):
        inst = make_instance([[3.0, -2.0]], [1.0], LOGISTIC)
        assert loss_value(inst, 0, np.zeros(2)) == pytest.approx(math.log(2), abs=1e-15)

    def test_least_squares_zero_residual(self):
        inst = make_instance([[2.0, 1.0]], [3.0], LEAST_SQUARES)
        assert loss_value(inst, 0, np.array([1.0, 1.0])) == 0.0

    def test_logistic_large_margin_stays_finite(self):
        inst = make_instance([[1.0]], [-1.0], LOGISTIC, radius=1000.0)
        v = loss_value(inst, 0, np.array([800.0]))
        assert np.isfinite(v) and v > 0

    def test_index_out_of_range(self):
        inst = make_instance([[1.0]], [1.0], LEAST_SQUARES)
        with pytest.raises(IndexError):
            loss_value(inst, 1, np.zeros(1))

    def test_dimension_mismatch(self):
        inst = make_instance([[1.0, 2.0]], [1.0], LEAST_SQUARES)
        with pytest.raises(ValueError):
            loss_value(inst, 0, np.zeros(3))


class TestLossGrad:
    def test_least_squares_example(self):
        inst = make_instance([[1.0, 0.0]], [1.0], LEAST_SQUARES)
        np.testing.assert_allclose(loss_grad(inst, 0, np.zeros(2)),
                                   [-2.0, 0.0], atol=0)

    def test_logistic_at_origin(self):
        inst = make_instance([[1.0, 2.0]], [1.0], LOGISTIC)
        np.testing.assert_allclose(loss_grad(inst, 0, np.zeros(2)),
                                   [-0.5, -1.0], atol=1e-15)

    def test_zero_at_interior_minimizer(self):
        # least squares: residual zero at the minimizer of g_i
        inst = make_instance([[2.0, 1.0]], [3.0], LEAST_SQUARES, radius=5.0)
        np.testing.assert_allclose(loss_grad(inst, 0, np.array([1.0, 1.0])),
                                   np.zeros(2), atol=0)


class TestLossDerivative:
    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_array_form_matches_scalar_bit_for_bit(self, kind):
        # Margins up to +-800 cover both sigmoid branches and exp
        # underflow; the array form must give the scalar's bits.
        rng = np.random.default_rng(6)
        margins = rng.uniform(-800.0, 800.0, 2000) * rng.uniform(0, 1, 2000)
        y = (np.where(rng.integers(0, 2, 2000) == 1, 1.0, -1.0)
             if kind == LOGISTIC else rng.standard_normal(2000))
        array = _loss_derivatives(y, margins, kind)
        scalar = [_loss_derivative(float(yi), float(m), kind)
                  for yi, m in zip(y, margins)]
        np.testing.assert_array_equal(array, scalar)


class TestFullObjective:
    def test_single_example(self):
        inst = make_instance([[1.0, 1.0]], [2.0], LEAST_SQUARES)
        w = np.array([0.3, -0.2])
        assert full_objective(inst, w) == loss_value(inst, 0, w)

    def test_two_identical_examples(self):
        inst = make_instance([[1.0, 1.0]] * 2, [2.0] * 2, LEAST_SQUARES)
        w = np.array([0.3, -0.2])
        assert full_objective(inst, w) == pytest.approx(loss_value(inst, 0, w))

    def test_hand_summed_average(self):
        # residuals 1, 2, 1 at w=0 -> losses 1, 4, 1 -> mean 2
        inst = make_instance([[1.0], [1.0], [1.0]], [1.0, 2.0, -1.0],
                             LEAST_SQUARES)
        assert full_objective(inst, np.zeros(1)) == 2.0

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_matches_left_to_right_loss_sum(self, kind):
        # Reference: the per-example losses summed in index order. Rows
        # scaled to margins of +-800 cover both tails of the stable
        # logistic kernel.
        rng = np.random.default_rng(2)
        X = rng.standard_normal((57, 5))
        X[:3] = [[800.0, 0, 0, 0, 0], [-800.0, 0, 0, 0, 0], [0, 0, 0, 0, 0]]
        y = np.where(rng.standard_normal(57) >= 0, 1.0, -1.0)
        y[:2] = 1.0
        inst = make_instance(X, y, kind, radius=2.0)
        for w in (np.array([1.0, 0, 0, 0, 0]), rng.uniform(-0.3, 0.3, 5)):
            total = 0.0
            for i in range(inst.n):
                total += loss_value(inst, i, w)
            assert full_objective(inst, w) == pytest.approx(total / inst.n,
                                                            rel=1e-14)


class TestSmoothnessConstant:
    def test_least_squares_single_row(self):
        assert smoothness_constant(Dataset(np.array([[1.0, 0.0]]),
                                           np.array([1.0])),
                                   LEAST_SQUARES) == 2.0

    def test_logistic_single_row(self):
        assert smoothness_constant(Dataset(np.array([[2.0, 0.0]]),
                                           np.array([1.0])),
                                   LOGISTIC) == 1.0

    def test_zero_features_floor(self):
        ds = Dataset(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]))
        assert smoothness_constant(ds, LEAST_SQUARES) == 1e-12

    def test_power_iteration_confirms_least_squares(self):
        # top eigenvalue of the per-example Hessian 2 x x^T is 2 ||x||^2
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4)
        H = 2.0 * np.outer(x, x)
        v = rng.standard_normal(4)
        for _ in range(200):
            v = H @ v
            v /= np.linalg.norm(v)
        top = float(v @ H @ v)
        ds = Dataset(x[None, :], np.array([0.5]))
        assert smoothness_constant(ds, LEAST_SQUARES) == pytest.approx(top, rel=1e-12)


class TestValidation:
    def test_logistic_rejects_non_sign_labels(self):
        with pytest.raises(ValueError):
            make_instance([[1.0]], [0.5], LOGISTIC)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf]]), np.array([1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 2)), np.zeros(0))

    def test_smoothness_must_match_dataset(self):
        # beta is derived from the dataset; it cannot be passed in.
        ds = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
        assert ProblemInstance(ds, LEAST_SQUARES, 1.0).smoothness \
            == smoothness_constant(ds, LEAST_SQUARES) == 2.0
        with pytest.raises(TypeError):
            ProblemInstance(ds, LEAST_SQUARES, 1.0, 3.0)


def seeded_instances():
    rng = np.random.default_rng(123)
    X = rng.standard_normal((8, 3))
    out = []
    out.append(make_instance(X, rng.standard_normal(8), LEAST_SQUARES, 2.0))
    out.append(make_instance(X, rng.choice([-1.0, 1.0], 8), LOGISTIC, 2.0))
    return out


class TestGradientProperties:
    def test_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for inst in seeded_instances():
            for _ in range(50):
                i = int(rng.integers(inst.n))
                w = rng.uniform(-1, 1, inst.d)
                g = loss_grad(inst, i, w)
                for j in range(inst.d):
                    e = np.zeros(inst.d)
                    e[j] = h
                    fd = (loss_value(inst, i, w + e)
                          - loss_value(inst, i, w - e)) / (2 * h)
                    scale = max(1.0, abs(fd))
                    assert abs(g[j] - fd) / scale <= 1e-5

    def test_smoothness_convexity_and_lipschitz_witnesses(self):
        rng = np.random.default_rng(99)
        for inst in seeded_instances():
            beta = inst.smoothness
            R = inst.domain_radius
            for _ in range(100):
                i = int(rng.integers(inst.n))
                w = rng.standard_normal(inst.d)
                w *= rng.uniform(0, R) / np.linalg.norm(w)
                wp = rng.standard_normal(inst.d)
                wp *= rng.uniform(0, R) / np.linalg.norm(wp)
                gw, gwp = loss_grad(inst, i, w), loss_grad(inst, i, wp)
                fw, fwp = loss_value(inst, i, w), loss_value(inst, i, wp)
                diff = w - wp
                # quadratic upper bound
                assert fw <= (fwp + gwp @ diff
                              + 0.5 * beta * diff @ diff + 1e-9)
                # gradient Lipschitz
                assert (np.linalg.norm(gw - gwp)
                        <= beta * np.linalg.norm(diff) + 1e-9)
                # convexity lower bound
                assert fw >= fwp + gwp @ diff - 1e-9


class TestMeanGradient:
    def test_matches_per_example_average(self):
        rng = np.random.default_rng(5)
        for inst in seeded_instances():
            w = rng.uniform(-1, 1, inst.d)
            brute = sum(loss_grad(inst, i, w) for i in range(inst.n)) / inst.n
            np.testing.assert_allclose(mean_gradient(inst, w), brute,
                                       atol=1e-12)


class TestCsvFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        ds = Dataset(rng.standard_normal((6, 4)), rng.standard_normal(6))
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "y,x1,x2,x3,x4"
        loaded = load_dataset_csv(path)
        np.testing.assert_array_equal(loaded.features, ds.features)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

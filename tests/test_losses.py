import math
import warnings

import numpy as np
import pytest

from mixedgrad.losses import (LEAST_SQUARES, LOGISTIC, ROW_BLOCK, Dataset,
                              ProblemInstance, _loss_derivative,
                              _loss_derivatives, _row_norms_sq,
                              full_objective, load_dataset_csv, loss_grad,
                              loss_value, mean_gradient, mean_smoothness,
                              save_dataset_csv)


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
        # Margins up to +-800 cover both sigmoid branches (y m >= 0 and
        # < 0), |y m| near 700 and exp underflow; the scalar form, given
        # Python floats as the step loops pass it, returns Python floats
        # with the array form's bits, signed zeros included.
        rng = np.random.default_rng(6)
        margins = rng.uniform(-800.0, 800.0, 2000) * rng.uniform(0, 1, 2000)
        margins[:6] = [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300]
        y = (np.where(rng.integers(0, 2, 2000) == 1, 1.0, -1.0)
             if kind == LOGISTIC else rng.standard_normal(2000))
        array = _loss_derivatives(y, margins, kind)
        scalar = [_loss_derivative(float(yi), float(m), kind)
                  for yi, m in zip(y, margins)]
        assert all(type(s) is float for s in scalar)
        np.testing.assert_array_equal(np.array(scalar).view(np.uint64),
                                      array.view(np.uint64))


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


def beta(dataset, kind):
    return ProblemInstance(dataset, kind, 1.0).smoothness


class TestSmoothnessConstant:
    def test_least_squares_single_row(self):
        assert beta(Dataset(np.array([[1.0, 0.0]]), np.array([1.0])),
                    LEAST_SQUARES) == 2.0

    def test_logistic_single_row(self):
        assert beta(Dataset(np.array([[2.0, 0.0]]), np.array([1.0])),
                    LOGISTIC) == 1.0

    def test_zero_features_floor(self):
        ds = Dataset(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]))
        assert beta(ds, LEAST_SQUARES) == 1e-12

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
        assert beta(ds, LEAST_SQUARES) == pytest.approx(top, rel=1e-12)


class TestRowNorms:
    @pytest.mark.parametrize("d", [1, 7, 50, ROW_BLOCK + 1])
    def test_blocked_pass_is_bit_identical(self, d):
        # Blocks of max(1, ROW_BLOCK // d) rows; n straddles one block and
        # covers several. Some rows are scaled so that their squares
        # underflow to subnormals or to zero.
        rows = max(1, ROW_BLOCK // d)
        rng = np.random.default_rng(d)
        for n in sorted({max(rows - 1, 1), rows, rows + 1, 3 * rows + 1}):
            X = rng.standard_normal((n, d))
            X[::3] *= 1e-160
            X[1::5] *= 1e-200
            expected = np.sum(X ** 2, axis=1)
            assert expected[::3].min() < 1e-300
            assert _row_norms_sq(X).tobytes() == expected.tobytes()

    def test_overflow_is_inf_without_a_warning(self):
        X = np.array([[1.0, 2.0], [1e200, 0.0], [1e154, 1e154]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _row_norms_sq(X).tolist() == [5.0, math.inf, math.inf]

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_instance_rejects_the_first_overflowing_row(self, kind):
        X = np.ones((6, 3))
        X[2, 1] = 1e200
        X[4, 0] = -1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^example 2: its squared "
                                                 r"feature norm \|\|x_i\|\|\^2 "
                                                 r"overflows to inf"):
                make_instance(X, np.ones(6), kind)

    def test_beta_that_overflows_is_rejected(self):
        # ||x_0||^2 = 1e308 is finite: logistic beta is a quarter of it,
        # least-squares beta twice it, which overflows.
        X, y = [[1e154, 0.0], [1.0, 0.0]], [1.0, -1.0]
        assert make_instance(X, y, LOGISTIC).smoothness == 1e308 / 4
        with pytest.raises(ValueError, match=r"^beta = 2\.0 max_i "
                                             r"\|\|x_i\|\|\^2 overflows to inf"):
            make_instance(X, y, LEAST_SQUARES)

    @pytest.mark.parametrize("X, y, kind, radius", [
        # Least-squares losses reach (|y_i| + 3R ||x_i||)^2 on the 3R-ball.
        ([[1.0, 0.0], [0.0, 1.0]], [1e155, 0.0], LEAST_SQUARES, 1.0),
        ([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], LEAST_SQUARES, 1e155),
        # Logistic sums stay finite, but the Gram diagonal does not.
        ([[1e154, 0.0], [1e154, 0.0]], [1.0, -1.0], LOGISTIC, 1.0),
    ])
    def test_instance_rejects_data_whose_sums_overflow(self, X, y, kind,
                                                       radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^sum_i \|\|x_i\|\|\^2 "
                                                 r"plus the losses' bound"):
                make_instance(X, y, kind, radius)


def random_instance(rng, n, d, kind):
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, (n, 1))
    y = (rng.choice([-1.0, 1.0], n) if kind == LOGISTIC
         else rng.standard_normal(n))
    return make_instance(X, y, kind)


class TestMeanSmoothness:
    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_at_most_beta(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, d = (int(k) for k in rng.integers(1, 30, 2))
            inst = random_instance(rng, n, d, kind)
            assert 0 < mean_smoothness(inst) <= inst.smoothness

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_single_row_equals_beta(self, kind):
        rng = np.random.default_rng(12)
        for d in (1, 3, 40):
            inst = random_instance(rng, 1, d, kind)
            assert mean_smoothness(inst) == pytest.approx(inst.smoothness,
                                                          rel=1e-14)
        assert mean_smoothness(make_instance([[1.0, 0.0]], [1.0], kind)) \
            == beta(Dataset(np.array([[1.0, 0.0]]), np.array([1.0])), kind)

    @pytest.mark.parametrize("n, d", [(6, 15), (15, 6)])
    def test_both_gram_sides_agree(self, n, d):
        # mean_smoothness takes the smaller Gram matrix; the larger one has
        # the same top eigenvalue.
        rng = np.random.default_rng(13)
        inst = random_instance(rng, n, d, LEAST_SQUARES)
        X = inst.dataset.features
        larger = X.T @ X if n < d else X @ X.T
        top = float(np.linalg.eigvalsh(larger)[-1])
        assert mean_smoothness(inst) == pytest.approx(2.0 * top / n,
                                                      rel=1e-13)

    def test_zero_features_floor(self):
        inst = make_instance(np.zeros((3, 2)), [1.0, -1.0, 1.0], LOGISTIC)
        assert mean_smoothness(inst) == 1e-12

    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    def test_lipschitz_witness(self, kind):
        # ||grad G(a) - grad G(b)|| <= L ||a - b||, with L well below beta.
        rng = np.random.default_rng(14)
        inst = random_instance(rng, 60, 8, kind)
        L = mean_smoothness(inst)
        assert L < 0.5 * inst.smoothness
        for _ in range(200):
            a, b = rng.standard_normal((2, inst.d)) * rng.uniform(0.01, 3.0)
            gap = np.linalg.norm(mean_gradient(inst, a)
                                 - mean_gradient(inst, b))
            assert gap <= L * np.linalg.norm(a - b) * (1 + 1e-12)

    def test_least_squares_bound_is_tight(self):
        # Along the top eigenvector of X^T X the least-squares gradient
        # changes at exactly rate L.
        rng = np.random.default_rng(15)
        inst = random_instance(rng, 60, 8, LEAST_SQUARES)
        X = inst.dataset.features
        v = np.linalg.eigh(X.T @ X)[1][:, -1]
        a = rng.standard_normal(inst.d)
        gap = np.linalg.norm(mean_gradient(inst, a + v)
                             - mean_gradient(inst, a))
        assert gap == pytest.approx(mean_smoothness(inst), rel=1e-9)


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

    @pytest.mark.parametrize("radius, shown", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
        (0.0, "0.0")])
    def test_rejects_a_non_finite_or_non_positive_radius(self, radius, shown):
        with pytest.raises(ValueError, match="^domain_radius must be positive "
                                             f"and finite, got {shown}$"):
            make_instance([[1.0]], [1.0], LEAST_SQUARES, radius=radius)

    def test_per_example_step_constants(self):
        # The step loops' ||x_i||^2: _row_norms_sq's array, bit for bit,
        # computed once per instance and kept out of its repr.
        rng = np.random.default_rng(2)
        X = rng.standard_normal((7, 3))
        inst = ProblemInstance(Dataset(X, X[:, 0]), LEAST_SQUARES, 1.0)
        assert inst._row_sq.tobytes() == _row_norms_sq(X).tobytes()
        assert "_row_sq" not in repr(inst)

    def test_smoothness_must_match_dataset(self):
        # beta is derived from the dataset; it cannot be passed in.
        ds = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
        assert ProblemInstance(ds, LEAST_SQUARES, 1.0).smoothness == 2.0
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

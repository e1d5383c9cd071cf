import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mixedgrad.baselines import BaselineConfig
from mixedgrad.bench import (ExperimentSpec, ReferenceSolveError,
                             compute_reference_optimum, fit_slope,
                             gen_synthetic, read_trace_csv, run_experiment,
                             write_trace_csv)
import mixedgrad.bench
from mixedgrad.core import DivergenceError, MixedGradConfig, TraceRecord
from mixedgrad.geometry import project_ball
from mixedgrad.oracle import OracleCounters
from mixedgrad.losses import (LEAST_SQUARES, LOGISTIC, Dataset,
                              ProblemInstance, full_objective, mean_gradient)

from helpers import mean_curvature


class TestGenSynthetic:
    def test_deterministic_per_seed(self):
        a = gen_synthetic(9, 30, 5, 0.1, LEAST_SQUARES, 1.0)
        b = gen_synthetic(9, 30, 5, 0.1, LEAST_SQUARES, 1.0)
        np.testing.assert_array_equal(a.dataset.features, b.dataset.features)
        np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels)

    def test_noise_free_interpolation(self):
        inst = gen_synthetic(3, 40, 6, 0.0, LEAST_SQUARES, 1.0)
        w_star, g_star = compute_reference_optimum(inst, 1e-10)
        assert g_star <= 1e-10

    def test_unit_rows_give_beta_two(self):
        inst = gen_synthetic(0, 25, 4, 0.0, LEAST_SQUARES, 1.0)
        assert abs(inst.smoothness - 2.0) <= 1e-14

    def test_logistic_labels_are_signs(self):
        inst = gen_synthetic(1, 30, 5, 0.2, LOGISTIC, 1.0)
        assert set(np.unique(inst.dataset.labels)) <= {-1.0, 1.0}

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="nonnegative integers, got -1"):
            gen_synthetic(-1, 10, 3, 0.0, LEAST_SQUARES, 1.0)

    def test_rejects_a_bool_seed(self):
        with pytest.raises(ValueError, match="nonnegative integers, got True"):
            gen_synthetic(True, 10, 3, 0.0, LEAST_SQUARES, 1.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 0, 3, 0.0, LEAST_SQUARES, 1.0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_rejects_a_non_finite_radius_up_front(self, radius):
        # Checked before the planted solution is scaled by it, so no
        # numpy warning and no complaint about the dataset.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^domain_radius must be "
                                                 "positive and finite, got "):
                gen_synthetic(0, 10, 3, 0.0, LEAST_SQUARES, radius)


def old_synthetic_data(seed, n, d, noise_sd, loss_kind, radius):
    # gen_synthetic's draws with the full-array row normalization it used
    # before its row norms came from losses._row_norms_sq.
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    w0 = rng.standard_normal(d)
    w0 *= (radius / 2.0) / np.linalg.norm(w0)
    raw = X @ w0 + noise_sd * rng.standard_normal(n)
    y = raw if loss_kind == LEAST_SQUARES else np.where(raw >= 0, 1.0, -1.0)
    return X, y


@pytest.mark.parametrize("seed, n, d, loss_kind", [
    (0, 200, 20, LEAST_SQUARES), (4, 200, 20, LOGISTIC),
    (7, 3000, 50, LEAST_SQUARES), (11, 3, 40_000, LOGISTIC)])
def test_blocked_normalization_is_bit_identical(seed, n, d, loss_kind):
    inst = gen_synthetic(seed, n, d, 0.5, loss_kind, 1.0)
    X, y = old_synthetic_data(seed, n, d, 0.5, loss_kind, 1.0)
    assert inst.dataset.features.tobytes() == X.tobytes()
    assert inst.dataset.labels.tobytes() == y.tobytes()
    row_sq = np.sum(X ** 2, axis=1)
    assert inst._row_sq.tobytes() == row_sq.tobytes()
    curvature = 2.0 if loss_kind == LEAST_SQUARES else 0.25
    assert inst.smoothness == curvature * float(np.max(row_sq))


def traced_peak(build):
    """build(), and the peak of tracemalloc's traced memory (numpy's buffers
    included) and the memory still traced once build has returned, both
    above the level when build started, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
        return result, peak - start, kept - start
    finally:
        tracemalloc.stop()


class TestSetUpMemory:
    # The large-n benchmark instance. Its row norms are computed a block of
    # rows at a time, so neither gen_synthetic nor ProblemInstance builds
    # an n x d temporary besides the feature matrix X itself.
    N, D = 20_000, 50
    X_BYTES = N * D * 8

    def test_gen_synthetic_peak(self):
        inst, peak, _ = traced_peak(lambda: gen_synthetic(
            0, self.N, self.D, 0.5, LEAST_SQUARES, 1.0))
        assert inst.dataset.features.nbytes == self.X_BYTES
        assert peak <= 1.5 * self.X_BYTES

    def test_problem_instance_peak(self):
        # Once built, an instance keeps one float64 array of n entries
        # besides its dataset: ||x_i||^2, 8 N bytes.
        dataset = gen_synthetic(0, self.N, self.D, 0.5, LEAST_SQUARES,
                                1.0).dataset
        _, peak, kept = traced_peak(
            lambda: ProblemInstance(dataset, LEAST_SQUARES, 1.0))
        assert peak <= 0.5 * self.X_BYTES
        assert kept <= 16 * self.N


class TestReferenceOptimum:
    def test_interior_quadratic(self):
        # (w - a)^2 with |a| < R: optimum at a
        ds = Dataset(np.array([[1.0]]), np.array([0.4]))
        inst = ProblemInstance(ds, LEAST_SQUARES, 1.0)
        w_star, g_star = compute_reference_optimum(inst, 1e-10)
        assert w_star[0] == pytest.approx(0.4, abs=1e-8)
        assert g_star <= 1e-15

    def test_boundary_solution(self):
        # a = 2 outside the unit ball: constrained optimum at +1
        ds = Dataset(np.array([[1.0]]), np.array([2.0]))
        inst = ProblemInstance(ds, LEAST_SQUARES, 1.0)
        w_star, g_star = compute_reference_optimum(inst, 1e-10)
        assert w_star[0] == pytest.approx(1.0, abs=1e-8)
        assert g_star == pytest.approx(1.0, abs=1e-7)

    def test_rejects_bad_tolerance(self):
        inst = gen_synthetic(0, 10, 3, 0.0, LEAST_SQUARES, 1.0)
        with pytest.raises(ValueError):
            compute_reference_optimum(inst, 1e-3)

    def test_last_iterate_before_the_cap_is_checked(self):
        # beta = 2, so the first step lands on the optimum 0.4 exactly.
        ds = Dataset(np.array([[1.0]]), np.array([0.4]))
        inst = ProblemInstance(ds, LEAST_SQUARES, 1.0)
        w_star, _ = compute_reference_optimum(inst, 1e-10, max_iterations=1)
        assert w_star[0] == 0.4

    def test_iteration_cap_reported(self):
        inst = gen_synthetic(0, 10, 3, 0.0, LEAST_SQUARES, 1.0)
        with pytest.raises(ReferenceSolveError):
            compute_reference_optimum(inst, 1e-12, max_iterations=3)

    def test_rejects_nonpositive_iteration_cap(self):
        inst = gen_synthetic(0, 10, 3, 0.0, LEAST_SQUARES, 1.0)
        with pytest.raises(ValueError, match="max_iterations"):
            compute_reference_optimum(inst, 1e-10, max_iterations=0)


def residual(inst, w):
    """The reference solve's certificate: the gap of one step-1/beta
    projected gradient step from w."""
    R = inst.domain_radius
    eta = 1.0 / inst.smoothness
    return float(np.linalg.norm(
        w - project_ball(w - eta * mean_gradient(inst, w), R)))


def reference_solve(inst, tolerance, max_iterations=10 ** 6):
    """The reference solve written plainly: Nesterov's accelerated
    projected gradient with step 1/L (L the smoothness of G) whose momentum
    restarts (theta back to 1) whenever (y - w) . (w - w_prev) > 0, until
    the step-1/L projected-gradient residual, checked on every 10th iterate
    and the last, is below tolerance. Returns (point, value, iterations)."""
    R = inst.domain_radius
    eta = 1.0 / mean_curvature(inst)
    w = np.zeros(inst.d)
    w_prev = w.copy()
    theta_prev = 1.0
    for k in range(1, max_iterations + 1):
        theta = (1.0 + math.sqrt(1.0 + 4.0 * theta_prev * theta_prev)) / 2.0
        y = w + ((theta_prev - 1.0) / theta) * (w - w_prev)
        w_prev, w = w, project_ball(y - eta * mean_gradient(inst, y), R)
        theta_prev = 1.0 if (y - w).dot(w - w_prev) > 0 else theta
        checked = k % 10 == 0 or k == max_iterations
        if checked and np.linalg.norm(
                w - project_ball(w - eta * mean_gradient(inst, w), R)) \
                < tolerance:
            return w, full_objective(inst, w), k
    raise AssertionError("reference solve did not converge")


def plain_reference_solve(inst, tolerance):
    """The earlier reference solve: plain Nesterov momentum, with the
    residual checked on every iterate. Returns (point, value)."""
    R = inst.domain_radius
    eta = 1.0 / inst.smoothness
    w = np.zeros(inst.d)
    w_prev = w.copy()
    theta_prev = 1.0
    for _ in range(10 ** 6):
        theta = (1.0 + math.sqrt(1.0 + 4.0 * theta_prev * theta_prev)) / 2.0
        y = w + ((theta_prev - 1.0) / theta) * (w - w_prev)
        w_prev, w = w, project_ball(y - eta * mean_gradient(inst, y), R)
        theta_prev = theta
        if residual(inst, w) < tolerance:
            return w, full_objective(inst, w)
    raise AssertionError("plain reference solve did not converge")


class TestReferenceOptimumMatchesReference:
    @pytest.mark.parametrize("kind", [LEAST_SQUARES, LOGISTIC])
    @pytest.mark.parametrize("radius", [0.2, 1.0])
    def test_bit_identical(self, kind, radius):
        # With R = 0.2 the optimum lies on the sphere on both losses.
        inst = gen_synthetic(2, 40, 5, 0.3, kind, radius)
        w_star, g_star = compute_reference_optimum(inst, 1e-10)
        ref_point, ref_value, iterations = reference_solve(inst, 1e-10)
        assert iterations > 5
        np.testing.assert_array_equal(w_star, ref_point)
        assert g_star == ref_value
        if radius == 0.2:
            assert np.linalg.norm(w_star) == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize("kind, radius, noise", [
        (LEAST_SQUARES, 0.2, 0.3), (LOGISTIC, 0.2, 0.3),
        (LEAST_SQUARES, 1.0, 0.3), (LOGISTIC, 1.0, 0.3),
        (LEAST_SQUARES, 1.0, 0.0)])
    def test_agrees_with_plain_momentum(self, kind, radius, noise):
        # Restart changes the path, not the optimum it certifies: values
        # agree to 4 ulp, or to 1e-18 where the optimum is 0 (no noise).
        inst = gen_synthetic(2, 40, 5, noise, kind, radius)
        w_star, g_star = compute_reference_optimum(inst, 1e-10)
        _, plain_value = plain_reference_solve(inst, 1e-10)
        assert abs(g_star - plain_value) <= max(4 * math.ulp(plain_value),
                                                1e-18)
        assert residual(inst, w_star) < 1e-10

    @staticmethod
    def gradient_calls(monkeypatch, inst):
        calls = []
        monkeypatch.setattr(mixedgrad.bench, "mean_gradient",
                            lambda *a: calls.append(1) or mean_gradient(*a))
        compute_reference_optimum(inst, 1e-10)
        return len(calls)

    def test_gradient_calls_are_bounded(self, monkeypatch):
        # 33 calls at step 1/L; a step of 1/beta takes 143, and plain
        # momentum with a residual on every iterate 1,450.
        inst = gen_synthetic(0, 200, 20, 0.0, LEAST_SQUARES, 1.0)
        assert self.gradient_calls(monkeypatch, inst) <= 40

    def test_gradient_calls_are_bounded_at_large_n(self, monkeypatch):
        # The large-n benchmark's instance shape, where L = beta / 45: 22
        # calls at step 1/L, 143 at step 1/beta.
        inst = gen_synthetic(0, 20_000, 50, 0.5, LEAST_SQUARES, 1.0)
        assert self.gradient_calls(monkeypatch, inst) <= 30


def power_law_records(coef, power, xs):
    return [{"x": x, "error": coef * x ** power} for x in xs]


class TestFitSlope:
    def test_exact_inverse_law(self):
        recs = power_law_records(100.0, -1.0, [10, 20, 40, 80, 160])
        fit = fit_slope(recs, "x", "error")
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_inverse_sqrt_law(self):
        recs = power_law_records(5.0, -0.5, [10, 100, 1000, 10000])
        fit = fit_slope(recs, "x", "error")
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)

    def test_constant_error(self):
        recs = power_law_records(3.0, 0.0, [1, 2, 4, 8])
        fit = fit_slope(recs, "x", "error")
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_skip_head(self):
        recs = ([{"x": 1, "error": 99.0}]
                + power_law_records(100.0, -1.0, [10, 20, 40, 80]))
        fit = fit_slope(recs, "x", "error", skip_head=1)
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)
        assert fit.n_points == 4

    def test_rejects_nonpositive_errors(self):
        # And the other points no log-log fit can take: an error of +inf,
        # and a usable point whose x is not positive or not finite (at an
        # end, so the x values still increase).
        for k, name, value, message in [
                (2, "error", -1e-3, "nonpositive error values"),
                (2, "error", math.inf, "infinite error values"),
                (0, "x", 0.0, "x values must be positive and finite"),
                (0, "x", -1.0, "x values must be positive and finite"),
                (0, "x", math.nan, "x values must be positive and finite"),
                (3, "x", math.inf, "x values must be positive and finite")]:
            recs = power_law_records(1.0, -1.0, [1, 2, 4, 8])
            recs[k][name] = value
            with pytest.raises(ValueError, match=message):
                fit_slope(recs, "x", "error")

    def test_rejects_missing_field(self):
        recs = power_law_records(100.0, -1.0, [10, 20, 40, 80])
        with pytest.raises(ValueError, match="no field 'y'"):
            fit_slope(recs, "y", "error")
        with pytest.raises(ValueError, match="no field 'gap'"):
            fit_slope([TraceRecord(1, t, t, 1, 1.0, 1.0) for t in range(4)],
                      "step", "gap")

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            fit_slope(power_law_records(1.0, -1.0, [1, 2, 4]), "x", "error")

    def test_clipped_points_excluded(self):
        recs = power_law_records(1.0, -1.0, [10, 20, 40, 80, 160])
        recs.append({"x": 320, "error": 1e-15})  # below the floor
        fit = fit_slope(recs, "x", "error")
        assert fit.n_clipped == 1
        assert fit.n_points == 5


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = [TraceRecord(1, 10, 10, 1, 0.5, 0.25),
                 TraceRecord(2, 40, 50, 2, 0.125, 0.0625)]
        path = tmp_path / "t.csv"
        write_trace_csv(path, "mixedgrad", 3, trace)
        rows = read_trace_csv(path)
        assert len(rows) == 2
        assert rows[0] == {"solver": "mixedgrad", "seed": 3, "epoch": 1,
                           "step": 10, "stoch_calls": 10, "full_calls": 1,
                           "objective": 0.5, "error": 0.25, "status": "ok"}
        assert rows[1]["error"] == 0.0625


class TestRunExperiment:
    @pytest.fixture()
    def instance(self):
        return gen_synthetic(5, 30, 4, 0.0, LEAST_SQUARES, 1.0)

    def test_file_layout_and_summary(self, instance, tmp_path):
        mg_cfg = MixedGradConfig(eta1=0.25 / instance.smoothness, delta1=1.0,
                                 t1=8, epochs=3, lambda1=0.1,
                                 checkpoint_stride=1000)
        gd_cfg = BaselineConfig("gd", 20, checkpoint_stride=5)
        spec = ExperimentSpec(instance, [mg_cfg, gd_cfg],
                              seeds=[0, 1, 2], out_dir=tmp_path / "out")
        manifest = run_experiment(spec)
        assert len(manifest["traces"]) == 6
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0] == "solver,seed,final_error,stoch_calls,full_calls,wall_ms"
        assert len(summary) == 7

    def test_mixedgrad_counters_in_summary(self, instance, tmp_path):
        mg_cfg = MixedGradConfig(eta1=0.1, delta1=1.0, t1=8, epochs=3,
                                 lambda1=0.1, checkpoint_stride=1000)
        spec = ExperimentSpec(instance, [mg_cfg],
                              seeds=[0], out_dir=tmp_path / "out")
        run_experiment(spec)
        import csv
        with open(tmp_path / "out" / "summary.csv") as f:
            row = list(csv.DictReader(f))[0]
        assert int(row["full_calls"]) == 3
        assert int(row["stoch_calls"]) == 8 * (4 ** 3 - 1) // 3

    def test_failed_reference_solve_makes_no_output_directory(
            self, instance, tmp_path, monkeypatch):
        def fail(instance, tolerance):
            raise ReferenceSolveError("reference solve: no certificate")

        monkeypatch.setattr(mixedgrad.bench, "compute_reference_optimum",
                            fail)
        spec = ExperimentSpec(instance, [BaselineConfig("gd", 5)], seeds=[0],
                              out_dir=tmp_path / "out" / "nested")
        with pytest.raises(ReferenceSolveError, match="no certificate"):
            run_experiment(spec)
        assert not (tmp_path / "out").exists()

    def test_rejects_empty_solver_list(self, instance, tmp_path):
        with pytest.raises(ValueError):
            ExperimentSpec(instance, [], seeds=[0], out_dir=tmp_path)

    @pytest.mark.parametrize("seeds, shown", [([0, -1], "-1"),
                                              ([0, 1.0], "1.0"),
                                              (["2"], "'2'"),
                                              ([True], "True")])
    def test_rejects_seeds_that_are_not_nonnegative_integers(
            self, seeds, shown, instance, tmp_path):
        with pytest.raises(ValueError, match=f"got {shown}$"):
            ExperimentSpec(instance, [BaselineConfig("gd", 5)], seeds=seeds,
                           out_dir=tmp_path)

    def test_rejects_repeated_seeds(self, instance, tmp_path):
        with pytest.raises(ValueError, match="repeated seed: 3$"):
            ExperimentSpec(instance, [BaselineConfig("gd", 5)],
                           seeds=[3, 0, 3], out_dir=tmp_path)

    def test_rejects_two_solvers_with_one_run_name(self, instance, tmp_path):
        # Both runs would write trace_gd_seed0.csv.
        configs = [BaselineConfig("gd", 5), BaselineConfig("nag", 5),
                   BaselineConfig("gd", 9)]
        with pytest.raises(ValueError, match="repeated solver run name: gd$"):
            ExperimentSpec(instance, configs, seeds=[0], out_dir=tmp_path)

    def test_rejects_empty_seeds(self, instance, tmp_path):
        with pytest.raises(ValueError):
            ExperimentSpec(instance, [BaselineConfig("gd", 5)],
                           seeds=[], out_dir=tmp_path)

    def test_rejects_a_solver_that_is_not_a_config(self, instance, tmp_path):
        with pytest.raises(TypeError, match="not a solver config"):
            ExperimentSpec(instance, ["gd"], seeds=[0], out_dir=tmp_path)

    @pytest.mark.parametrize("method", ["sgd", "gd", "nag"])
    def test_diverged_baseline_is_recorded(self, method, instance, tmp_path):
        # An infinite step makes the first iterate non-finite; the run must
        # end as a 'diverged' trace row, not as an exception.
        cfg = BaselineConfig(method, 10, step_scale=math.inf)
        spec = ExperimentSpec(instance, [cfg],
                              seeds=[0], out_dir=tmp_path / "out")
        manifest = run_experiment(spec)
        rows = read_trace_csv(manifest["traces"][0])
        assert [r["status"] for r in rows] == ["diverged"]
        import csv
        with open(manifest["summary"]) as f:
            row = list(csv.DictReader(f))[0]
        assert math.isnan(float(row["final_error"]))

    @staticmethod
    def summary_row(manifest):
        import csv
        with open(manifest["summary"]) as f:
            return list(csv.DictReader(f))[0]

    def test_diverged_sgd_keeps_its_counters(self, instance, tmp_path):
        cfg = BaselineConfig("sgd", 10, step_scale=math.inf)
        spec = ExperimentSpec(instance, [cfg],
                              seeds=[0], out_dir=tmp_path / "out")
        manifest = run_experiment(spec)
        row = self.summary_row(manifest)
        assert (int(row["stoch_calls"]), int(row["full_calls"])) == (1, 0)
        last = read_trace_csv(manifest["traces"][0])[-1]
        assert (last["stoch_calls"], last["full_calls"]) == (1, 0)

    def test_diverged_mixedgrad_reports_true_counts(self, instance, tmp_path):
        # An infinite first step size diverges at epoch 1, step 1, after
        # the epoch's full-gradient call and one stochastic call.
        cfg = MixedGradConfig(eta1=math.inf, delta1=1.0, t1=8, epochs=3,
                              lambda1=0.1)
        spec = ExperimentSpec(instance, [cfg],
                              seeds=[0], out_dir=tmp_path / "out")
        manifest = run_experiment(spec)
        row = self.summary_row(manifest)
        assert (int(row["stoch_calls"]), int(row["full_calls"])) == (1, 1)
        assert math.isnan(float(row["final_error"]))
        rows = read_trace_csv(manifest["traces"][0])
        assert [(r["status"], r["stoch_calls"], r["full_calls"])
                for r in rows] == [("diverged", 1, 1)]

    def test_diverged_run_keeps_reached_trace(self, instance, tmp_path,
                                              monkeypatch):
        def diverges_after_a_checkpoint(inst, config, seed, reference_value):
            counters = OracleCounters(100, 1)
            trace = [TraceRecord(1, 100, 100, 1, 0.5, 0.25)]
            counters.stochastic_calls += 7
            raise DivergenceError("non-finite iterate", counters, trace)

        monkeypatch.setattr(mixedgrad.bench, "run_mixedgrad",
                            diverges_after_a_checkpoint)
        cfg = MixedGradConfig(eta1=0.1, delta1=1.0, t1=8, epochs=3,
                              lambda1=0.1)
        spec = ExperimentSpec(instance, [cfg],
                              seeds=[0], out_dir=tmp_path / "out")
        manifest = run_experiment(spec)
        rows = read_trace_csv(manifest["traces"][0])
        assert [(r["status"], r["step"], r["stoch_calls"]) for r in rows] \
            == [("ok", 100, 100), ("diverged", 0, 107)]
        row = self.summary_row(manifest)
        assert (int(row["stoch_calls"]), int(row["full_calls"])) == (107, 1)

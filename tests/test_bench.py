import math

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

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 0, 3, 0.0, LEAST_SQUARES, 1.0)


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

    def test_iteration_cap_reported(self):
        inst = gen_synthetic(0, 10, 3, 0.0, LEAST_SQUARES, 1.0)
        with pytest.raises(ReferenceSolveError):
            compute_reference_optimum(inst, 1e-12, max_iterations=3)

    def test_rejects_nonpositive_iteration_cap(self):
        inst = gen_synthetic(0, 10, 3, 0.0, LEAST_SQUARES, 1.0)
        with pytest.raises(ValueError, match="max_iterations"):
            compute_reference_optimum(inst, 1e-10, max_iterations=0)


def reference_solve(inst, tolerance):
    """The reference solve written plainly: Nesterov's accelerated
    projected gradient until the projected-gradient residual is below
    tolerance. Returns (point, value, iterations)."""
    R = inst.domain_radius
    eta = 1.0 / inst.smoothness
    w = np.zeros(inst.d)
    w_prev = w.copy()
    theta_prev = 1.0
    for k in range(1, 10 ** 6 + 1):
        theta = (1.0 + math.sqrt(1.0 + 4.0 * theta_prev * theta_prev)) / 2.0
        y = w + ((theta_prev - 1.0) / theta) * (w - w_prev)
        w_prev, w = w, project_ball(y - eta * mean_gradient(inst, y), R)
        theta_prev = theta
        residual = float(np.linalg.norm(
            w - project_ball(w - eta * mean_gradient(inst, w), R)))
        if residual < tolerance:
            return w, full_objective(inst, w), k
    raise AssertionError("reference solve did not converge")


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
        recs = power_law_records(1.0, -1.0, [1, 2, 4, 8])
        recs[2]["error"] = -1e-3
        with pytest.raises(ValueError):
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

    def test_rejects_empty_solver_list(self, instance, tmp_path):
        with pytest.raises(ValueError):
            ExperimentSpec(instance, [], seeds=[0], out_dir=tmp_path)

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

import csv
import errno
import math
import os
import warnings

import numpy as np
import pytest

import mixedgrad.bench
import mixedgrad.cli
from mixedgrad.bench import (compute_reference_optimum, gen_synthetic,
                             write_trace_csv)
from mixedgrad.cli import main
from mixedgrad.core import CertificateError, TraceRecord, run, theory_params
from mixedgrad.losses import (LEAST_SQUARES, LOGISTIC, Dataset,
                              load_dataset_csv, save_dataset_csv)


@pytest.fixture
def built_specs(monkeypatch):
    """The ExperimentSpecs bench run builds; nothing is run or written."""
    specs = []

    def capture(spec):
        specs.append(spec)
        return {"reference_value": 0.0, "traces": [], "summary": ""}

    monkeypatch.setattr(mixedgrad.cli, "run_experiment", capture)
    return specs


def test_gen_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "data.csv"
    rc = main(["gen", "--seed", "3", "--n", "12", "--d", "4", "--noise",
               "0.1", "--loss", "ls", "--radius", "1.0", "--out", str(out)])
    assert rc == 0
    ds = load_dataset_csv(out)
    assert ds.n == 12 and ds.d == 4


def test_run_and_fit_end_to_end(tmp_path, capsys):
    out = tmp_path / "results"
    rc = main(["run", "--seed", "0", "--seed", "1",
               "--solver", "mixedgrad:t1=8,epochs=3",
               "--solver", "gd:iterations=20,checkpoint_stride=4",
               "--n", "30", "--d", "4", "--loss", "ls",
               "--out", str(out)])
    assert rc == 0
    traces = sorted(out.glob("trace_*.csv"))
    assert len(traces) == 4
    with open(out / "summary.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    mg_rows = [r for r in rows if r["solver"] == "mixedgrad"]
    assert all(int(r["full_calls"]) == 3 for r in mg_rows)

    gd_trace = out / "trace_gd_seed0.csv"
    rc = main(["fit", "--trace", str(gd_trace), "--x-field", "full_calls",
               "--error-field", "error"])
    assert rc == 0
    assert "slope=" in capsys.readouterr().out


def test_fit_takes_a_mixedgrad_trace_whose_stride_divides_each_epoch(
        tmp_path, capsys):
    # Stride 8 divides every epoch (8, 32, 128, 512 steps), so a checkpoint
    # falls on each epoch's last step, where the epoch-end record has the
    # same counters; bench fit needs strictly increasing stoch_calls.
    out = tmp_path / "results"
    rc = main(["run", "--seed", "0", "--epochs", "4",
               "--solver", "mixedgrad:t1=8,checkpoint_stride=8",
               "--n", "30", "--d", "4", "--loss", "ls", "--out", str(out)])
    assert rc == 0
    rc = main(["fit", "--trace", str(out / "trace_mixedgrad_seed0.csv"),
               "--skip-head", "1"])
    assert rc == 0
    assert "slope=" in capsys.readouterr().out


def test_run_from_csv_dataset(tmp_path):
    data = tmp_path / "data.csv"
    main(["gen", "--seed", "4", "--n", "20", "--d", "3", "--out", str(data)])
    out = tmp_path / "results"
    rc = main(["run", "--csv", str(data), "--solver", "nag:iterations=15,checkpoint_stride=3",
               "--out", str(out)])
    assert rc == 0
    assert (out / "trace_nag_seed0.csv").exists()


@pytest.mark.parametrize("spec", ["mixedgrad-theory:failure_prob=0.01",
                                  "mixedgrad-theory"])
def test_theory_spec_config(spec, tmp_path):
    # Without failure_prob, mixedgrad-theory takes delta = 0.01.
    out = tmp_path / "results"
    rc = main(["run", "--solver", spec, "--epochs", "2", "--n", "10",
               "--d", "2", "--out", str(out)])
    assert rc == 0
    with open(out / "summary.csv") as f:
        rows = list(csv.DictReader(f))
    # T1 = ceil(300 ln(2/0.01)) = 1590; total = T1 * (1 + 4)
    assert int(rows[0]["stoch_calls"]) == 1590 * 5
    assert int(rows[0]["full_calls"]) == 2


def test_unknown_solver_option_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", "gd:iters=5", "--n", "10", "--d", "2",
              "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'iters'" in err
    assert "accepted: iterations, step_scale, checkpoint_stride" in err


@pytest.mark.parametrize("spec, option, accepted", [
    ("mixedgrad:gamma=3", "gamma",
     "eta1, delta1, t1, epochs, lambda1, checkpoint_stride"),
    ("sgd:step_rule=constant", "step_rule",
     "iterations, step_scale, checkpoint_stride"),
    ("sgd:averaging=false", "averaging",
     "iterations, step_scale, checkpoint_stride")])
def test_removed_solver_options_are_rejected(spec, option, accepted,
                                             tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", spec, "--epochs", "1", "--n", "10",
              "--d", "2", "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"has no option {option!r}; accepted: {accepted}" in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("flags", [["--gamma", "3"], ["--t1", "8"],
                                   ["--theory-mode"], ["--delta", "0.01"]],
                         ids=["gamma", "t1", "theory-mode", "delta"])
def test_gamma_flag_is_rejected(flags, tmp_path, capsys):
    # gamma is fixed; t1, theory mode and its failure probability are
    # --solver mixedgrad and mixedgrad-theory keys.
    with pytest.raises(SystemExit) as exc:
        main(["run", *flags, "--epochs", "1", "--n", "10",
              "--d", "2", "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" \
        in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("spec, field", [("mixedgrad:eta1=abc", "eta1"),
                                         ("mixedgrad:lambda1=true", "lambda1"),
                                         ("sgd:step_scale=abc", "step_scale")])
def test_non_numeric_solver_value_is_an_argparse_error(spec, field, tmp_path,
                                                       capsys):
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", spec, "--epochs", "1", "--n", "10",
              "--d", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert f"{field} must be a positive real number, got " \
        in capsys.readouterr().err
    assert not out.exists()


def test_failed_reference_solve_is_an_argparse_error(tmp_path, capsys,
                                                     monkeypatch):
    # The real solve at --ref-tol 1e-300 runs 10^6 iterations before it
    # gives up; a stub fails at once, as the solve would.
    def fail(instance, tolerance):
        raise CertificateError(
            f"residual did not fall below {tolerance}")

    monkeypatch.setattr(mixedgrad.bench, "compute_reference_optimum", fail)
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--ref-tol", "1e-300", "--epochs", "1", "--n", "10",
              "--d", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert ("bench run: error: --ref-tol 1e-300: reference solve: residual "
            "did not fall below 1e-300") in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_reference_solve_is_an_argparse_error(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(mixedgrad.bench, "mean_gradient",
                        lambda instance, w: w * math.nan)
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--epochs", "1", "--n", "10", "--d", "2",
              "--out", str(out)])
    assert exc.value.code == 2
    assert ("bench run: error: --ref-tol 1e-10: reference solve: non-finite "
            "iterate at step 1") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["mixedgrad:t1=0", "nag:iterations=0",
                                  "sgd:iterations=abc", "lbfgs"])
def test_malformed_solver_spec_is_an_argparse_error(spec, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", spec, "--n", "10", "--d", "2",
              "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    assert f"--solver {spec!r}" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("mixedgrad:t1=8.0,epochs=2", "t1 must be an integer >= 1, got 8.0"),
    ("mixedgrad:epochs=2.0", "epochs must be an integer >= 1, got 2.0"),
    ("mixedgrad-theory:epochs=abc",
     "epochs must be an integer >= 1, got 'abc'"),
    ("mixedgrad-theory:epochs=0", "epochs must be an integer >= 1, got 0"),
    ("mixedgrad:checkpoint_stride=true",
     "checkpoint_stride must be an integer >= 1, got 'true'"),
    ("sgd:iterations=100.0", "iterations must be an integer >= 1, got 100.0"),
    ("sgd:iterations=100,checkpoint_stride=1.5",
     "checkpoint_stride must be an integer >= 1, got 1.5"),
])
def test_non_integer_solver_count_is_an_argparse_error(spec, message,
                                                       tmp_path, capsys):
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", spec, "--n", "20", "--d", "3",
              "--out", str(out)])
    assert exc.value.code == 2
    assert f"--solver {spec!r}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_theory_spec_rejects_the_options_it_derives(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", "mixedgrad-theory:t1=8,epochs=1,eta1=5",
              "--n", "10", "--d", "2", "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert ("solver 'mixedgrad-theory' has no option 't1'; accepted: "
            "epochs, failure_prob\n") in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("spec, shown", [
    ("mixedgrad-theory:failure_prob=abc", "'abc'"),
    ("mixedgrad-theory:failure_prob=0.1", "0.1"),
    ("mixedgrad-theory:failure_prob=0", "0"),
    ("mixedgrad-theory:failure_prob=nan", "nan")])
def test_bad_failure_prob_is_an_argparse_error(spec, shown, tmp_path,
                                               capsys):
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", spec, "--n", "10", "--d", "2", "--out",
              str(out)])
    assert exc.value.code == 2
    assert (f"--solver {spec!r}: failure_prob must be a real number in "
            f"(0, e^-4.5 ~ 0.01111], got {shown}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["mixedgrad-theory", "mixedgrad"])
def test_zero_epochs_flag_is_an_argparse_error(spec, tmp_path, capsys):
    # Both recipes report it alike.
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", spec, "--epochs", "0", "--n", "10",
              "--d", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert f"--solver {spec!r}: epochs must be an integer >= 1, got 0" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec, calls", [("mixedgrad", 32 + 128),
                                         ("mixedgrad:t1=16", 16 + 64)])
def test_t1_default_and_spec_key(spec, calls, tmp_path):
    # Default T1 = 32, and gamma is 2; two epochs spend T1 (1 + 4).
    out = tmp_path / "results"
    rc = main(["run", "--solver", spec, "--epochs", "2",
               "--n", "10", "--d", "2", "--out", str(out)])
    assert rc == 0
    with open(out / "summary.csv") as f:
        rows = list(csv.DictReader(f))
    assert int(rows[0]["stoch_calls"]) == calls


def test_default_eta1_is_theory_params_formula_to_the_bit(tmp_path,
                                                          built_specs):
    # eta1 = 1/(2 beta sqrt(3 t1)) with math.sqrt, as in
    # core.theory_params. At t1 = 2609 and beta = 2 (least squares, one
    # row of norm 1), (3 t1) ** 0.5 gives 0.002825805992426818 instead.
    data = tmp_path / "data.csv"
    data.write_text("y,x1\n1.0,1.0\n")
    rc = main(["run", "--csv", str(data), "--solver", "mixedgrad:t1=2609",
               "--out", str(tmp_path / "results")])
    assert rc == 0
    assert built_specs[0].instance.smoothness == 2.0
    assert built_specs[0].solvers[0].eta1 == 0.0028258059924268176


@pytest.mark.parametrize("t1, shown", [("0", "0"), ("-4", "-4"),
                                       ("abc", "'abc'"), ("2.5", "2.5")])
def test_bad_t1_is_an_argparse_error(t1, shown, tmp_path, capsys):
    # eta1 is derived from t1, so t1 is checked before it is used.
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", f"mixedgrad:t1={t1}", "--n", "10", "--d",
              "2", "--out", str(out)])
    assert exc.value.code == 2
    assert f"t1 must be an integer >= 1, got {shown}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_theory_spec_takes_epochs_from_its_key(tmp_path):
    out = tmp_path / "results"
    rc = main(["run", "--solver", "mixedgrad-theory:epochs=1", "--epochs",
               "3", "--n", "10", "--d", "2", "--out", str(out)])
    assert rc == 0
    with open(out / "summary.csv") as f:
        rows = list(csv.DictReader(f))
    # T1 = ceil(300 ln(1/0.01)) = 1382, one epoch
    assert (int(rows[0]["stoch_calls"]), int(rows[0]["full_calls"])) \
        == (1382, 1)


@pytest.mark.parametrize("spec, failure_prob, epochs", [
    ("mixedgrad-theory", 0.01, 4),
    ("mixedgrad-theory:epochs=2", 0.01, 2),
    ("mixedgrad-theory:epochs=2,failure_prob=0.005", 0.005, 2)])
def test_theory_spec_builds_theory_params(spec, failure_prob, epochs,
                                          tmp_path, built_specs):
    rc = main(["run", "--solver", spec, "--epochs", "4", "--n", "10",
               "--d", "2", "--out", str(tmp_path / "results")])
    assert rc == 0
    instance = built_specs[0].instance
    assert built_specs[0].solvers == [theory_params(
        instance.smoothness, instance.domain_radius, failure_prob, epochs)]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP "
                   "item 1: the practical recipe's halving Delta_k-ball "
                   "leaves the optimum out of reach after epoch 2")
def test_default_mixedgrad_keeps_the_optimum_within_reach(tmp_path,
                                                          built_specs):
    # After epoch k the anchor can move by at most sum_{j>k} Delta_j =
    # Delta_k more, so a negative margin Delta_k - ||anchor_after - w_ref||
    # means no further epoch reaches w_ref. On this instance the margins
    # are +0.234, -0.242, -0.452, -0.508, -0.516 and -0.518.
    rc = main(["run", "--n", "200", "--d", "20", "--noise", "0.5",
               "--seed", "0", "--epochs", "6", "--solver", "mixedgrad",
               "--out", str(tmp_path / "results")])
    assert rc == 0
    (spec,) = built_specs
    w_ref, _ = compute_reference_optimum(spec.instance, 1e-10)
    result = run(spec.instance, spec.solvers[0], seed=0)
    margins = [s.delta - np.linalg.norm(s.anchor_after - w_ref)
               for s in result.epoch_summaries]
    assert len(margins) == 6
    assert all(margin >= 0 for margin in margins), margins


@pytest.mark.parametrize("command, flags, message", [
    ("gen", ["--n", "0"], "n and d must be >= 1"),
    ("gen", ["--radius", "-1"], "domain_radius must be positive"),
    ("run", ["--n", "0"], "n and d must be >= 1"),
    ("run", ["--radius", "-1"], "domain_radius must be positive"),
    ("run", ["--ref-tol", "1"], "reference tolerance must lie in"),
    ("gen", ["--radius", "nan"],
     "domain_radius must be positive and finite, got nan"),
    ("run", ["--radius", "inf"],
     "domain_radius must be positive and finite, got inf"),
    ("run", ["--noise", "nan"],
     "noise_sd must be nonnegative and finite, got nan"),
])
def test_bad_instance_flags_are_an_argparse_error(command, flags, message,
                                                  tmp_path, capsys):
    out = tmp_path / ("data.csv" if command == "gen" else "results")
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "10", "--d", "2", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert f"bench {command}: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    ("", "is empty"),
    ("y,x1,x2\n1.0,0.5,0.25\n2.0,0.5\n", "data row 2 has 2 fields, expected 3"),
    ("y,x1\n1.0,0.5,0.25\n", "data row 1 has 3 fields, expected 2"),
    ("y,x1,x2\n1.0,0.5,0.25\n2.0,abc,0.5\n",
     "data row 2: could not convert string to float: 'abc'"),
    ("y,x1,x2\n", "has no data rows"),
    ("y,x1,x2\n1.0,0.5,0.25\n2.0,nan,0.5\n",
     "data row 2: entry 'nan' is not finite"),
    ("\ny,x1\n1.0,0.5\n", "is not a dataset CSV: its header must be "
     "y,x1,...,xd"),
    ("y\n1.0\n2.0\n", "is not a dataset CSV: its header must be "
     "y,x1,...,xd"),
])
def test_bad_csv_is_an_argparse_error(content, message, tmp_path, capsys):
    data = tmp_path / "data.csv"
    if content is not None:
        data.write_text(content)
        with pytest.raises(ValueError, match=message):
            load_dataset_csv(data)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--csv", str(data), "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and str(data) in err
    assert not (tmp_path / "results").exists()


def test_non_finite_radius_with_a_csv_is_an_argparse_error(tmp_path,
                                                           capsys):
    # An infinite R would leave mixedgrad unconstrained and SGD's default
    # step R sqrt(n) / beta infinite.
    data = tmp_path / "data.csv"
    assert main(["gen", "--n", "10", "--d", "2", "--out", str(data)]) == 0
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--csv", str(data), "--radius", "inf", "--solver",
              "mixedgrad", "--solver", "sgd:iterations=50", "--out",
              str(out)])
    assert exc.value.code == 2
    assert ("bench run: error: domain_radius must be positive and finite, "
            "got inf" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("solver", ["mixedgrad", "sgd", "gd"])
def test_csv_row_whose_norm_overflows_is_an_argparse_error(solver, tmp_path,
                                                           capsys):
    # ||x_1||^2 = 1e400 overflows. The row is named up front: no numpy
    # overflow warning, no misleading eta1 error or DivergenceError later.
    data = tmp_path / "data.csv"
    data.write_text("y,x1,x2\n1.0,1.0,0.0\n-1.0,1e200,0.5\n1.0,0.3,0.2\n")
    out = tmp_path / "results"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--csv", str(data), "--solver", solver, "--out",
                  str(out)])
    assert exc.value.code == 2
    assert ("bench run: error: example 1: its squared feature norm "
            "||x_i||^2 overflows to inf" in capsys.readouterr().err)
    assert not out.exists()


def test_csv_with_a_bad_logistic_label_is_an_argparse_error(tmp_path,
                                                            capsys):
    # A least-squares dataset read as logistic: the error names the first
    # label that is not +-1, its example and the file.
    data = tmp_path / "data.csv"
    data.write_text("y,x1,x2\n1.0,1.0,0.0\n-1.0,0.3,0.5\n0.25,0.3,0.2\n")
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--csv", str(data), "--loss", "logistic", "--out",
              str(out)])
    assert exc.value.code == 2
    assert (f"bench run: error: example 2: logistic label 0.25 is not "
            f"exactly -1 or +1 (dataset CSV {data})"
            in capsys.readouterr().err)
    assert not out.exists()


FOUND_CSV = "y,x1,x2\n" + "1.0,5e153,0.0\n-1.0,5e153,0.0\n" * 5


def test_feature_scale_sweep_ends_in_a_finite_solve_or_a_named_error(
        tmp_path, capsys):
    # Feature scales from 1e-300 to 1e300, around the largest one whose
    # sums stay finite, and ten rows (+-1, 5e153, 0.0), for both losses
    # and every solver. Each case solves to a finite error or is an
    # argparse error that names the feature scale, with no numpy warning.
    scales = [10.0 ** k for k in range(-300, 301, 50)] + [1e153, 3e153,
                                                          5e153]
    solvers = ["mixedgrad:t1=8", "sgd:iterations=20", "gd:iterations=20",
               "nag:iterations=20"]
    outcomes = {"solved": 0, "rejected": 0}
    for loss, kind in [("ls", LEAST_SQUARES), ("logistic", LOGISTIC)]:
        base = gen_synthetic(0, 10, 3, 0.0, kind, 1.0).dataset
        for k, scale in enumerate([*scales, None]):
            data = tmp_path / f"{loss}{k}.csv"
            if scale is None:
                data.write_text(FOUND_CSV)
            else:
                save_dataset_csv(Dataset(base.features * scale, base.labels),
                                 data)
            for spec in solvers:
                out = tmp_path / f"{loss}{k}-{spec.partition(':')[0]}"
                case = f"{loss} scale {scale} {spec}"
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        main(["run", "--csv", str(data), "--loss", loss,
                              "--solver", spec, "--epochs", "1", "--out",
                              str(out)])
                    except SystemExit as exc:
                        err = capsys.readouterr().err
                        assert exc.code == 2, case
                        assert "beta" in err or "||x_i||^2" in err, case
                        assert not out.exists(), case
                        outcomes["rejected"] += 1
                        continue
                capsys.readouterr()
                with open(out / "summary.csv") as f:
                    (row,) = csv.DictReader(f)
                assert math.isfinite(float(row["final_error"])), case
                outcomes["solved"] += 1
    assert min(outcomes.values()) > 0


def test_default_step_that_underflows_names_beta(tmp_path, capsys):
    # beta = 2e300 is fine, but 1 / (2 beta sqrt(3 t1)) is 0 at this t1.
    data = tmp_path / "data.csv"
    data.write_text("y,x1,x2\n1.0,1e150,0.0\n-1.0,0.0,1e150\n")
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--csv", str(data), "--solver",
              f"mixedgrad:t1={10 ** 16}", "--out", str(out)])
    assert exc.value.code == 2
    assert ("the default eta1 = 1/(2 beta sqrt(3 t1)) is 0 at beta = 2e+300"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("points", [0, 3])
def test_fit_on_too_short_a_trace_is_an_argparse_error(points, tmp_path,
                                                        capsys):
    path = tmp_path / "trace.csv"
    trace = [TraceRecord(1, t, 10 * t, 1, 1.0, 1.0 / t)
             for t in range(1, points + 1)]
    write_trace_csv(path, "gd", 0, trace)
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--trace", str(path)])
    assert exc.value.code == 2
    assert (f"bench fit: error: need >= 4 usable points, got {points}"
            in capsys.readouterr().err)


def test_fit_on_a_missing_trace_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--trace", str(tmp_path / "missing.csv")])
    assert exc.value.code == 2
    assert "No such file" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--x-field", "nosuch"], "records have no field 'nosuch'"),
    (["--error-field", "nosuch"], "records have no field 'nosuch'"),
    (["--skip-head", "-6"], "skip_head must be >= 0"),
])
def test_bad_fit_flags_are_an_argparse_error(flags, message, tmp_path,
                                             capsys):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, "gd", 0, [TraceRecord(1, t, 10 * t, 1, 1.0, 1.0 / t)
                                    for t in range(1, 9)])
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--trace", str(path), *flags])
    assert exc.value.code == 2
    assert f"bench fit: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda row: row.rsplit(",", 1)[0], "data row 2 has 8 fields, expected 9"),
    (lambda row: row + ",extra", "data row 2 has 10 fields, expected 9"),
    (lambda row: row.replace(",0,", ",zero,", 1),
     "data row 2: invalid literal for int() with base 10: 'zero'"),
], ids=["short", "long", "non-integer"])
def test_fit_on_a_malformed_trace_row_is_an_argparse_error(edit, message,
                                                           tmp_path, capsys):
    # Data row 2 loses its status field, gains a tenth field, or has a
    # seed that is not an integer.
    path = tmp_path / "trace.csv"
    write_trace_csv(path, "gd", 0, [TraceRecord(1, t, 10 * t, 1, 1.0, 1.0 / t)
                                    for t in range(1, 9)])
    lines = path.read_text().splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--trace", str(path)])
    assert exc.value.code == 2
    assert (f"bench fit: error: trace CSV {path}: {message}"
            in capsys.readouterr().err)


def test_fit_on_a_csv_without_the_trace_header_is_an_argparse_error(
        tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["gen", "--n", "10", "--d", "2", "--out", str(data)])
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--trace", str(data)])
    assert exc.value.code == 2
    assert "is not a trace CSV" in capsys.readouterr().err


@pytest.mark.parametrize("below", [(), ("results",)])
def test_run_out_naming_an_existing_file_is_an_argparse_error(below,
                                                               tmp_path,
                                                               capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--n", "10", "--d", "2",
              "--out", str(afile.joinpath(*below))])
    assert exc.value.code == 2
    assert f"{afile} is an existing file" in capsys.readouterr().err
    assert afile.read_text() == ""


@pytest.mark.parametrize("below, message", [((), "Is a directory"),
                                            (("nodir", "x.csv"),
                                             "No such file or directory")])
def test_gen_out_naming_no_writable_file_is_an_argparse_error(
        below, message, tmp_path, capsys):
    out = tmp_path.joinpath(*below)
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "10", "--d", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert (f"bench gen: error: --out {out}: {message}"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_run_out_with_a_too_long_name_is_an_argparse_error(tmp_path,
                                                           capsys):
    out = tmp_path / ("x" * 300) / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--epochs", "1", "--n", "10", "--d", "2",
              "--out", str(out)])
    assert exc.value.code == 2
    assert (f"bench run: error: --out {out}: File name too long"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def test_run_that_cannot_write_its_output_is_an_argparse_error(
        tmp_path, capsys, monkeypatch):
    # An OSError while the experiment writes, here a full disk.
    def full_disk(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(mixedgrad.bench, "_write_csv", full_disk)
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--epochs", "1", "--n", "10", "--d", "2",
              "--solver", "gd:iterations=5", "--out", str(out)])
    assert exc.value.code == 2
    assert (f"bench run: error: --out {out}: {os.strerror(errno.ENOSPC)}"
            in capsys.readouterr().err)


def test_seed_order_does_not_change_the_run(tmp_path, capsys):
    # The synthetic instance is that of the smallest seed, whatever the
    # order of the --seed flags: both orders print seed 0's reference line
    # and write the same summary rows (but for wall time) and traces.
    def bench_run(*seeds):
        out = tmp_path.joinpath(*seeds)
        flags = [flag for seed in seeds for flag in ("--seed", seed)]
        assert main(["run", *flags, "--n", "30", "--d", "4", "--epochs", "2",
                     "--solver", "mixedgrad:t1=4", "--out", str(out)]) == 0
        reference = capsys.readouterr().out.splitlines()[0]
        rows = {}
        with open(out / "summary.csv") as f:
            for r in csv.DictReader(f):
                del r["wall_ms"]
                rows[r["solver"], r["seed"]] = r
        traces = {p.name: p.read_bytes() for p in out.glob("trace_*.csv")}
        return reference, rows, traces

    ascending, descending = bench_run("0", "1"), bench_run("1", "0")
    assert ascending == descending
    assert len(ascending[2]) == 2
    assert ascending[0] == bench_run("0")[0]


@pytest.mark.parametrize("seeds", [["0", "-1"], ["-1"]])
def test_negative_seed_is_an_argparse_error(seeds, tmp_path, capsys):
    flags = [flag for seed in seeds for flag in ("--seed", seed)]
    with pytest.raises(SystemExit) as exc:
        main(["run", "--n", "10", "--d", "2", *flags,
              "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    assert ("bench run: error: seeds must be nonnegative integers, got -1"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--seed", "0", "--seed", "0"], "repeated seed: 0"),
    (["--solver", "gd:iterations=5", "--solver", "gd:iterations=9"],
     "repeated solver run name: gd"),
    (["--solver", "mixedgrad", "--solver", "mixedgrad-theory"],
     "repeated solver run name: mixedgrad"),
    (["--solver", "gd:iterations=5,iterations=7"],
     "--solver 'gd:iterations=5,iterations=7': repeated option "
     "'iterations'"),
])
def test_duplicate_runs_are_an_argparse_error(flags, message, tmp_path,
                                              capsys):
    # Either pair of runs would write one trace file twice; a repeated
    # option would keep only its last value.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--n", "10", "--d", "2", *flags,
              "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    assert f"bench run: error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []

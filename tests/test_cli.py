import csv

import numpy as np
import pytest

from mixedgrad.bench import write_trace_csv
from mixedgrad.cli import main
from mixedgrad.core import TraceRecord
from mixedgrad.losses import load_dataset_csv


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


def test_run_from_csv_dataset(tmp_path):
    data = tmp_path / "data.csv"
    main(["gen", "--seed", "4", "--n", "20", "--d", "3", "--out", str(data)])
    out = tmp_path / "results"
    rc = main(["run", "--csv", str(data), "--solver", "nag:iterations=15,checkpoint_stride=3",
               "--out", str(out)])
    assert rc == 0
    assert (out / "trace_nag_seed0.csv").exists()


def test_theory_mode_config(tmp_path):
    out = tmp_path / "results"
    rc = main(["run", "--solver", "mixedgrad", "--theory-mode",
               "--delta", "0.01", "--epochs", "2", "--n", "10", "--d", "2",
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "summary.csv")))
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
    assert "accepted: iterations, step_rule, step_scale" in err


@pytest.mark.parametrize("spec", ["mixedgrad:t1=0", "nag:iterations=0",
                                  "sgd:iterations=abc", "lbfgs"])
def test_malformed_solver_spec_is_an_argparse_error(spec, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", spec, "--n", "10", "--d", "2",
              "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    assert f"--solver {spec!r}" in capsys.readouterr().err


def test_theory_mode_rejects_options_it_would_ignore(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", "mixedgrad:t1=8,epochs=1,eta1=5",
              "--theory-mode", "--delta", "0.01", "--n", "10", "--d", "2",
              "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "would ignore: t1, eta1" in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("flags", [["--t1", "8"], ["--gamma", "3"],
                                   ["--t1", "8", "--gamma", "3"]])
def test_theory_mode_rejects_t1_and_gamma_flags(flags, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--solver", "mixedgrad", "--theory-mode", *flags,
              "--epochs", "1", "--delta", "0.01", "--n", "10", "--d", "2",
              "--out", str(tmp_path / "results")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "it would ignore: " + ", ".join(flags[::2]) in err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("flags, calls", [([], 32 + 128),
                                          (["--t1", "8", "--gamma", "3"],
                                           8 + 72)])
def test_t1_and_gamma_flags_without_theory_mode(flags, calls, tmp_path):
    # Defaults T1 = 32 and gamma = 2; two epochs spend T1 (1 + gamma^2).
    out = tmp_path / "results"
    rc = main(["run", "--solver", "mixedgrad", *flags, "--epochs", "2",
               "--n", "10", "--d", "2", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "summary.csv")))
    assert int(rows[0]["stoch_calls"]) == calls


def test_theory_mode_takes_epochs_from_the_solver_spec(tmp_path):
    out = tmp_path / "results"
    rc = main(["run", "--solver", "mixedgrad:epochs=1", "--theory-mode",
               "--delta", "0.01", "--epochs", "3", "--n", "10", "--d", "2",
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out / "summary.csv")))
    # T1 = ceil(300 ln(1/0.01)) = 1382, one epoch
    assert (int(rows[0]["stoch_calls"]), int(rows[0]["full_calls"])) \
        == (1382, 1)


@pytest.mark.parametrize("command, flags, message", [
    ("gen", ["--n", "0"], "n and d must be >= 1"),
    ("gen", ["--radius", "-1"], "domain_radius must be positive"),
    ("run", ["--n", "0"], "n and d must be >= 1"),
    ("run", ["--radius", "-1"], "domain_radius must be positive"),
    ("run", ["--ref-tol", "1"], "reference tolerance must lie in"),
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
    assert message in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


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

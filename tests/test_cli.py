import csv

import numpy as np
import pytest

from mixedgrad.cli import main
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

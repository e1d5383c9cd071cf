"""Command-line harness.

    bench gen  --seed 0 --n 200 --d 20 --noise 0 --loss ls --radius 1 --out data.csv
    bench run  --seed 0 --seed 1 --solver mixedgrad:epochs=7,t1=32 --solver gd:iterations=200 \
               --n 200 --d 20 --loss ls --radius 1 --out results/
    bench run  --solver mixedgrad-theory:epochs=4,failure_prob=0.01 --out theory/
    bench fit  --trace results/trace_mixedgrad_seed0.csv --x-field stoch_calls --skip-head 1

Every solver option is a key of its --solver spec. `mixedgrad` is the
practical recipe: t1 defaults to DEFAULT_T1, eta1 to 1/(2 beta sqrt(3 t1)),
delta1 to the domain radius and lambda1 to beta. `mixedgrad-theory` is the
high-probability recipe core.theory_params; it takes only epochs and
failure_prob (default DEFAULT_FAILURE_PROB). Both take epochs from --epochs
by default and name their runs `mixedgrad`.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import baselines
from .bench import (ExperimentSpec, ReferenceSolveError, SolverConfig,
                    fit_slope, gen_synthetic, read_trace_csv, run_experiment)
from .core import MixedGradConfig, _check_count, theory_params
from .losses import (LEAST_SQUARES, LOGISTIC, ProblemInstance,
                     load_dataset_csv, save_dataset_csv)

LOSS_NAMES = {"ls": LEAST_SQUARES, "logistic": LOGISTIC}
DEFAULT_T1 = 32
DEFAULT_FAILURE_PROB = 0.01
_BASELINE_OPTIONS = tuple(f.name for f in dataclasses.fields(
    baselines.BaselineConfig) if f.name != "method")
# The keys each --solver name accepts.
SOLVER_OPTIONS = {
    "mixedgrad": tuple(f.name for f in dataclasses.fields(MixedGradConfig)),
    "mixedgrad-theory": ("epochs", "failure_prob"),
    **dict.fromkeys(baselines.METHODS, _BASELINE_OPTIONS),
}


def _parse_kv(text: str) -> dict:
    out = {}
    if not text:
        return out
    for part in text.split(","):
        key, _, val = map(str.strip, part.partition("="))
        if key in out:
            raise ValueError(f"repeated option {key!r}")
        try:
            out[key] = int(val)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


def _build_solver(spec_text: str, epochs: int, instance) -> SolverConfig:
    """Raises ArithmeticError, TypeError or ValueError on a bad spec."""
    name, _, kv_text = spec_text.partition(":")
    kv = _parse_kv(kv_text)
    if name not in SOLVER_OPTIONS:
        raise ValueError(f"unknown solver {name!r}; accepted: "
                         f"{', '.join(SOLVER_OPTIONS)}")
    for key in kv:
        if key not in SOLVER_OPTIONS[name]:
            raise ValueError(f"solver {name!r} has no option {key!r}; "
                             f"accepted: {', '.join(SOLVER_OPTIONS[name])}")
    beta = instance.smoothness
    if name == "mixedgrad-theory":
        return theory_params(beta, instance.domain_radius,
                             kv.get("failure_prob", DEFAULT_FAILURE_PROB),
                             kv.get("epochs", epochs))
    if name == "mixedgrad":
        t1 = kv.get("t1", DEFAULT_T1)
        # eta1 is derived from t1, so t1 is checked first.
        _check_count("t1", t1)
        eta1 = 1.0 / (2.0 * beta * math.sqrt(3.0 * t1))
        if not eta1 > 0 and "eta1" not in kv:
            raise ValueError(f"the default eta1 = 1/(2 beta sqrt(3 t1)) is "
                             f"0 at beta = {beta:g}, t1 = {t1}; rescale the "
                             f"features or set eta1")
        return MixedGradConfig(**{
            "eta1": eta1, "delta1": instance.domain_radius, "t1": t1,
            "epochs": epochs, "lambda1": beta, **kv})
    return baselines.BaselineConfig(**{"method": name, "iterations": 1000,
                                       **kv})


def _instance_from_args(args, parser) -> ProblemInstance:
    """Bad instance flags or an unreadable --csv file are a parser error."""
    loss_kind = LOSS_NAMES[args.loss]
    try:
        if getattr(args, "csv", None):
            dataset = load_dataset_csv(args.csv)
            try:
                return ProblemInstance(dataset, loss_kind, args.radius)
            except ValueError as exc:
                raise ValueError(f"{exc} (dataset CSV {args.csv})") from None
        seed = args.seed[0] if isinstance(args.seed, list) else args.seed
        return gen_synthetic(seed, args.n, args.d, args.noise, loss_kind,
                             args.radius)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))


def _add_instance_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--d", type=int, default=20)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--loss", choices=sorted(LOSS_NAMES), default="ls")
    p.add_argument("--radius", type=float, default=1.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench",
                                     description="Optimization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p_gen.add_argument("--seed", type=int, default=0)
    _add_instance_flags(p_gen)
    p_gen.add_argument("--out", type=Path, required=True)

    p_run = sub.add_parser("run", help="run solvers and emit trace CSVs")
    p_run.add_argument("--seed", type=int, action="append", default=None,
                       help="run seed; repeat for multiple seeds")
    _add_instance_flags(p_run)
    p_run.add_argument("--csv", type=Path, default=None,
                       help="load the dataset from CSV instead of generating")
    p_run.add_argument("--solver", action="append", default=None, metavar
                       ="NAME[:key=val,...]", help="solver spec; repeatable; "
                       f"NAME is one of {', '.join(SOLVER_OPTIONS)}")
    p_run.add_argument("--epochs", type=int, default=7,
                       help="epochs of both mixedgrad specs unless they set "
                       "it")
    p_run.add_argument("--out", type=Path, required=True)
    p_run.add_argument("--ref-tol", type=float, default=1e-10)

    p_fit = sub.add_parser("fit", help="fit a log-log slope to a trace CSV")
    p_fit.add_argument("--trace", type=Path, required=True)
    p_fit.add_argument("--x-field", default="stoch_calls")
    p_fit.add_argument("--error-field", default="error")
    p_fit.add_argument("--skip-head", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "gen":
        instance = _instance_from_args(args, p_gen)
        try:
            save_dataset_csv(instance.dataset, args.out)
        except OSError as exc:
            p_gen.error(f"--out {args.out}: {exc.strerror}")
        print(f"wrote {instance.n} x {instance.d} {args.loss} dataset to {args.out}")
        return 0

    if args.command == "run":
        seeds = args.seed or [0]
        args.seed = seeds
        instance = _instance_from_args(args, p_run)
        solvers = []
        for text in args.solver or ["mixedgrad"]:
            try:
                solvers.append(_build_solver(text, args.epochs, instance))
            except (ArithmeticError, TypeError, ValueError) as exc:
                p_run.error(f"--solver {text!r}: {exc}")
        try:
            spec = ExperimentSpec(instance, solvers, seeds, args.out,
                                  reference_tolerance=args.ref_tol)
        except ValueError as exc:
            p_run.error(str(exc))
        try:
            manifest = run_experiment(spec)
        except ReferenceSolveError as exc:
            p_run.error(f"--ref-tol {args.ref_tol:g}: {exc}")
        print(f"reference objective: {manifest['reference_value']:.6e}")
        for path in manifest["traces"]:
            print(f"trace: {path}")
        print(f"summary: {manifest['summary']}")
        return 0

    if args.command == "fit":
        try:
            rows = read_trace_csv(args.trace)
            fit = fit_slope(rows, args.x_field, args.error_field,
                            args.skip_head)
        except (OSError, ValueError) as exc:
            p_fit.error(str(exc))
        print(f"slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
              f"r2={fit.r_squared:.4f} points={fit.n_points} "
              f"x=[{fit.x_min:g}, {fit.x_max:g}] clipped={fit.n_clipped}")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness.

    bench gen  --seed 0 --n 200 --d 20 --noise 0 --loss ls --radius 1 --out data.csv
    bench run  --seed 0 --seed 1 --solver mixedgrad:epochs=7,t1=32 --solver gd:iterations=200 \
               --n 200 --d 20 --loss ls --radius 1 --out results/
    bench fit  --trace results/trace_mixedgrad_seed0.csv --x-field stoch_calls --skip-head 1
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


def _build_solver(spec_text: str, args, instance) -> SolverConfig:
    """Raises ArithmeticError, TypeError or ValueError on a bad spec."""
    name, _, kv_text = spec_text.partition(":")
    kv = _parse_kv(kv_text)
    if name == "mixedgrad":
        config_cls, fixed = MixedGradConfig, ()
    elif name in baselines.METHODS:
        config_cls, fixed = baselines.BaselineConfig, ("method",)
    else:
        raise ValueError(f"unknown solver {name!r}; accepted: "
                         f"{', '.join(('mixedgrad',) + baselines.METHODS)}")
    accepted = [f.name for f in dataclasses.fields(config_cls)
                if f.name not in fixed]
    for key in kv:
        if key not in accepted:
            raise ValueError(f"solver {name!r} has no option {key!r}; "
                             f"accepted: {', '.join(accepted)}")
    if name == "mixedgrad":
        if args.theory_mode:
            ignored = [key for key in kv if key != "epochs"]
            if ignored:
                raise ValueError(
                    f"--theory-mode derives every mixedgrad option but "
                    f"epochs; it would ignore: {', '.join(ignored)}")
            return theory_params(instance.smoothness, instance.domain_radius,
                                 args.delta, kv.get("epochs", args.epochs))
        beta = instance.smoothness
        t1 = kv.pop("t1", args.t1)
        # eta1 is derived from t1, so t1 is checked first.
        _check_count("t1", t1)
        eta1 = 1.0 / (2.0 * beta * math.sqrt(3.0 * t1))
        if not eta1 > 0 and "eta1" not in kv:
            raise ValueError(f"the default eta1 = 1/(2 beta sqrt(3 t1)) is "
                             f"0 at beta = {beta:g}, t1 = {t1}; rescale the "
                             f"features or set eta1")
        defaults = dict(
            eta1=eta1,
            delta1=instance.domain_radius,
            t1=t1,
            epochs=args.epochs,
            lambda1=beta,
        )
        defaults.update(kv)
        return MixedGradConfig(**defaults)
    defaults = dict(method=name, iterations=1000)
    defaults.update(kv)
    return baselines.BaselineConfig(**defaults)


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
                       ="NAME[:key=val,...]", help="solver spec; repeatable")
    p_run.add_argument("--epochs", type=int, default=7)
    p_run.add_argument("--t1", type=int, default=None,
                       help="first-epoch steps (default 32); not with "
                       "--theory-mode")
    p_run.add_argument("--theory-mode", action="store_true")
    p_run.add_argument("--delta", type=float, default=None,
                       help="failure probability (default 0.01); only with "
                       "--theory-mode")
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
        if args.theory_mode and args.t1 is not None:
            p_run.error("--theory-mode derives T1; it would ignore: --t1")
        if not args.theory_mode and args.delta is not None:
            p_run.error("--delta is the failure probability of "
                        "--theory-mode; without it, it would be ignored")
        args.t1 = 32 if args.t1 is None else args.t1
        args.delta = 0.01 if args.delta is None else args.delta
        seeds = args.seed or [0]
        args.seed = seeds
        instance = _instance_from_args(args, p_run)
        solvers = []
        for text in args.solver or ["mixedgrad"]:
            try:
                solvers.append(_build_solver(text, args, instance))
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

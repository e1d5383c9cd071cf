"""The benchmark's workloads and the correctness gate for their results.

Every workload solves a fixed synthetic instance (instance seed 0, the
instance the ROADMAP measures on), so ``final_error`` compares the solver
and not the instance. The workload seed drives the solvers' sampling
streams. The library is reached only through its public module attributes,
looked up at call time, so the tracer can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import mixedgrad
import mixedgrad.baselines
import mixedgrad.bench
import mixedgrad.cli

INSTANCE_SEED = 0
RADIUS = 1.0
REFERENCE_TOLERANCE = 1e-10
FEASIBILITY_TOL = 1e-9
NEGATIVE_ERROR_TOL = -1e-12


def mixedgrad_budget(t1: int, epochs: int, gamma: float) -> tuple[int, int]:
    """Documented budget: T1 (gamma^{2m} - 1) / (gamma^2 - 1) stochastic
    calls and m full calls."""
    g2 = gamma * gamma
    return round(t1 * (g2 ** epochs - 1) / (g2 - 1)), epochs


# rate-experiment: the solver specs a user passes to ``bench run``, each
# with its documented (stochastic, full) budget. mixedgrad takes the CLI
# defaults (t1=32, gamma=2) with --epochs 6.
RATE_SEEDS_PER_RUN = 5
RATE_EPOCHS = 6
RATE_SOLVERS = (
    ("mixedgrad", mixedgrad_budget(32, RATE_EPOCHS, 2.0)),
    ("sgd:iterations=20000,step_scale=0.05,checkpoint_stride=500", (20000, 0)),
    ("gd:iterations=150,checkpoint_stride=25", (0, 150)),
    ("nag:iterations=150,checkpoint_stride=25", (0, 150)),
)


@dataclass
class SolverRun:
    """One solver run as the gate sees it."""

    solver: str
    seed: int
    point: np.ndarray | None
    stoch_calls: int
    full_calls: int
    budget: tuple[int, int]        # documented (stochastic, full) calls
    final_error: float = math.nan
    status: str = "ok"
    problems: list[str] = field(default_factory=list)


@dataclass
class State:
    """What set-up hands to the timed phase."""

    instance: object
    reference_value: float
    seed: int
    config: object = None          # MixedGradConfig of single-run workloads
    workdir: Path | None = None    # rate-experiment: dataset CSV and outputs

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass
class Outcome:
    """A timed repetition after evaluation."""

    runs: list[SolverRun]
    digest: str                    # SHA-256 over every returned point
    csv_bytes: int = 0

    @property
    def stoch_calls(self) -> int:
        return sum(r.stoch_calls for r in self.runs)

    @property
    def full_calls(self) -> int:
        return sum(r.full_calls for r in self.runs)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    noise: float
    loss: str
    setup: Callable[["Workload", int, Path], State]
    solve: Callable[[State], object]            # timed
    evaluate: Callable[[State, object], Outcome]  # untimed
    epochs: int = 7                # mixedgrad epochs of single-run workloads

    @property
    def x_bytes(self) -> int:
        return 8 * self.n * self.d


def point_digest(points) -> str:
    h = hashlib.sha256()
    for p in points:
        h.update(b"none" if p is None else
                 np.ascontiguousarray(p, dtype="<f8").tobytes())
    return h.hexdigest()


def gate(run: SolverRun, radius: float) -> list[str]:
    """Problems with one solver run; an empty list means it passes."""
    problems = list(run.problems)
    if run.status != "ok":
        problems.append(f"status {run.status}")
    if (run.stoch_calls, run.full_calls) != run.budget:
        problems.append(f"counters {run.stoch_calls}/{run.full_calls} != "
                        f"budget {run.budget[0]}/{run.budget[1]}")
    if run.point is None or not np.all(np.isfinite(run.point)):
        problems.append("returned point missing or not finite")
    elif np.linalg.norm(run.point) > radius + FEASIBILITY_TOL:
        problems.append(f"point outside the R-ball: "
                        f"|w|={np.linalg.norm(run.point):.17g}")
    if not run.final_error >= NEGATIVE_ERROR_TOL:
        problems.append(f"final_error {run.final_error!r} below "
                        f"{NEGATIVE_ERROR_TOL}")
    return problems


def _make_instance(wl: Workload):
    instance = mixedgrad.gen_synthetic(INSTANCE_SEED, wl.n, wl.d, wl.noise,
                                       wl.loss, RADIUS)
    _, reference_value = mixedgrad.compute_reference_optimum(
        instance, REFERENCE_TOLERANCE)
    return instance, reference_value


# -- single mixedgrad run on a fixed instance ---------------------------------

def _setup_single(wl: Workload, seed: int, scratch: Path) -> State:
    instance, reference_value = _make_instance(wl)
    beta = instance.smoothness
    config = mixedgrad.MixedGradConfig(eta1=0.5 / beta, delta1=RADIUS, t1=32,
                                       epochs=wl.epochs, lambda1=0.05 * beta)
    return State(instance, reference_value, seed, config=config)


def _solve_single(state: State):
    try:
        return mixedgrad.run(state.instance, state.config, state.seed,
                             state.reference_value)
    except mixedgrad.DivergenceError as exc:
        return exc


def _evaluate_single(state: State, result) -> Outcome:
    cfg = state.config
    budget = mixedgrad_budget(cfg.t1, cfg.epochs, cfg.gamma)
    if isinstance(result, Exception):
        run = SolverRun("mixedgrad", state.seed, None, 0, 0, budget,
                        status=f"diverged: {result}")
    else:
        final_error = (mixedgrad.full_objective(state.instance, result.point)
                       - state.reference_value)
        run = SolverRun("mixedgrad", state.seed, result.point,
                        result.counters.stochastic_calls,
                        result.counters.full_calls, budget, final_error)
    return Outcome([run], point_digest([run.point]))


# -- rate-experiment: in-process ``bench run`` --------------------------------

def _setup_rate(wl: Workload, seed: int, scratch: Path) -> State:
    instance, reference_value = _make_instance(wl)
    workdir = Path(tempfile.mkdtemp(prefix="rate-", dir=scratch))
    mixedgrad.save_dataset_csv(instance.dataset, workdir / "data.csv")
    return State(instance, reference_value, seed, workdir=workdir)


def rate_seeds(seed: int) -> list[int]:
    return list(range(RATE_SEEDS_PER_RUN * seed,
                      RATE_SEEDS_PER_RUN * (seed + 1)))


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace each ``(module, attribute, ...)`` of ``targets`` with
    ``make_wrapper(target, original)`` for the duration of the block."""
    saved = [getattr(target[0], target[1]) for target in targets]
    try:
        for target, fn in zip(targets, saved):
            setattr(target[0], target[1], make_wrapper(target, fn))
        yield
    finally:
        for target, fn in zip(targets, saved):
            setattr(target[0], target[1], fn)


@contextlib.contextmanager
def capture_points():
    """Record the point each solver returns to ``run_experiment``, in call
    order (None for a run that raised); ``bench run`` writes only CSVs."""
    points = []
    targets = [(mixedgrad.bench, "run_mixedgrad", lambda r: r.point)]
    targets += [(mixedgrad.baselines, f"run_{m}", lambda r: r[0])
                for m in ("sgd", "gd", "nag")]

    def recording(target, fn):
        pick = target[2]

        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except mixedgrad.DivergenceError:
                points.append(None)
                raise
            points.append(np.array(pick(result), dtype=float))
            return result
        return wrapper

    with patched(targets, recording):
        yield points


def _solve_rate(state: State):
    out = Path(tempfile.mkdtemp(prefix="out-", dir=state.workdir))
    argv = ["run", "--csv", str(state.workdir / "data.csv"), "--loss", "ls",
            "--radius", str(RADIUS), "--epochs", str(RATE_EPOCHS),
            "--out", str(out)]
    for s in rate_seeds(state.seed):
        argv += ["--seed", str(s)]
    for spec, _ in RATE_SOLVERS:
        argv += ["--solver", spec]
    with capture_points() as points, \
            contextlib.redirect_stdout(io.StringIO()):
        code = mixedgrad.cli.main(argv)
    return code, out, points


def _evaluate_rate(state: State, result) -> Outcome:
    code, out, points = result
    try:
        with open(out / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        csv_bytes = sum(p.stat().st_size for p in out.iterdir())
        expected = [(spec.split(":")[0], seed, budget)
                    for spec, budget in RATE_SOLVERS
                    for seed in rate_seeds(state.seed)]
        found = [(r["solver"], int(r["seed"])) for r in rows]
        runs = []
        for k, (solver, seed, budget) in enumerate(expected):
            point = points[k] if k < len(points) else None
            run = SolverRun(solver, seed, point, 0, 0, budget)
            runs.append(run)
            if code != 0:
                run.problems.append(f"bench run exited with {code}")
            if found.count((solver, seed)) != 1:
                run.problems.append(f"{found.count((solver, seed))} summary "
                                    f"rows for {solver} seed {seed}")
                continue
            row = rows[found.index((solver, seed))]
            run.stoch_calls = int(row["stoch_calls"])
            run.full_calls = int(row["full_calls"])
            run.final_error = float(row["final_error"])
            with open(out / f"trace_{solver}_seed{seed}.csv", newline="") as f:
                last = list(csv.DictReader(f))[-1]
            run.status = last["status"]
            if (int(last["stoch_calls"]), int(last["full_calls"])) != \
                    (run.stoch_calls, run.full_calls):
                run.problems.append("summary counters differ from the trace")
            if point is not None:
                recomputed = (mixedgrad.full_objective(state.instance, point)
                              - state.reference_value)
                if not abs(recomputed - run.final_error) <= 1e-12:
                    run.problems.append(
                        f"summary final_error {run.final_error!r} != "
                        f"recomputed {recomputed!r}")
        if len(rows) != len(expected):
            runs[0].problems.append(f"summary has {len(rows)} rows, "
                                    f"expected {len(expected)}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Outcome(runs, point_digest(points), csv_bytes)


WORKLOADS = {wl.name: wl for wl in (
    Workload("ls-interior", 200, 20, 0.0, mixedgrad.LEAST_SQUARES,
             _setup_single, _solve_single, _evaluate_single),
    Workload("logistic-boundary", 200, 20, 0.0, mixedgrad.LOGISTIC,
             _setup_single, _solve_single, _evaluate_single),
    Workload("large-n", 20_000, 50, 0.5, mixedgrad.LEAST_SQUARES,
             _setup_single, _solve_single, _evaluate_single, epochs=4),
    Workload("rate-experiment", 200, 20, 0.5, mixedgrad.LEAST_SQUARES,
             _setup_rate, _solve_rate, _evaluate_rate),
)}

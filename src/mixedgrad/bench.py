"""Benchmark harness: synthetic instances, reference optima, experiment
orchestration, trace CSV emission, and log-log slope fitting.

Instances are synthetic with a planted solution, so noise-free variants
have a machine-precision optimum and slope measurements stay clean.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines
from .core import (CertificateError, DivergenceError, MixedGradConfig,
                   SolverResult, TraceRecord, _certified_minimum,
                   run as run_mixedgrad)
from .geometry import _project_ball
# project_ball stays importable from here: perfbench/tracer.py wraps
# mixedgrad.bench.project_ball by name.
from .geometry import project_ball  # noqa: F401
from .losses import (LEAST_SQUARES, LOGISTIC, Dataset, ProblemInstance,
                     _check_radius, _read_csv, _row_norms_sq, _write_csv,
                     full_objective, mean_gradient, mean_smoothness)

TRACE_COLUMNS = ["solver", "seed", "epoch", "step", "stoch_calls",
                 "full_calls", "objective", "error", "status"]
_TRACE_TYPES = [str, int, int, int, int, int, float, float, str]
SUMMARY_COLUMNS = ["solver", "seed", "final_error", "stoch_calls",
                   "full_calls", "wall_ms"]

# Errors below this are considered indistinguishable from the reference
# noise floor; they are clipped before logs and excluded from slope fits.
ERROR_FLOOR = 1e-14


def _check_seeds(seeds) -> None:
    """Philox takes only nonnegative integer seeds; a bool is not one."""
    bad = [s for s in seeds if isinstance(s, bool)
           or not isinstance(s, (int, np.integer)) or s < 0]
    if bad:
        raise ValueError(f"seeds must be nonnegative integers, got "
                         f"{', '.join(map(repr, bad))}")


def gen_synthetic(seed: int, n: int, d: int, noise_sd: float,
                  loss_kind: str, radius: float) -> ProblemInstance:
    """Synthetic instance with unit-norm feature rows and a planted
    solution of norm radius/2 (so the optimum tends to be interior).

    Least-squares labels are <w0, x_i> + noise; logistic labels are the
    sign of the same quantity. Deterministic per seed.
    """
    _check_seeds([seed])
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if not 0 <= noise_sd < math.inf:
        raise ValueError(f"noise_sd must be nonnegative and finite, got "
                         f"{noise_sd!r}")
    _check_radius(radius)
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.standard_normal((n, d))
    X /= np.sqrt(_row_norms_sq(X))[:, None]
    w0 = rng.standard_normal(d)
    w0 *= (radius / 2.0) / np.linalg.norm(w0)
    raw = X @ w0 + noise_sd * rng.standard_normal(n)
    if loss_kind == LEAST_SQUARES:
        y = raw
    elif loss_kind == LOGISTIC:
        y = np.where(raw >= 0, 1.0, -1.0)
    else:
        raise ValueError(f"unknown loss kind: {loss_kind!r}")
    return ProblemInstance(Dataset(X, y), loss_kind, radius)


class ReferenceSolveError(CertificateError):
    """The reference solve hit its iteration cap."""


def compute_reference_optimum(instance: ProblemInstance, tolerance: float,
                              max_iterations: int = 10 ** 6
                              ) -> tuple[np.ndarray, float]:
    """High-precision optimum of G over the R-ball, by core's certified
    minimizer (restarted accelerated projected gradient, uncounted
    gradients) with step 1/L, L the smoothness of G
    (losses.mean_smoothness, at most the per-example beta).

    The certificate is the gradient-mapping residual of a step-1/L
    projected gradient step, checked on every core.RESIDUAL_INTERVAL-th
    iterate and on iterate max_iterations. Returns the first checked iterate whose
    residual is below the tolerance, with its objective value. Raises
    ReferenceSolveError if no checked iterate reaches it.
    """
    if not 0 < tolerance <= 1e-6:
        raise ValueError("tolerance must lie in (0, 1e-6]")
    R = instance.domain_radius
    # mean_gradient is looked up at call time, so a wrapper installed on
    # bench.mean_gradient sees every gradient the solve takes.
    try:
        w, _ = _certified_minimum(lambda y: mean_gradient(instance, y),
                                  lambda v: _project_ball(v, R),
                                  1.0 / mean_smoothness(instance), instance.d,
                                  tolerance, max_iterations)
    except CertificateError as exc:
        raise ReferenceSolveError(f"reference solve: {exc}") from None
    return w, full_objective(instance, w)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    x_min: float
    x_max: float
    n_points: int
    n_clipped: int = 0


def fit_slope(records, x_field: str, error_field: str,
              skip_head: int = 0) -> SlopeFit:
    """Ordinary least squares on (log10 x, log10 error).

    Accepts TraceRecord objects or mappings (e.g. parsed CSV rows). The
    first skip_head records are dropped. Points at or below the error floor
    are excluded and counted as clipped. Requires >= 4 usable points with
    positive, finite and strictly increasing x; a missing field, an error
    of +inf or a nonpositive one raises ValueError.
    """
    def get(rec, name):
        try:
            return float(rec[name] if isinstance(rec, dict)
                         else getattr(rec, name))
        except (AttributeError, KeyError):
            raise ValueError(f"records have no field {name!r}") from None

    if skip_head < 0:
        raise ValueError("skip_head must be >= 0")
    pts = [(get(r, x_field), get(r, error_field)) for r in records]
    pts = pts[skip_head:]
    if any(e <= 0 for _, e in pts if not math.isnan(e)):
        raise ValueError("nonpositive error values; reference optimum too loose")
    if any(e == math.inf for _, e in pts):
        raise ValueError("infinite error values; the objective overflowed")
    usable = [(x, e) for x, e in pts if not math.isnan(e) and e > ERROR_FLOOR]
    n_clipped = len(pts) - len(usable)
    bad = [x for x, _ in usable if not 0 < x < math.inf]
    if bad:
        raise ValueError(f"x values must be positive and finite to take "
                         f"their log, got {bad[0]}")
    if len(usable) < 4:
        raise ValueError(f"need >= 4 usable points, got {len(usable)}")
    xs = np.array([x for x, _ in usable])
    if not np.all(np.diff(xs) > 0):
        raise ValueError("x values must be strictly increasing")
    lx = np.log10(xs)
    le = np.log10([e for _, e in usable])
    slope, intercept = np.polyfit(lx, le, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((le - pred) ** 2))
    ss_tot = float(np.sum((le - np.mean(le)) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return SlopeFit(float(slope), float(intercept), min(r2, 1.0),
                    float(xs[0]), float(xs[-1]), len(usable), n_clipped)


# The config of one solver run; its type names the solver.
SolverConfig = MixedGradConfig | baselines.BaselineConfig


def _run_name(config: SolverConfig) -> str:
    """A run is named "mixedgrad" for a MixedGradConfig and after the
    baseline's method otherwise; it names the run's trace file."""
    return ("mixedgrad" if isinstance(config, MixedGradConfig)
            else config.method)


def _reject_repeats(what: str, values) -> None:
    """Two runs with the same name and seed would write one trace file."""
    repeated = sorted({v for v in values if values.count(v) > 1}, key=str)
    if repeated:
        raise ValueError(f"repeated {what}: "
                         f"{', '.join(map(str, repeated))}")


@dataclass
class ExperimentSpec:
    instance: ProblemInstance
    solvers: list[SolverConfig]
    seeds: list[int]
    out_dir: Path
    reference_tolerance: float = 1e-10

    def __post_init__(self):
        if not self.solvers:
            raise ValueError("experiment needs at least one solver")
        for config in self.solvers:
            if not isinstance(config, SolverConfig):
                raise TypeError(f"not a solver config: {config!r}")
        _reject_repeats("solver run name",
                        [_run_name(config) for config in self.solvers])
        if not self.seeds:
            raise ValueError("experiment needs at least one seed")
        _check_seeds(self.seeds)
        _reject_repeats("seed", self.seeds)
        if not 0 < self.reference_tolerance <= 1e-6:
            raise ValueError("reference tolerance must lie in (0, 1e-6]")
        self.out_dir = Path(self.out_dir)
        existing = next(p for p in (self.out_dir, *self.out_dir.parents)
                        if p.exists())
        if not existing.is_dir():
            raise ValueError(f"output directory {self.out_dir}: {existing} "
                             f"is an existing file")


def write_trace_csv(path, solver: str, seed: int,
                    trace: list[TraceRecord]) -> None:
    """One row per trace record, each with its own status."""
    _write_csv(path, TRACE_COLUMNS,
               ([solver, seed, rec.epoch, rec.step, rec.stoch_calls,
                 rec.full_calls, repr(float(rec.objective)),
                 repr(float(rec.error)), rec.status] for rec in trace))


def read_trace_csv(path) -> list[dict]:
    """Parse a trace CSV back into typed row dicts (round-trips
    write_trace_csv). A file without the trace header, or a row of the
    wrong length or with a field of the wrong type, raises ValueError
    naming the file and the row."""
    return [dict(zip(TRACE_COLUMNS, row)) for row in
            _read_csv(path, "trace CSV", lambda h: h == TRACE_COLUMNS,
                      ",".join(TRACE_COLUMNS), _TRACE_TYPES)]


def _run_one(instance: ProblemInstance, config: SolverConfig, seed: int,
             reference_value: float) -> SolverResult:
    # The solvers are looked up at call time, so a wrapper installed on
    # bench.run_mixedgrad or baselines.run_<method> sees every call.
    if isinstance(config, MixedGradConfig):
        return run_mixedgrad(instance, config, seed, reference_value)
    solve = getattr(baselines, f"run_{config.method}")
    if config.method == baselines.SGD:
        return solve(instance, config, seed, reference_value)
    return solve(instance, config, reference_value)


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run every (solver, seed) pair, writing one trace CSV per run (named
    by _run_name and the seed) plus an aggregate summary CSV.

    A diverging run keeps the oracle counters and trace records it had
    reached; its trace ends in a 'diverged' row carrying those counters,
    its summary row reports them with a nan final error, and the
    experiment continues. Returns a manifest with the written paths. The
    output directory is made only once the reference solve has succeeded,
    so a ReferenceSolveError leaves none behind.
    """
    w_star, g_star = compute_reference_optimum(spec.instance,
                                               spec.reference_tolerance)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    trace_paths = []
    summary_rows = []
    for config in spec.solvers:
        name = _run_name(config)
        for seed in spec.seeds:
            t0 = time.perf_counter()
            try:
                point, trace, counters, _ = _run_one(spec.instance, config,
                                                     seed, g_star)
                final_error = full_objective(spec.instance, point) - g_star
            except DivergenceError as exc:
                trace, counters = exc.trace, exc.counters
                trace.append(TraceRecord(0, 0, counters.stochastic_calls,
                                         counters.full_calls, math.nan,
                                         math.nan, "diverged"))
                final_error = math.nan
            wall_ms = (time.perf_counter() - t0) * 1000.0
            path = spec.out_dir / f"trace_{name}_seed{seed}.csv"
            write_trace_csv(path, name, seed, trace)
            trace_paths.append(path)
            summary_rows.append([name, seed, repr(float(final_error)),
                                 counters.stochastic_calls,
                                 counters.full_calls, f"{wall_ms:.3f}"])
    summary_path = spec.out_dir / "summary.csv"
    _write_csv(summary_path, SUMMARY_COLUMNS, summary_rows)
    return {"traces": trace_paths, "summary": summary_path,
            "reference_point": w_star, "reference_value": g_star}

"""Benchmark of the mixedgrad library, run from the root of a checkout.

    python3 perfbench/run.py --workload ls-interior --seed 0 --seconds 18 --trace 0

One process runs one workload. Set-up (import, instance, reference
optimum) is timed once here and then in fresh interpreters, at least three
times, and reported as a median. The timed phase repeats the workload's
solve until about ``--seconds`` have been spent, and every repetition must
return the same points. Every solver run passes through the correctness
gate. ``setup_s`` and ``solve_s`` are medians in reference seconds: each
set-up is scaled by calibration samples taken just before and after it,
each solve by kernel samples interleaved with it (see calibrate.py). The
wall times are printed too.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the solve runs untraced for half the time and then once traced, and the
per-layer metrics are printed. The last line of output is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import env
import setup_probe

# Set-ups per run: at least MIN_SETUPS, more until the probes after the
# solve have taken SETUP_PHASE_S with their calibration.
MIN_SETUPS, SETUP_PHASE_S = 3, 4.0
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setup(name: str, seed: int) -> float:
    """One set-up timed in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
         name, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure(wl, state, seconds: float, pace=None):
    """Repeat the timed solve until ``seconds`` are spent (at least once);
    stop early rather than overrun by more than half a repetition. Returns
    the wall times, the times in reference seconds (with ``pace``, else
    None) and the outcomes."""
    walls, scaled, outcomes = [], [], []
    while True:
        if pace is None:
            t0 = perf_counter()
            raw = wl.solve(state)
            walls.append(perf_counter() - t0)
        else:
            raw, wall_s, scaled_s = pace.timed(lambda: wl.solve(state))
            walls.append(wall_s)
            scaled.append(scaled_s)
        outcomes.append(wl.evaluate(state, raw))
        if sum(walls) + walls[-1] / 2 >= seconds:
            return walls, scaled or None, outcomes


def judge(outcomes, radius: float) -> tuple[int, int]:
    """Gate every solver run of every repetition; print each failure and
    the digests of the first repetition. Returns (attempted, failed)."""
    import workloads

    attempted = failed = 0
    for k, oc in enumerate(outcomes):
        for run in oc.runs:
            problems = workloads.gate(run, radius)
            if oc.digest != outcomes[0].digest:
                problems.append("returned points differ from repetition 1")
            attempted += 1
            if problems:
                failed += 1
                print(f"FAIL rep {k + 1} {run.solver} seed {run.seed}: "
                      + "; ".join(problems))
    first = outcomes[0]
    for run in first.runs:
        print(f"point sha256 {run.solver} seed {run.seed}: "
              f"{workloads.point_digest([run.point])}")
    print(f"oracle calls per repetition: {first.stoch_calls} stochastic, "
          f"{first.full_calls} full")
    return attempted, failed


def final_error(outcome) -> float:
    """Worst mixedgrad objective gap, floored at the library's ERROR_FLOOR."""
    import mixedgrad.bench

    errors = [r.final_error for r in outcome.runs if r.solver == "mixedgrad"]
    worst = max(errors)
    return float(max(worst, mixedgrad.bench.ERROR_FLOOR)) if math.isfinite(worst) \
        else math.nan


def emit(args, wl, correct: bool, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]]) -> None:
    """Print the environment, each metric with its unit, and the JSON line."""
    print("env: " + json.dumps({**env.describe(args.load_at_start),
                                "x_bytes_computed": wl.x_bytes}))
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value!r} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def untraced(args) -> int:
    import calibrate

    timeline = calibrate.Timeline()
    timeline.warm_up()
    wl, state, first_setup = setup_probe.timed_setup(args.workload, args.seed)
    timeline.record(first_setup)
    try:
        walls, scaled, outcomes = measure(wl, state, args.seconds,
                                          calibrate.Pace())
    finally:
        state.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timeline.warm_up()
    t0 = perf_counter()
    while (len(timeline.pieces) < MIN_SETUPS
           or perf_counter() - t0 < SETUP_PHASE_S):
        timeline.record(probe_setup(args.workload, args.seed))
    print("set-ups (wall s, numpy import s before and after): "
          + json.dumps([dataclasses.astuple(p) for p in timeline.pieces]))
    print("solves (wall s, reference s): "
          + json.dumps(list(zip(walls, scaled))))
    solve_s = statistics.median(scaled)
    print(f"median wall solve {statistics.median(walls):.4f} s, "
          f"scaled {solve_s:.4f} s")
    setup_s = statistics.median(timeline.scaled())
    print(f"median wall setup {statistics.median(timeline.wall()):.4f} s, "
          f"scaled {setup_s:.4f} s")
    attempted, failed = judge(outcomes, state.instance.domain_radius)
    # fail_frac is printed but not a benchmark metric: it is 0 whenever
    # the gate passes, and "correct"/"failed" already carry it.
    print(f"fail_frac {failed / attempted!r} frac")
    emit(args, wl, failed == 0, attempted, failed, {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "steps_per_s": (outcomes[0].stoch_calls / solve_s, "1/s"),
        "final_error": (final_error(outcomes[0]), "gap"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })
    return 0


def traced(args) -> int:
    """One traced set-up, untraced solves for half the time, then one
    traced solve; the per-layer metrics come from the traced spans."""
    wl = setup_probe.workload(args.workload)
    import tracer

    tr = tracer.Tracer()
    with tr.installed(), tr.span("phase.setup"):
        state = wl.setup(wl, args.seed, env.scratch_dir())
    try:
        times, _, outcomes = measure(wl, state, args.seconds / 2)
        first_solve_span = len(tr.start)
        with tr.installed(), tr.span("phase.solve"):
            t0 = perf_counter()
            raw = wl.solve(state)
            traced_s = perf_counter() - t0
        outcomes.append(wl.evaluate(state, raw))
    finally:
        state.close()
    tr.save(env.scratch_dir() / f"trace-{wl.name}-seed{args.seed}.npz")
    attempted, failed = judge(outcomes, state.instance.domain_radius)
    overhead_s = traced_s - statistics.median(times)
    print("untraced solve samples (s): "
          + " ".join(f"{t:.4f}" for t in times))
    print(f"traced solve (s): {traced_s:.4f}")
    solve_table = tr.table(first=first_solve_span)
    print("self time in the traced solve (share of traced solve_s):")
    for name, self_s, calls in solve_table.ranked_self()[:12]:
        print(f"  {name:<36} {self_s:9.4f} s {self_s / traced_s:6.1%} "
              f"{calls:>8} calls")
    traced_outcome = outcomes[-1]
    metrics = tracer.layer_metrics(
        tr.table(), solve_table, tr.branches, wl.x_bytes,
        traced_outcome.stoch_calls, traced_outcome.full_calls,
        traced_outcome.csv_bytes, overhead_s)
    emit(args, wl, failed == 0, attempted, failed, metrics)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    args.load_at_start = os.getloadavg()
    env.require_package()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    return (traced if args.trace else untraced)(args)


if __name__ == "__main__":
    sys.exit(main())

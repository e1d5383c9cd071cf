"""Contracts that other code relies on.

Every solver returns a SolverResult and, when it diverges, raises a
DivergenceError that carries its counters and trace, which is what lets
bench.run_experiment record any run without fallbacks. The benchmark's
tracer wraps module attributes by name, so each one it names must exist.
"""

import dataclasses
import importlib
import math
import sys
from pathlib import Path

import pytest

from mixedgrad import (BaselineConfig, DivergenceError, LEAST_SQUARES,
                       MixedGradConfig, OracleCounters, gen_synthetic, run,
                       run_gd, run_nag, run_sgd)
from mixedgrad.core import SolverResult, TraceRecord

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (solver, config, seed arguments, exact (stochastic, full) budget)
SOLVERS = [
    (run, MixedGradConfig(eta1=0.1, delta1=1.0, t1=8, epochs=3, lambda1=0.1,
                          checkpoint_stride=4), (0,), (8 * (1 + 4 + 16), 3)),
    (run_sgd, BaselineConfig("sgd", 25, checkpoint_stride=5), (0,), (25, 0)),
    (run_gd, BaselineConfig("gd", 30, checkpoint_stride=5), (), (0, 30)),
    (run_nag, BaselineConfig("nag", 30, checkpoint_stride=5), (), (0, 30)),
]
IDS = [solver.__name__ for solver, *_ in SOLVERS]


@pytest.fixture(scope="module")
def instance():
    return gen_synthetic(5, 30, 4, 0.0, LEAST_SQUARES, 1.0)


@pytest.mark.parametrize("solver, config, seed, budget", SOLVERS, ids=IDS)
def test_returns_solver_result(solver, config, seed, budget, instance):
    result = solver(instance, config, *seed)
    assert isinstance(result, SolverResult)
    assert result[0] is result.point
    assert (result.counters.stochastic_calls,
            result.counters.full_calls) == budget
    assert isinstance(result.trace, list)
    assert all(isinstance(rec, TraceRecord) for rec in result.trace)
    last = result.trace[-1]
    assert (last.stoch_calls, last.full_calls) == budget
    if solver is run:
        assert len(result.epoch_summaries) == config.epochs
    else:
        assert result.epoch_summaries == ()


@pytest.mark.parametrize("solver, config, seed, budget", SOLVERS, ids=IDS)
def test_divergence_carries_counters_and_trace(solver, config, seed, budget,
                                               instance):
    # An infinite step makes the first iterate non-finite, after one call
    # of each oracle the solver uses.
    infinite = ({"eta1": math.inf} if solver is run
                else {"step_scale": math.inf})
    with pytest.raises(DivergenceError) as exc:
        solver(instance, dataclasses.replace(config, **infinite), *seed)
    assert isinstance(exc.value.counters, OracleCounters)
    assert exc.value.counters == OracleCounters(min(budget[0], 1),
                                                min(budget[1], 1))
    assert isinstance(exc.value.trace, list)


def test_tracer_targets_resolve(monkeypatch):
    # perfbench/tracer.py is imported as it stands, never modified.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
        missing = [f"{module.__name__}.{attribute}"
                   for module, attribute, _ in tracer.TARGETS
                   if not hasattr(module, attribute)]
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
    assert tracer.TARGETS
    assert missing == []

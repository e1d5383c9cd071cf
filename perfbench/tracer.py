"""In-memory span tracer around the library's layer boundaries.

The tracer replaces module attributes that callers look up at call time
(``mixedgrad.core.sample_loss``, ``mixedgrad.bench.run_mixedgrad``, ...)
with wrappers that record one span per call: name, start, end and the
span that was open when the call began. Spans are named
``<layer>.<function>`` after the module that defines the function, so a
function reached through several namespaces keeps one name. Spans live in
flat arrays until the run ends.
"""

from __future__ import annotations

import contextlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import mixedgrad
import mixedgrad.baselines
import mixedgrad.bench
import mixedgrad.cli
import mixedgrad.core
import mixedgrad.geometry
import mixedgrad.oracle
import workloads

LAYERS = ("losses", "geometry", "oracle", "core", "baselines", "bench", "cli")

# (namespace the caller looks the name up in, attribute, span name)
TARGETS = (
    (mixedgrad, "gen_synthetic", "bench.gen_synthetic"),
    (mixedgrad, "compute_reference_optimum", "bench.compute_reference_optimum"),
    (mixedgrad, "save_dataset_csv", "losses.save_dataset_csv"),
    (mixedgrad, "run", "core.run"),
    (mixedgrad.cli, "main", "cli.main"),
    (mixedgrad.cli, "run_experiment", "bench.run_experiment"),
    (mixedgrad.cli, "load_dataset_csv", "losses.load_dataset_csv"),
    (mixedgrad.bench, "compute_reference_optimum",
     "bench.compute_reference_optimum"),
    (mixedgrad.bench, "run_mixedgrad", "core.run"),
    (mixedgrad.bench, "write_trace_csv", "bench.write_trace_csv"),
    (mixedgrad.bench, "mean_gradient", "losses.mean_gradient"),
    (mixedgrad.bench, "full_objective", "losses.full_objective"),
    (mixedgrad.bench, "project_ball", "geometry.project_ball"),
    (mixedgrad.baselines, "run_sgd", "baselines.run_sgd"),
    (mixedgrad.baselines, "run_gd", "baselines.run_gd"),
    (mixedgrad.baselines, "run_nag", "baselines.run_nag"),
    (mixedgrad.baselines, "sample_loss", "oracle.sample_loss"),
    (mixedgrad.baselines, "full_grad", "oracle.full_grad"),
    (mixedgrad.baselines, "loss_grad", "losses.loss_grad"),
    (mixedgrad.baselines, "project_ball", "geometry.project_ball"),
    (mixedgrad.baselines, "full_objective", "losses.full_objective"),
    (mixedgrad.core, "run_epoch", "core.run_epoch"),
    (mixedgrad.core, "anchor_gradient", "core.anchor_gradient"),
    (mixedgrad.core, "shrink_schedule", "core.shrink_schedule"),
    (mixedgrad.core, "sample_loss", "oracle.sample_loss"),
    (mixedgrad.core, "full_grad", "oracle.full_grad"),
    (mixedgrad.core, "project_epoch_domain", "geometry.project_epoch_domain"),
    (mixedgrad.core, "project_ball", "geometry.project_ball"),
    (mixedgrad.core, "full_objective", "losses.full_objective"),
    (mixedgrad.geometry, "project_ball", "geometry.project_ball"),
    (mixedgrad.oracle, "mean_gradient", "losses.mean_gradient"),
)
CLASSIFY = "trace.classify"
BRANCHES = ("inner", "outer", "both")


def classify_projection(project_ball, w, domain) -> str:
    """Which branch ``project_epoch_domain`` takes for w: ``inner`` or
    ``outer`` when that single-ball projection already satisfies the other
    constraint, ``both`` when it falls through to the two-ball iteration."""
    a, R, delta = domain.anchor, domain.outer_radius, domain.inner_radius
    if np.linalg.norm(project_ball(w, delta) + a) <= R:
        return "inner"
    if np.linalg.norm(project_ball(w, R, center=-a)) <= delta:
        return "outer"
    return "both"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.branches = dict.fromkeys(BRANCHES, 0)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        k = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(k)
        return k

    def _close(self, k: int) -> None:
        self._stack.pop()
        self.end[k] = perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        k = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(k)

    def wrap(self, name: str, fn):
        nid = self._id(name)

        def wrapper(*args, **kwargs):
            k = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(k)
        return wrapper

    def _wrap_projection(self, fn, project_ball):
        traced = self.wrap("geometry.project_epoch_domain", fn)
        classify_id = self._id(CLASSIFY)

        def wrapper(w, domain):
            # Classification is its own span so it is not charged to the
            # caller's self time.
            k = self._open(classify_id)
            self.branches[classify_projection(project_ball, w, domain)] += 1
            self._close(k)
            return traced(w, domain)
        return wrapper

    def installed(self):
        """Wrap every target for the duration of the block."""
        project_ball = mixedgrad.geometry.project_ball

        def make_wrapper(target, fn):
            name = target[2]
            if name == "geometry.project_epoch_domain":
                return self._wrap_projection(fn, project_ball)
            return self.wrap(name, fn)
        return workloads.patched(TARGETS, make_wrapper)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end))

    def table(self, first: int = 0) -> "SpanTable":
        """Aggregates over the spans opened from index ``first`` on."""
        parent = np.array(self.parent[first:]) - first
        parent[parent < 0] = -1
        return SpanTable(self.names, np.array(self.name_id[first:]), parent,
                         np.array(self.start[first:]),
                         np.array(self.end[first:]))


class SpanTable:
    """Per-name aggregates of a finished trace."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = name_id
        self.parent = parent
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self.dur = dur
        self.self_time = dur - child

    def _mask(self, name: str, parent: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        mask = self.name_id == self.names.index(name)
        if parent is not None:
            if parent not in self.names:
                return np.zeros_like(mask)
            pid = self.names.index(parent)
            has_parent = self.parent >= 0
            parent_name = np.full(len(mask), -1)
            parent_name[has_parent] = self.name_id[self.parent[has_parent]]
            mask &= parent_name == pid
        return mask

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._mask(name, parent).sum())

    def total_s(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def us_per_call(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_s(name) / calls * 1e6 if calls else 0.0

    def layer_self_s(self, layer: str) -> float:
        ids = [k for k, nm in enumerate(self.names)
               if nm.split(".", 1)[0] == layer]
        return float(self.self_time[np.isin(self.name_id, ids)].sum())

    def ranked_self(self) -> list[tuple[str, float, int]]:
        """(name, self seconds, calls) of every name called, largest self
        time first."""
        rows = [(nm, self.self_s(nm), self.calls(nm)) for nm in self.names
                if self.calls(nm)]
        return sorted(rows, key=lambda r: -r[1])


def layer_metrics(table: SpanTable, solve_table: SpanTable, branches: dict,
                  x_bytes: int, stoch_calls: int, full_calls: int,
                  csv_bytes: int, overhead_s: float
                  ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    ``table`` covers the traced set-up and solve, ``solve_table`` the
    traced solve only; it gives ``solve_self_s.<layer>``. ``.us`` is the
    mean inclusive time per call, ``.s`` the inclusive total, ``self_*``
    excludes time in traced callees. ``.bytes`` is computed, not measured:
    8 n d bytes of X read per full-data call.
    """
    t = table
    steps = t.calls("oracle.sample_loss", parent="core.run_epoch")
    projections = t.calls("geometry.project_epoch_domain",
                          parent="core.run_epoch")
    sgd_steps = t.calls("oracle.sample_loss", parent="baselines.run_sgd")
    m = {
        "oracle.sample_loss.calls": (t.calls("oracle.sample_loss"), "count"),
        "oracle.sample_loss.us": (t.us_per_call("oracle.sample_loss"), "us"),
        "oracle.stochastic_calls": (stoch_calls, "count"),
        "oracle.full_calls": (full_calls, "count"),
        "oracle.full_grad.us": (t.us_per_call("oracle.full_grad"), "us"),
        "oracle.full_grad.bytes": (x_bytes, "B"),
        "core.run_epoch.self_us_per_step": (
            t.self_s("core.run_epoch") / steps * 1e6 if steps else 0.0, "us"),
        "core.fast_path_frac": (
            1.0 - projections / steps if steps else 0.0, "frac"),
        "core.anchor_gradient.us": (t.us_per_call("core.anchor_gradient"), "us"),
        "core.run.s": (t.total_s("core.run"), "s"),
        "geometry.project_epoch_domain.calls": (
            t.calls("geometry.project_epoch_domain"), "count"),
        "geometry.project_epoch_domain.us": (
            t.us_per_call("geometry.project_epoch_domain"), "us"),
        "geometry.project_ball.calls": (t.calls("geometry.project_ball"), "count"),
        "geometry.project_ball.us": (t.us_per_call("geometry.project_ball"), "us"),
        "baselines.run_sgd.s": (t.total_s("baselines.run_sgd"), "s"),
        "baselines.run_gd.s": (t.total_s("baselines.run_gd"), "s"),
        "baselines.run_nag.s": (t.total_s("baselines.run_nag"), "s"),
        "baselines.sgd_self_us_per_step": (
            t.self_s("baselines.run_sgd") / sgd_steps * 1e6 if sgd_steps
            else 0.0, "us"),
        "bench.compute_reference_optimum.s": (
            t.total_s("bench.compute_reference_optimum"), "s"),
        "bench.reference_grad_calls": (
            t.calls("losses.mean_gradient",
                    parent="bench.compute_reference_optimum"), "count"),
        "bench.gen_synthetic.s": (t.total_s("bench.gen_synthetic"), "s"),
        "bench.write_trace_csv.s": (t.total_s("bench.write_trace_csv"), "s"),
        "bench.csv_bytes": (csv_bytes, "B"),
        "cli.main.self_s": (t.self_s("cli.main"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for branch in BRANCHES:
        m[f"geometry.branch.{branch}"] = (branches[branch], "count")
    for name in ("losses.full_objective", "losses.mean_gradient",
                 "losses.loss_grad"):
        m[f"{name}.calls"] = (t.calls(name), "count")
        m[f"{name}.us"] = (t.us_per_call(name), "us")
    m["losses.full_objective.bytes"] = (x_bytes, "B")
    m["losses.mean_gradient.bytes"] = (x_bytes, "B")
    for layer in LAYERS:
        m[f"solve_self_s.{layer}"] = (solve_table.layer_self_s(layer), "s")
    return m

"""Self-tests of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

They check that tracing does not change what the solver returns, that the
gate rejects corrupted results, that the printed metric names and units
match BENCHMARK.json, and that the benchmark fails cleanly without the
library source.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import env

env.require_package()

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def small(name: str) -> workloads.Workload:
    """The named single-run workload on a 60 x 6 instance with 3 epochs."""
    return dataclasses.replace(workloads.WORKLOADS[name], n=60, d=6, epochs=3)


def solve_once(wl, seed, tr=None):
    state = wl.setup(wl, seed, env.scratch_dir())
    try:
        if tr is None:
            return wl.evaluate(state, wl.solve(state))
        with tr.installed():
            raw = wl.solve(state)
        return wl.evaluate(state, raw)
    finally:
        state.close()


class TracingDoesNotPerturb(unittest.TestCase):
    def test_traced_points_are_bit_identical(self):
        for name in ("ls-interior", "logistic-boundary"):
            wl = small(name)
            plain = solve_once(wl, 3)
            tr = tracer.Tracer()
            traced = solve_once(wl, 3, tr)
            self.assertEqual(plain.digest, traced.digest, name)
            self.assertGreater(len(tr.start), 0, name)
            steps = tr.table().calls("oracle.sample_loss",
                                     parent="core.run_epoch")
            self.assertEqual(steps, traced.stoch_calls, name)
            self.assertEqual(sum(tr.branches.values()),
                             tr.table().calls("geometry.project_epoch_domain"))

    def test_wrappers_are_removed(self):
        before = [getattr(mod, attr) for mod, attr, _ in tracer.TARGETS]
        with tracer.Tracer().installed():
            pass
        after = [getattr(mod, attr) for mod, attr, _ in tracer.TARGETS]
        self.assertEqual(before, after)
        before = workloads.mixedgrad.bench.run_mixedgrad
        with self.assertRaises(RuntimeError):
            with workloads.capture_points():
                self.assertIsNot(workloads.mixedgrad.bench.run_mixedgrad,
                                 before)
                raise RuntimeError
        self.assertIs(workloads.mixedgrad.bench.run_mixedgrad, before)


class SelfTime(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tr = tracer.Tracer()
        with tr.span("a.outer"):
            with tr.span("b.inner"):
                pass
            with tr.span("b.inner"):
                pass
        t = tr.table()
        self.assertEqual(t.calls("b.inner", parent="a.outer"), 2)
        self.assertAlmostEqual(t.self_s("a.outer") + t.self_s("b.inner"),
                               t.total_s("a.outer"), places=12)


class Calibration(unittest.TestCase):
    def test_setups_are_scaled_by_their_bracketing_samples(self):
        ref = calibrate.REFERENCE_IMPORT_S
        timeline = calibrate.Timeline(pieces=[
            calibrate.Piece(1.0, ref / 2, ref / 2),
            calibrate.Piece(3.0, ref / 2, ref * 2),
            calibrate.Piece(5.0, ref * 2, ref * 2)])
        self.assertEqual(timeline.wall(), [1.0, 3.0, 5.0])
        for got, want in zip(timeline.scaled(), [2.0, 3.0 / 1.25, 2.5],
                             strict=True):
            self.assertAlmostEqual(got, want, places=12)

    def test_sample_times_a_fresh_import(self):
        self.assertGreater(calibrate.sample(), 0.0)

    def test_solve_windows_are_scaled_by_their_mean_sample(self):
        ref = calibrate.REFERENCE_KERNEL_S
        # Window [0, 1): samples ref and 3 ref, mean 2 ref, 4 ref busy;
        # window [1, 2): one sample 0.5 ref; window [2, 2.5): none, so
        # the mean of all samples (1.5 ref) applies.
        samples = [(0.1, ref), (0.5, 3 * ref), (1.2, ref / 2)]
        got = calibrate.scaled_seconds(0.0, 2.5, samples, window=1.0)
        want = (1 - 4 * ref) / 2 + (1 - ref / 2) * 2 + 0.5 / 1.5
        self.assertAlmostEqual(got, want, places=12)

    def test_pace_samples_during_a_block(self):
        pace = calibrate.Pace()
        _, wall_s, scaled_s = pace.timed(lambda: sum(range(3_000_000)))
        self.assertGreater(len(pace.samples), 0)
        self.assertGreater(wall_s, 0.0)
        self.assertGreater(scaled_s, 0.0)


class GateRejectsCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.good = solve_once(small("ls-interior"), 1).runs[0]

    def corrupted(self, **changes):
        return dataclasses.replace(self.good, problems=[], **changes)

    def test_good_run_passes(self):
        self.assertEqual(workloads.gate(self.good, workloads.RADIUS), [])

    def test_corruptions_fail(self):
        p = self.good.point
        cases = {
            "counter": self.corrupted(stoch_calls=self.good.stoch_calls + 1),
            "full counter": self.corrupted(full_calls=self.good.full_calls - 1),
            "infeasible": self.corrupted(point=p / np.linalg.norm(p) * 1.01),
            "non-finite": self.corrupted(point=np.full_like(p, np.nan)),
            "missing": self.corrupted(point=None),
            "negative error": self.corrupted(final_error=-1e-9),
            "nan error": self.corrupted(final_error=float("nan")),
            "diverged": self.corrupted(status="diverged"),
        }
        for label, bad in cases.items():
            self.assertNotEqual(workloads.gate(bad, workloads.RADIUS), [],
                                label)

    def test_changed_point_between_repetitions_fails(self):
        a = workloads.Outcome([self.good], "a")
        b = workloads.Outcome([self.good], "b")
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(run.judge([a, a], workloads.RADIUS), (2, 0))
            self.assertEqual(run.judge([a, b], workloads.RADIUS), (2, 1))

    def test_budget_formula(self):
        self.assertEqual(workloads.mixedgrad_budget(32, 7, 2.0), (174752, 7))
        self.assertEqual(workloads.mixedgrad_budget(32, 4, 2.0), (2720, 4))


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


class OutputMatchesSpec(unittest.TestCase):
    def check(self, trace, section):
        out = bench(env.ROOT, "--workload", "ls-interior", "--seed", "2",
                    "--seconds", "0.1", "--trace", str(trace))
        self.assertEqual(out.returncode, 0, out.stderr)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(printed, declared)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")

    def test_fails_without_library(self):
        bare = Path(tempfile.mkdtemp(dir=env.scratch_dir()))
        try:
            shutil.copy(env.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = bench(bare, "--workload", "ls-interior", "--seed", "0",
                        "--seconds", "1", "--trace", "0")
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()

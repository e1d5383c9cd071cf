"""Machine-speed calibration for ``setup_s`` and ``solve_s``.

The shared machines this benchmark runs on change speed by up to 2x within
seconds (on a 2-vCPU Xeon KVM guest one solve took 3.4-6.8 s within four
minutes), and CPU time follows wall time, so the slowdown is not time
spent off the CPU. Both times are therefore reported in reference seconds:
wall time scaled by a reference time over a calibration time measured at
the same moment.

Set-up. Most of a set-up on the small workloads is numpy's import, whose
time on such a machine also depends on how recently the machine was busy.
A run brackets each set-up it times with samples of ``import numpy`` in a
fresh interpreter, so no state of the library under test reaches them, and
scales the set-up's wall time by REFERENCE_IMPORT_S over their mean.

Solve. A solve repetition takes seconds, and the machine's speed changes
within one, so the samples are interleaved with it: every PERIOD_S a
SIGALRM handler runs ``kernel`` (a fixed copy of the solver's kind of work
on the benchmark's own arrays) in the same thread and records its time.
Each WINDOW_S of a repetition, less the kernel's own time, is scaled by
REFERENCE_KERNEL_S over the mean kernel time in that window. The mean,
unlike the median, also counts the short stalls that hit a few samples.
The kernel shares only the interpreter and the CPU caches with the
library. Over two sets of ten 18 s runs per workload, the median wall time
of a solve spread 8-32% (IQR over median), the scaled time 2-5%.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# About the numpy import time on the machine the benchmark was defined on,
# when busy: Intel Xeon (Sapphire Rapids) KVM guest, 2 vCPUs, Python
# 3.11.7, numpy 2.4.6. After an idle spell it took 0.15-0.18 s.
REFERENCE_IMPORT_S = 0.1
WARM_UP_S = 2.0
SAMPLE_TIMEOUT_S = 60
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy; "
                "print(repr(time.perf_counter() - t0))")

# About the mean kernel time on the same machine (busy), so that a solve
# in reference seconds is close to its wall time there.
REFERENCE_KERNEL_S = 3.0e-4
PERIOD_S = 0.01
WINDOW_S = 0.25
KERNEL_WARM_UP = 200
# 16 KB, so the kernel's data stays in L1: right after an 8 MB full-data
# pass on large-n, a kernel reading 320 KB ran 6% slower than warm, this
# one 2% slower, and only that much of a change in the library's cache use
# can reach the divisor.
_ROWS = np.random.default_rng(20130707).standard_normal((100, 20))
_START = np.full(20, 0.1)


def sample() -> float:
    """Seconds for ``import numpy`` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         capture_output=True, text=True,
                         timeout=SAMPLE_TIMEOUT_S, check=True)
    return float(out.stdout)


@dataclass(frozen=True)
class Piece:
    """A timed set-up with the calibration samples just before and after."""

    wall_s: float
    before: float
    after: float

    @property
    def scaled_s(self) -> float:
        return self.wall_s * REFERENCE_IMPORT_S / ((self.before + self.after) / 2)


@dataclass
class Timeline:
    """Timed set-ups, each bracketed by calibration samples."""

    pieces: list[Piece] = field(default_factory=list)
    last: float = 0.0

    def warm_up(self, seconds: float = WARM_UP_S) -> None:
        """Take samples for ``seconds`` and keep the last; the next set-up
        is timed after it. An idle machine of the kind this was built on
        runs numpy's import up to 1.7 times slower, and two-thread BLAS
        calls up to 20 times slower, for its first second or two of work."""
        t0 = perf_counter()
        self.last = sample()
        while perf_counter() - t0 < seconds:
            self.last = sample()

    def record(self, wall_s: float) -> None:
        after = sample()
        self.pieces.append(Piece(wall_s, self.last, after))
        self.last = after

    def wall(self) -> list[float]:
        return [p.wall_s for p in self.pieces]

    def scaled(self) -> list[float]:
        return [p.scaled_s for p in self.pieces]


def kernel() -> float:
    """Fixed work of the solver's kind: row reads, small dot products and
    vector updates on 20-vectors, about 0.3 ms."""
    w, total = _START, 0.0
    for x in _ROWS:
        r = float(w @ x) - 0.5
        w = w - 0.001 * r * x
        total += 0.5 * r * r
    return total


@dataclass
class Pace:
    """Kernel samples interleaved with a timed block: (start, seconds)."""

    samples: list[tuple[float, float]] = field(default_factory=list)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append((t0, perf_counter() - t0))

    @contextlib.contextmanager
    def sampling(self):
        """Take a kernel sample every PERIOD_S while the block runs."""
        for _ in range(KERNEL_WARM_UP):
            kernel()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """Run ``fn()`` with sampling; return (result, wall_s, scaled_s)."""
        self.samples.clear()
        with self.sampling():
            t0 = perf_counter()
            result = fn()
            t1 = perf_counter()
        if not self.samples:        # a block shorter than PERIOD_S
            self._sample(None, None)
        return result, t1 - t0, scaled_seconds(t0, t1, self.samples)


def scaled_seconds(t0: float, t1: float, samples, window: float = WINDOW_S,
                   reference: float = REFERENCE_KERNEL_S) -> float:
    """Time in [t0, t1) outside the kernel samples, in reference seconds:
    each ``window`` is scaled by ``reference`` over its mean sample (the
    mean of all samples if it holds none)."""
    overall = statistics.fmean(d for _, d in samples)
    total, lo = 0.0, t0
    while lo < t1:
        hi = min(lo + window, t1)
        inside = [d for s, d in samples if lo <= s < hi]
        busy = hi - lo - sum(inside)
        total += busy * reference / (statistics.fmean(inside) if inside
                                     else overall)
        lo = hi
    return total

"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

The last line of output is the set-up time in seconds.
"""

import sys
import time

import env


def workload(name: str):
    """The named workload, importing the library; exit 2 if unknown."""
    import workloads

    env.check_loaded(workloads.mixedgrad)
    if name not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        raise SystemExit(2)
    return workloads.WORKLOADS[name]


def timed_setup(name: str, seed: int):
    """Import the library and set the workload up; return (workload, state,
    seconds). Set-up is the package import (numpy included),
    ``gen_synthetic`` and ``compute_reference_optimum``."""
    t0 = time.perf_counter()
    wl = workload(name)
    state = wl.setup(wl, seed, env.scratch_dir())
    return wl, state, time.perf_counter() - t0


if __name__ == "__main__":
    env.require_package()
    _, state, elapsed = timed_setup(sys.argv[1], int(sys.argv[2]))
    state.close()
    print(repr(elapsed))

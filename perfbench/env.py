"""Process set-up shared by every benchmark entry point.

Importing this module caps the BLAS thread pools at the number of usable
cores and puts the checkout's ``src`` directory first on ``sys.path``, so
``import mixedgrad`` loads the library from source. It must be imported
before numpy.
"""

from __future__ import annotations

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "mixedgrad" / "__init__.py"

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def require_package() -> None:
    """Exit with status 2 unless the library source is in this checkout."""
    if not PACKAGE.is_file():
        sys.stderr.write(f"mixedgrad source not found at {PACKAGE.parent}\n")
        raise SystemExit(2)


def check_loaded(module) -> None:
    """Exit with status 2 if ``mixedgrad`` was imported from elsewhere."""
    if Path(module.__file__).resolve() != PACKAGE.resolve():
        sys.stderr.write(f"mixedgrad was imported from {module.__file__}, "
                         f"not from {PACKAGE}\n")
        raise SystemExit(2)


def scratch_dir() -> Path:
    """Directory inside the checkout for temporary files and traces."""
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def _lscpu_caches() -> dict:
    """L2 and L3 sizes in bytes as ``lscpu -B`` reports them (all instances)."""
    try:
        out = subprocess.run(["lscpu", "-B"], capture_output=True, text=True,
                             timeout=10, check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    sizes = {}
    for level in ("L2", "L3"):
        m = re.search(rf"^{level} cache:\s+(\d+)", out, re.MULTILINE)
        if m:
            sizes[f"{level.lower()}_bytes"] = int(m.group(1))
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe(load_at_start: tuple[float, float, float]) -> dict:
    """The run environment: versions, cores, CPU, caches, load and BLAS cap."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(load_at_start),
        "blas_thread_cap": NPROC,
        **_lscpu_caches(),
    }

"""Set-up timing, import profile and the machine description of a result."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

IMPORT_CLI = [sys.executable, "-c", "import fracdep.cli"]
IMPORT_MODULES = ("fracdep.specfun", "fracdep.analytic", "fracdep.cli")


def _env(src: Path, base_env: dict) -> dict:
    """``base_env`` with ``src`` on the path and byte-code caching allowed,
    so that set-up is timed the way an installed copy imports."""
    env = dict(base_env)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), base_env.get("PYTHONPATH", "")) if p)
    return env


class SetupClock:
    """Times fresh interpreters importing ``fracdep.cli``.

    The constructor makes one untimed import, so byte-code caches are
    written as they are for any installed copy.  ``base_env`` is the
    caller's environment before the benchmark pinned its own thread counts.
    """

    def __init__(self, src: Path, base_env: dict) -> None:
        self.env = _env(src, base_env)
        self.seconds: list = []
        subprocess.run(IMPORT_CLI, env=self.env, check=True, stdout=subprocess.DEVNULL)

    def sample(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(IMPORT_CLI, env=self.env, check=True, stdout=subprocess.DEVNULL)
        self.seconds.append(time.perf_counter() - t0)


def import_ms(src: Path, base_env: dict, repeats: int) -> dict:
    """Median cumulative import time per fracdep module, from ``-X importtime``."""
    env = _env(src, base_env)
    samples: dict = {m: [] for m in IMPORT_MODULES}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", *IMPORT_CLI[1:]],
                              env=env, check=True, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        for line in proc.stderr.splitlines():
            # "import time: self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {m: statistics.median(v) for m, v in samples.items() if v}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines(src: Path) -> int:
    total = 0
    for path in sorted(src.rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def describe(src: Path) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines(src),
    }

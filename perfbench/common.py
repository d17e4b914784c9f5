"""Shared pieces of the workloads: outcome tally, statistics, host stamp, set-up probe."""

from __future__ import annotations

import importlib.util
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

#: the checkout's source tree; run.py puts it on sys.path before any workload
SRC = Path("src").resolve()

#: scratch space inside the checkout (stores, worker logs, worker spans)
OUT = Path(".perfbench").resolve()

#: the CPUs the benchmark may use, read before :func:`pin` narrows them
USABLE_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


class Outcome:
    """Operations attempted and failed, output checks, metrics and notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []

    def op(self, ok: bool = True) -> None:
        """Count one operation of the workload (a run, a request, a cell)."""
        self.ops(1, 0 if ok else 1)

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Count one output check; a failed one is a failure like a failed op."""
        self.op(ok)
        if not ok:
            self.notes.append(f"CHECK FAILED {name}: {detail}")

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def document(self, units: dict[str, str]) -> dict[str, Any]:
        """The result line; only metrics ``units`` declares are reported."""
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in self.metrics.items()
                if name in units
            },
        }


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    """Peak RSS of this process, which hosts the pipelines or the server.

    Children (the import probes, the service's worker) are left out.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def import_probe(modules: tuple[str, ...]) -> float:
    """Wall time of a fresh interpreter that imports ``modules`` and exits."""
    code = "import " + ", ".join(modules)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True)
    return time.perf_counter() - start


def pin(pid: int) -> None:
    """Pin ``pid`` (0: the calling thread) to the first usable CPU.

    Threads started later inherit the pin, and the service's queue worker
    is pinned to the same CPU, so the server threads, the client and the
    worker hand every request, claim and result over on one CPU instead of
    waking a second, idle virtual CPU, whose wake-up delay on a shared host
    varies from run to run.  With the worker on a CPU of its own, miss
    latency spread 0.21 (IQR over median) over six seeds; on one CPU, run
    alternately with it, 0.04.  A pipeline run stays on one CPU.
    """
    if USABLE_CPUS:
        os.sched_setaffinity(pid, {USABLE_CPUS[0]})


def _git_sha() -> str:
    git = shutil.which("git")
    if git is None:
        return "unknown"
    # Only the checkout itself counts: git must not walk up into a parent
    # directory's repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        done = subprocess.run(
            [git, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_fingerprint() -> dict[str, Any]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(USABLE_CPUS) or os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": _git_sha(),
    }

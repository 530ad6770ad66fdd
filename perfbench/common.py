"""Shared helpers of the benchmark: statistics, memory, host facts, results.

Everything here is independent of the program under test, so the
workload modules can import it before ``repro`` is importable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parent.parent

#: Where traced runs write their spans and summaries (inside the checkout).
OUT_DIR = ROOT / ".perfbench_out"


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    Matches ``numpy.percentile``'s default, without importing NumPy
    before the program under test is known to be importable.
    """
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_mean(values: list[float], q: float) -> float:
    """Mean of the slowest ``100 - q`` percent of ``values`` (at least one).

    The expected value beyond the ``q``-th percentile: it weighs every
    sample in the tail, so it varies far less from run to run than the
    single order statistic a percentile picks.
    """
    if not values:
        raise ValueError("tail mean of no samples")
    k = max(1, math.ceil(len(values) * (100.0 - q) / 100.0 - 1e-9))
    return math.fsum(sorted(values)[-k:]) / k


def digest(values) -> str:
    """Short stable hash of a sequence of numbers (exact float reprs)."""
    h = hashlib.sha256()
    for v in values:
        h.update(repr(v).encode())
        h.update(b",")
    return h.hexdigest()[:16]


def host_cores() -> int:
    """Cores this process may run on (the affinity mask, not the machine)."""
    return len(os.sched_getaffinity(0))


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of a live process, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_pids() -> list[int]:
    """Live child processes of this process, from every thread's list."""
    pids: list[int] = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return sorted(set(pids))


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Closing a framework joins its pool workers, but the first shared-memory
    segment also starts multiprocessing's resource tracker, which would
    otherwise outlive this process. It is stopped here (it unlinks any
    segment an error path left behind); any other child an error path
    left running is killed and reaped.
    """
    if "multiprocessing.resource_tracker" in sys.modules:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


class SetupError(RuntimeError):
    """The workload cannot run meaningfully on this host."""


class PeakRss:
    """Peak RSS of this process plus its live workers, in MB.

    Workers are sampled while alive (call :meth:`sample_children` before
    closing a pool); each sample sums the peaks of the children alive
    together, and the largest such sum counts.
    """

    def __init__(self) -> None:
        self._children_kb = 0

    def sample_children(self) -> None:
        kb = sum(_vm_hwm_kb(pid) for pid in _child_pids())
        self._children_kb = max(self._children_kb, kb)

    def mb(self) -> float:
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (self_kb + self._children_kb) / 1024.0


def library_versions() -> dict[str, str]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class Result:
    """What one run reports: op counts, checks and metrics by name."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, why: str, ops: int = 1) -> None:
        """Record a failed output check (``ops`` operations affected)."""
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(why)

    def metric(self, name: str, value: float, unit: str) -> None:
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.metrics[name] = (float(value), unit)

    def final_line(self) -> str:
        return json.dumps({
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })


class Stopwatch:
    """``perf_counter`` interval: ``with Stopwatch() as sw: ...; sw.s``."""

    def __enter__(self) -> "Stopwatch":
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.s = time.perf_counter() - self.t0


def eprint(*args: object) -> None:
    print(*args, file=sys.stderr, flush=True)

"""Shared pieces of the lifecycle benchmark: statistics, the operation
ledger, the host stamp and the result line.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has put the checkout's ``src/`` on the import path.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch directory for artefacts and traces; listed in ``.gitignore``.
WORK_DIR = ROOT / ".perfbench"


def median(values) -> float:
    values = sorted(float(v) for v in values)
    if not values:
        raise ValueError("median of no samples")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def tail(values) -> tuple[float, float]:
    """``(percentile, value)``: the highest of p99.9/p99/p90/p50 that
    still has at least ten samples beyond it (nearest-rank)."""
    values = sorted(float(v) for v in values)
    n = len(values)
    if not n:
        raise ValueError("tail of no samples")
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            rank = max(1, math.ceil(pct / 100.0 * n))
            return pct, values[rank - 1]
    return 50.0, median(values)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples (per-layer use)."""
    values = sorted(float(v) for v in values)
    if not values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(values)))
    return values[rank - 1]


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


@dataclass
class Ledger:
    """Operations attempted and failed, correctness checks included.

    A failed check is a failed operation: it raises ``failed`` and
    names itself in ``failures``; it never passes silently.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ops(self, n: int = 1) -> None:
        self.attempted += int(n)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return bool(ok)


def host_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop.

    The speed of a shared host drifts by tens of percent over minutes;
    this figure, taken before and after each run, tells host drift
    apart from a change in the program.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _spin(200_000)
        times.append(time.perf_counter() - start)
    return median(times) * 1e3


def _spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def reference_ms() -> float:
    """Shortest of five passes of a fixed pure-Python loop (about 1 ms)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _spin(12_000)
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


#: What ``reference_ms()`` reads on the host the benchmark was tuned on,
#: between its slow and fast periods.  ``Pace`` scales timings to it.
REFERENCE_MS = 1.0


class Pace:
    """The host's speed around a block of timed work.

    ``factor`` is ``REFERENCE_MS`` over the mean of ``reference_ms()``
    just before and just after the block; a wall time taken inside the
    block, times ``factor``, is that time at the reference speed.  On a
    shared host the CPU's speed switches between periods tens of
    percent apart, lasting seconds to minutes, and every timing of a
    CPU-bound step moves with it; the reference loop runs next to the
    step, so it moves too, and the scaled time keeps only what the
    program changes.
    """

    def __enter__(self) -> "Pace":
        self.before = reference_ms()
        return self

    def __exit__(self, *exc) -> None:
        self.factor = 2.0 * REFERENCE_MS / (self.before + reference_ms())


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_stamp(workload: str, seed: int, trace: bool) -> dict:
    """Host fingerprint: entries are comparable only when this matches."""
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host_loop_ms_before": host_loop_ms(),
    }


def result_line(ledger: Ledger, metrics: dict[str, tuple[float, str]]) -> str:
    """The benchmark's last stdout line."""
    return json.dumps(
        {
            "correct": ledger.failed == 0,
            "attempted": max(1, ledger.attempted),
            "failed": ledger.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
        allow_nan=False,
    )


def emit(stamp: dict, ledger: Ledger, metrics: dict, notes: dict) -> None:
    """Print the stamp, a readable table, then the result line."""
    stamp = {**stamp, "host_loop_ms_after": host_loop_ms()}
    print(json.dumps({"stamp": stamp, "notes": notes}, allow_nan=False))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    if ledger.failures:
        print("failed checks: " + "; ".join(ledger.failures), file=sys.stderr)
    print(result_line(ledger, metrics), flush=True)

"""Shared pieces of the NED benchmark: bootstrap, digests, statistics, host probe.

Everything here is program-independent except :func:`bootstrap`, which puts
the checkout's ``src/`` first on ``sys.path`` and refuses to run without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

#: Clock for every measurement.  On Linux it reads CLOCK_MONOTONIC, which is
#: system-wide, so spans recorded in the server process line up with the
#: benchmark process's timed window.
clock = time.perf_counter

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_FILE = BENCH_DIR / "expected.json"
#: Latency samples a run needs so that ten lie beyond its p95.
MIN_SAMPLES = 200
#: Consecutive samples per window of :func:`typical_ms`.
TYPICAL_WINDOW = 50
#: A run where more operations than this share fail reports no result.
MAX_FAILED_SHARE = 0.05
#: Tree depth of every workload's store (the paper's default k).
K = 3


class BenchmarkError(RuntimeError):
    """A run that cannot produce a trustworthy result (setup or gate failure)."""


def bootstrap(root: Path) -> Path:
    """Make ``root/src`` importable ahead of anything installed; return it.

    The benchmark measures the program in the checkout it runs from, never a
    copy installed elsewhere, so a checkout without ``src/repro`` is an error.
    """
    src = (root / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise BenchmarkError(f"imported repro from {repro.__file__}, not from {src}")
    return src


# ------------------------------------------------------------------ answers
def canonical(value: Any) -> Any:
    """Plain-JSON form of an answer: tuples become lists, floats stay exact."""
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    return value


def digest(answers: Any) -> str:
    """sha256 over the canonical JSON of ``answers`` (bit-exact floats)."""
    payload = json.dumps(canonical(answers), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def expected_digest(workload: str, key: str) -> "str | None":
    """The recorded digest for ``workload`` at ``key``, if one was recorded."""
    if not EXPECTED_FILE.is_file():
        return None
    table = json.loads(EXPECTED_FILE.read_text())
    return table.get(workload, {}).get(key)


def check_digest(workload: str, key: str, observed: str) -> str:
    """Fail unless ``observed`` equals the recorded digest (when recorded).

    Returns ``"recorded"`` when a recorded digest was matched and ``"in-run"``
    when the seed has no record, leaving the workload's own in-run reference
    as the only gate.
    """
    expected = expected_digest(workload, key)
    if expected is None:
        return "in-run"
    if expected != observed:
        raise BenchmarkError(
            f"{workload} answers for {key} digest to {observed}, "
            f"recorded {expected}"
        )
    return "recorded"


# --------------------------------------------------------------- statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _windows(seconds: Sequence[float], least: int) -> List[Sequence[float]]:
    """``seconds`` cut into consecutive, near-equal windows of ``least`` or more."""
    count = len(seconds) // least
    size = len(seconds) / max(count, 1)
    return [seconds[round(i * size):round((i + 1) * size)] for i in range(count)]


def p95_ms(seconds: Sequence[float]) -> float:
    """p95 in milliseconds: the mean of per-window p95s.

    ``seconds`` is in time order.  It is cut into consecutive windows of at
    least ``MIN_SAMPLES`` samples, so each window's nearest-rank p95 has ten
    samples beyond it.  The host alternates between two speeds for seconds
    at a time; the mean over windows moves in proportion to the time spent
    in each, where one pooled p95 is set by whichever covers the tail.
    """
    windows = _windows(seconds, MIN_SAMPLES)
    if not windows:
        raise BenchmarkError(
            f"{len(seconds)} latency samples leave fewer than 10 beyond p95"
        )
    return statistics.fmean(percentile(window, 95) for window in windows) * 1000.0


def typical_ms(seconds: Sequence[float]) -> float:
    """Typical latency in milliseconds: the mean of per-window medians.

    ``seconds`` is in time order, cut into windows of ``TYPICAL_WINDOW``.
    """
    windows = _windows(seconds, TYPICAL_WINDOW) or [seconds]
    return statistics.fmean(statistics.median(window) for window in windows) * 1000.0


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Another process's ``VmHWM`` (peak RSS) in MiB, read from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"/proc/{pid}/status has no VmHWM line")


def host_speed_s() -> float:
    """Machine-speed probe: best of three timings of a fixed integer loop.

    It touches nothing of the program, so a slow reading beside a slow run
    points at the host.  It is reported, never used to scale a metric.
    """
    best = math.inf
    for _ in range(3):
        started = clock()
        total = 0
        for index in range(300_000):
            total = (total + index * index) % 1_000_003
        best = min(best, clock() - started)
    return best


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def result_line(attempted: int, failed: int, metrics: Dict[str, Dict[str, Any]]) -> str:
    """The result object; printed only for a run that passed every gate."""
    return json.dumps(
        {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def histogram_sum(snapshot: Dict[str, Any], name: str) -> float:
    histogram = snapshot.get("histograms", {}).get(name)
    return float(histogram["sum"]) if histogram else 0.0


def histogram_count(snapshot: Dict[str, Any], name: str) -> int:
    histogram = snapshot.get("histograms", {}).get(name)
    return int(histogram["count"]) if histogram else 0

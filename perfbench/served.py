"""The ``served_mix`` workload: ``python -m repro.serving --workers 1`` under light load.

Set-up builds a GNU-stand-in store, saves it, spawns the service, waits for
its address line and warms its cache with the stream's first requests.
The timed phase is an open loop at a fixed rate, 20 to 30 % of the capacity
``capacity.py`` measures for this stream (62 to 105 requests/s with two
closed-loop senders on a 2-vCPU VM, depending on the host's speed phase), so
that the host's slow phases still leave the server well below saturation and
queueing does not amplify them.  Each request carries one exact ``TopLPlan`` and one
bound-pruned ``KnnPlan`` on probes from a perturbed copy; a fixed share of
probes is fresh and the rest repeat recent ones, so dedup and the cache
matter while the hit rate stays the same from seed to seed.  Fresh exact
top-L probes produce the blocks the shared-memory worker evaluates.
"""

from __future__ import annotations

import os
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from common import BENCH_DIR, K, BenchmarkError, clock, proc_peak_rss_mb

GNU_SCALE = 0.3
PERTURBATION = 0.05
TOP_L = 5
KNN_COUNT = 10
#: Requests per second of the timed open loop (20-30 % of capacity).
RATE = 20.0
#: Closed-loop requests sent before timing, so the cache hit rate is steady.
WARMUP = 40
#: Every FRESH_TOPL-th request's top-L probe, and every FRESH_KNN-th
#: request's kNN probe, is a node not asked before; the rest repeat one of
#: the last RECENT probes.  At RATE for 45 s the fresh exact top-L probes
#: bring at most about 35 k pair entries to the server's 32 k-entry LRU
#: cache, while the recent probes use under 10 k, so only entries of probes
#: that left the recent window are evicted and the hit rate does not drift
#: within a run.
FRESH_TOPL = 8
FRESH_KNN = 3
RECENT = 16
#: Sender threads and connections never exceed the host's cores.
SENDERS = max(1, min(2, os.cpu_count() or 1))
READY_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


@dataclass
class Inputs:
    store: Any
    requests: List[List[Any]]
    #: Names the answers in the recorded-digest table: seed and sizes.
    key: str


def make_inputs(seed: int, count: int, scale: float = GNU_SCALE) -> Inputs:
    """The store and ``count`` requests (warm-up first) for ``seed``."""
    from repro.anonymize.anonymizers import perturbation_anonymization
    from repro.datasets.registry import load_dataset
    from repro.engine import KnnPlan, NedSession, TopLPlan, TreeStore

    graph = load_dataset("GNU", scale=scale)
    store = TreeStore.from_graph(graph, K)
    anonymised = perturbation_anonymization(graph, PERTURBATION, seed=seed).graph
    rng = random.Random(seed)
    nodes = sorted(anonymised.nodes())
    session = NedSession(store)
    probes: Dict[Any, Any] = {}

    def stream(fresh_every: int):
        order = rng.sample(nodes, len(nodes))
        recent: List[Any] = []
        for index in range(count):
            if index % fresh_every == 0 or not recent:
                node = order[(index // fresh_every) % len(order)]
                recent = (recent + [node])[-RECENT:]
            else:
                node = rng.choice(recent)
            if node not in probes:
                probes[node] = session.probe(anonymised, node)
            yield probes[node]

    requests = [
        [TopLPlan(top, TOP_L, mode="exact"), KnnPlan(near, KNN_COUNT)]
        for top, near in zip(stream(FRESH_TOPL), stream(FRESH_KNN))
    ]
    session.close()
    return Inputs(store, requests, f"{seed}/{count}x{len(store)}")


def answers_of(results: List[Any]) -> List[Any]:
    return [[[node, distance] for node, distance in result] for result in results]


def in_process_answers(inputs: Inputs) -> List[Any]:
    """Every request answered by ``NedSession.execute_batch`` in this process."""
    from repro.engine import NedSession

    flat = [plan for request in inputs.requests for plan in request]
    with NedSession(inputs.store) as session:
        results = session.execute_batch(flat)
    out, position = [], 0
    for request in inputs.requests:
        out.append(answers_of(results[position:position + len(request)]))
        position += len(request)
    return out


class ServerProcess:
    """One ``ned-serve`` child process, started and stopped by the benchmark."""

    def __init__(self, root: Path, store_path: Path, spans_out: Optional[Path]) -> None:
        args = ["--store-dir", str(store_path), "--workers", "1", "--port", "0"]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.serving", *args]
        else:
            command = [
                sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                "--spans-out", str(spans_out), "--", *args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.stderr_path = store_path.with_suffix(".stderr")
        self._stderr = open(self.stderr_path, "wb")
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._stderr,
        )
        self.host, self.port = self._await_address()

    def _await_address(self):
        deadline = clock() + READY_TIMEOUT
        buffer = b""
        stdout = self.process.stdout
        while clock() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.2)
            if ready:
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    break
                buffer += chunk
                match = re.search(rb"at http://([^:\s]+):(\d+)", buffer)
                if match:
                    return match.group(1).decode(), int(match.group(2))
            elif self.process.poll() is not None:
                break
        self.stop()
        raise BenchmarkError(
            f"ned-serve did not report an address: {self.stderr_path.read_text()[-2000:]}"
        )

    def client(self):
        from repro.serving.client import NedServiceClient

        return NedServiceClient(self.host, self.port, timeout=30.0)

    def stop(self) -> float:
        """Read the server's peak RSS, SIGTERM it and wait; returns MiB."""
        rss = 0.0
        if self.process.poll() is None:
            rss = proc_peak_rss_mb(self.process.pid)
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=STOP_TIMEOUT)
        self.process.stdout.close()
        self._stderr.close()
        return rss


def telemetry_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Counter and histogram (count, sum) deltas; gauges as read after."""
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    histograms = {}
    for name, histogram in after["histograms"].items():
        old = before["histograms"].get(name, {"count": 0, "sum": 0.0})
        histograms[name] = {
            "count": histogram["count"] - old["count"],
            "sum": histogram["sum"] - old["sum"],
        }
    return {"counters": counters, "histograms": histograms, "gauges": after["gauges"]}


class WorkDir:
    """A private scratch directory inside the checkout, removed on exit.

    The benchmark reads and writes only inside the checkout it measures, so
    the saved stores, server logs and span dumps go under
    ``.perfbench_work/`` there rather than to the system's temp directory.
    """

    def __init__(self, root: Path) -> None:
        base = root / ".perfbench_work"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass

"""Multi-process NED service load benchmark — cold fleet vs shared service.

Measures the question the serving tentpole exists to answer: given C
clients that each need the same cold store served, is one multi-process
:mod:`repro.serving` service (store exported once into shared memory, N
workers, adaptive batch ticks) faster than C independent cold sessions?

Three phases, all against a **real** subprocess server (``python -m
repro.serving``) and real concurrent clients:

* **baseline** — C child processes run concurrently; each one cold-loads
  the sharded store, opens its own :class:`~repro.engine.NedSession`,
  executes its plan workload and prints a result digest.  Wall time is
  spawn-of-first to exit-of-last: what C "just import the library" clients
  actually pay.
* **service** — one ``ned-serve`` subprocess cold-starts over the same
  shards, then C client threads submit the *same* per-client workloads
  over HTTP.  Wall time includes the server's cold start.  Digests must be
  bit-identical to the baseline's, per client; the server's telemetry must
  show the store was stream-decoded at most once per shard (the shared-
  memory export), i.e. zero per-worker re-decodes.
* **shed burst** — the server restarts with ``--max-queue-depth 1`` and a
  burst of concurrent requests hits it; every rejected request must
  surface client-side as a *typed* :class:`~repro.exceptions.OverloadError`
  / :class:`~repro.exceptions.DeadlineError` (never a bare HTTP failure),
  and every accepted one must still digest-match the reference.

Aggregate throughput (plans/sec) for both arms, the speedup, and the shed
accounting land in ``BENCH_serving.json``.  ``--min-speedup X`` turns the
speedup into a CI gate; the serving-load job runs ``--smoke --min-speedup
2``.

Runs standalone::

    PYTHONPATH=src python benchmarks/bench_serving.py --smoke
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from repro.datasets import load_dataset  # noqa: E402
from repro.engine.session import (  # noqa: E402
    KnnPlan,
    NedSession,
    PairwiseMatrixPlan,
)
from repro.engine.shards import ShardedTreeStore, save_sharded  # noqa: E402
from repro.engine.tree_store import TreeStore, summarize_tree  # noqa: E402
from repro.exceptions import DeadlineError, OverloadError, ReproError  # noqa: E402
from repro.ted.bounds import DEGREE_BOUND_EXACT_MAX_K  # noqa: E402
from repro.trees.adjacent import k_adjacent_tree  # noqa: E402
from repro.utils.timer import clock  # noqa: E402

#: Default tree levels.  At k <= 3 the bound survey decides every pair in
#: the serving process, so the workers only see exact blocks from k = 4 on
#: (``--k 4``, where the run must dispatch some).
K = 2

#: Matches the ready line ``ned-serve`` prints once it is accepting
#: requests: ``... at http://127.0.0.1:40123``.
_READY_LINE = re.compile(r"at http://([0-9.]+):(\d+)")


def _subprocess_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ----------------------------------------------------------------- workload
def build_client_plans(graph, k: int, probes: int, client_index: int) -> List[Any]:
    """The deterministic plan workload of one client.

    Every client asks for the same all-pairs matrix (the replicated heavy
    query) plus its own window of kNN probes; both the baseline children
    and the service clients rebuild this from the same arguments, so the
    two arms execute identical work.
    """
    nodes = sorted(graph.nodes())
    plans: List[Any] = [PairwiseMatrixPlan(mode="exact", chunk_size=32)]
    for offset in range(probes):
        node = nodes[(client_index * probes + offset) % len(nodes)]
        probe = summarize_tree(node, k_adjacent_tree(graph, node, k), k)
        plans.append(KnnPlan(probe, 5))
    return plans


def digest_results(results: List[Any]) -> str:
    """A stable content digest over a result list (points and matrices)."""

    def canon(result: Any) -> Any:
        if isinstance(result, list):
            return ["point", [[repr(node), float(d)] for node, d in result]]
        return [
            "matrix",
            [repr(node) for node in result.row_nodes],
            [repr(node) for node in result.col_nodes],
            [[float(v) for v in row] for row in result.values],
        ]

    blob = json.dumps([canon(result) for result in results], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ------------------------------------------------------- baseline child mode
def client_baseline_main(args: argparse.Namespace) -> int:
    """One cold per-client session: load shards, run the workload, digest."""
    graph = load_dataset(args.dataset, scale=args.scale)
    store = ShardedTreeStore.load(args.store_dir)
    session = NedSession(store)
    try:
        plans = build_client_plans(graph, args.k, args.probes, args.client_index)
        results = session.execute_batch(plans)
        print(json.dumps({"digest": digest_results(results), "plans": len(plans)}))
    finally:
        session.close()
    return 0


# ------------------------------------------------------------ service driver
class ServerProcess:
    """A real ``python -m repro.serving`` subprocess, parsed-ready."""

    def __init__(self, store_dir: Path, workers: int, extra: List[str]) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serving",
                "--store-dir",
                str(store_dir),
                "--workers",
                str(workers),
                "--port",
                "0",
                *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_subprocess_env(),
            text=True,
        )
        line = self.proc.stdout.readline()
        match = _READY_LINE.search(line)
        if not match:
            self.proc.kill()
            out, err = self.proc.communicate(timeout=10)
            raise RuntimeError(
                f"ned-serve did not come up; line={line!r} stderr={err!r}"
            )
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


def run_baseline(
    store_dir: Path, args: argparse.Namespace
) -> Dict[str, Any]:
    """C concurrent cold per-client sessions; returns wall + per-client digests."""
    started = clock()
    children = [
        subprocess.Popen(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--client-baseline",
                "--store-dir",
                str(store_dir),
                "--dataset",
                args.dataset,
                "--scale",
                str(args.scale),
                "--k",
                str(args.k),
                "--probes",
                str(args.probes),
                "--client-index",
                str(index),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_subprocess_env(),
            text=True,
        )
        for index in range(args.clients)
    ]
    digests: List[Optional[str]] = [None] * args.clients
    plans = 0
    for index, child in enumerate(children):
        out, err = child.communicate(timeout=600)
        if child.returncode != 0:
            raise RuntimeError(f"baseline client {index} failed: {err}")
        record = json.loads(out)
        digests[index] = record["digest"]
        plans += record["plans"]
    wall = clock() - started
    return {
        "wall_seconds": wall,
        "digests": digests,
        "total_plans": plans,
        "plans_per_sec": plans / wall if wall else None,
    }


def run_service(store_dir: Path, args: argparse.Namespace) -> Dict[str, Any]:
    """One shared server + C concurrent clients; wall includes cold start."""
    from repro.serving.client import NedServiceClient

    graph = load_dataset(args.dataset, scale=args.scale)
    started = clock()
    server = ServerProcess(
        store_dir, args.workers, ["--min-pairs", str(args.min_pairs)]
    )
    digests: List[Optional[str]] = [None] * args.clients
    errors: List[BaseException] = []

    def one_client(index: int) -> None:
        client = NedServiceClient(
            host=server.host, port=server.port, tenant=f"client-{index}"
        )
        try:
            results = client.execute_batch(
                build_client_plans(graph, args.k, args.probes, index)
            )
            digests[index] = digest_results(results)
        except ReproError as error:  # collected, reported by the driver
            errors.append(error)

    threads = [
        threading.Thread(target=one_client, args=(index,))
        for index in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = clock() - started
    client = NedServiceClient(host=server.host, port=server.port)
    telemetry = client.telemetry()
    status = client.status()
    shm_segments = _shm_segment_names()
    rc = server.stop()
    if errors:
        raise RuntimeError(f"service clients failed: {errors}")
    if rc != 0:
        raise RuntimeError(f"ned-serve exited with {rc} on SIGTERM")
    leaked = _shm_segment_names() & shm_segments
    counters = telemetry["merged"]["counters"]
    plans = args.clients * (args.probes + 1)
    return {
        "wall_seconds": wall,
        "digests": digests,
        "total_plans": plans,
        "plans_per_sec": plans / wall if wall else None,
        "workers": status.get("workers"),
        "stream_decodes": counters.get("shards.stream_decodes", 0),
        "dispatch_blocks": counters.get("serving.dispatch_blocks", 0),
        "requests": counters.get("serving.requests", 0),
        "leaked_segments": sorted(leaked),
    }


def _shm_segment_names() -> set:
    root = Path("/dev/shm")
    if not root.exists():  # pragma: no cover - non-Linux
        return set()
    return {p.name for p in root.iterdir() if p.name.startswith("psm_")}


def run_shed_burst(store_dir: Path, args: argparse.Namespace) -> Dict[str, Any]:
    """Hammer a depth-1 queue; sheds must be typed, successes identical."""
    from repro.serving.client import NedServiceClient

    graph = load_dataset(args.dataset, scale=args.scale)
    plan = PairwiseMatrixPlan(mode="exact", chunk_size=32)
    reference_store = ShardedTreeStore.load(store_dir)
    reference_session = NedSession(reference_store)
    try:
        expected = digest_results([reference_session.execute(plan)])
    finally:
        reference_session.close()
    server = ServerProcess(store_dir, 0, ["--max-queue-depth", "1"])
    outcomes: List[str] = []
    lock = threading.Lock()

    def one_request() -> None:
        client = NedServiceClient(host=server.host, port=server.port)
        try:
            got = digest_results([client.execute(plan)])
            outcome = "ok" if got == expected else "mismatch"
        except OverloadError:
            outcome = "overload"
        except DeadlineError:
            outcome = "deadline"
        except ReproError as error:
            outcome = f"untyped:{type(error).__name__}"
        with lock:
            outcomes.append(outcome)

    threads = [threading.Thread(target=one_request) for _ in range(args.burst)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    rc = server.stop()
    if rc != 0:
        raise RuntimeError(f"ned-serve exited with {rc} after the shed burst")
    record = {
        "burst": args.burst,
        "ok": outcomes.count("ok"),
        "shed_overload": outcomes.count("overload"),
        "shed_deadline": outcomes.count("deadline"),
        "mismatches": outcomes.count("mismatch"),
        "untyped": [o for o in outcomes if o.startswith("untyped")],
    }
    if record["mismatches"]:
        raise RuntimeError("a shed-burst success diverged from the reference")
    if record["untyped"]:
        raise RuntimeError(
            f"shed requests surfaced untyped errors: {record['untyped']}"
        )
    return record


# ------------------------------------------------------------------- driver
def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from _bench_utils import emit_bench_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (seconds, not minutes)")
    parser.add_argument("--dataset", default="CAR")
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale (default 0.08 with --smoke, 0.2 otherwise)")
    parser.add_argument("--k", type=int, default=K,
                        help=f"tree levels (default {K}); from 4 on the run "
                             "must dispatch exact blocks to the workers")
    parser.add_argument("--clients", type=int, default=None,
                        help="concurrent clients (default 3 with --smoke, 4 otherwise)")
    parser.add_argument("--probes", type=int, default=3,
                        help="kNN probes per client (plus one matrix plan each)")
    parser.add_argument("--workers", type=int, default=2,
                        help="service worker processes")
    parser.add_argument("--min-pairs", type=int, default=8,
                        help="smallest exact block dispatched to the workers")
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--burst", type=int, default=12,
                        help="concurrent requests in the shed-burst phase")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless service beats the cold baseline "
                             "fleet by at least this factor (CI gate)")
    parser.add_argument("--client-baseline", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--store-dir", type=Path, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--client-index", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = 0.08 if args.smoke else 0.2
    if args.clients is None:
        args.clients = 3 if args.smoke else 4
    if args.client_baseline:
        return client_baseline_main(args)

    with tempfile.TemporaryDirectory(prefix="bench_serving_") as tmp:
        store_dir = Path(tmp) / "shards"
        graph = load_dataset(args.dataset, scale=args.scale)
        store = TreeStore.from_graph(graph, k=args.k)
        save_sharded(store, store_dir, shards=args.shards)
        print(f"serving load bench: {args.dataset} scale={args.scale} k={args.k} "
              f"({len(store)} entries, {args.shards} shards), "
              f"{args.clients} clients x {args.probes}+1 plans, "
              f"{args.workers} workers")

        baseline = run_baseline(store_dir, args)
        service = run_service(store_dir, args)
        if service["digests"] != baseline["digests"]:
            raise RuntimeError(
                "service digests diverged from the cold per-client sessions"
            )
        if service["leaked_segments"]:
            raise RuntimeError(
                f"leaked /dev/shm segments: {service['leaked_segments']}"
            )
        if args.k > DEGREE_BOUND_EXACT_MAX_K and not service["dispatch_blocks"]:
            raise RuntimeError(
                f"no exact block reached the workers at k={args.k}"
            )
        if service["stream_decodes"] > args.shards:
            raise RuntimeError(
                f"store was re-decoded while serving: "
                f"{service['stream_decodes']} stream decodes for "
                f"{args.shards} shards (workers must attach, not decode)"
            )
        shed = run_shed_burst(store_dir, args)

    speedup = baseline["wall_seconds"] / service["wall_seconds"]
    record = {
        "workload": {
            "dataset": args.dataset,
            "scale": args.scale,
            "k": args.k,
            "entries": len(store),
            "shards": args.shards,
            "clients": args.clients,
            "plans_per_client": args.probes + 1,
            "workers": args.workers,
        },
        "baseline_cold_fleet": {
            k: v for k, v in baseline.items() if k != "digests"
        },
        "service": {k: v for k, v in service.items() if k != "digests"},
        "speedup_vs_cold_fleet": speedup,
        "digests_identical": True,
        "shed_burst": shed,
    }
    section = "serving_load" if args.k == K else f"serving_load_k{args.k}"
    emit_bench_json(section, record, path=Path("BENCH_serving.json"))
    print(f"  baseline (cold fleet): {baseline['wall_seconds']:.2f}s "
          f"({baseline['plans_per_sec']:.1f} plans/sec)")
    print(f"  service  (shared shm): {service['wall_seconds']:.2f}s "
          f"({service['plans_per_sec']:.1f} plans/sec), "
          f"{service['stream_decodes']} stream decodes, "
          f"{service['dispatch_blocks']} dispatched blocks")
    print(f"  speedup: {speedup:.1f}x; digests bit-identical per client")
    print(f"  shed burst: {shed['ok']} ok, {shed['shed_overload']} overload, "
          f"{shed['shed_deadline']} deadline (all typed)")
    print("recorded in BENCH_serving.json")
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(f"FAIL: service speedup {speedup:.2f}x is below the required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    if args.min_speedup is not None:
        print(f"serving speedup gate passed ({speedup:.1f}x >= "
              f"{args.min_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

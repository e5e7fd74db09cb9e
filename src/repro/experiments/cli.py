"""Command-line entry point for the experiment harness.

Usage::

    ned-experiments                 # run the quick version of every experiment
    ned-experiments --full          # full-size workloads
    ned-experiments --only figure7b_ned_vs_k table2
    ned-experiments --trace --metrics-out metrics.json
    ned-experiments merge-cache merged.ned worker-0.ned worker-1.ned
    ned-experiments serve-demo --port 8757   # client of a running ned-serve
    python -m repro.experiments.cli --list

Every engine-backed experiment runs through a
:class:`repro.engine.NedSession`; ``--cache-file``/``--store-dir`` persist
the sessions' warm state across invocations, and the ``merge-cache``
subcommand compacts the per-worker sidecars of a parallel sweep into one
warm file (header-validated, hit counts summed, written atomically).

``--trace`` enables :mod:`repro.obs` spans process-wide (optionally with a
JSONL sink path) and prints the span summary table after the run;
``--metrics-out`` installs one shared metrics registry for every session the
run opens and writes its snapshot (counters, gauges, latency histograms) as
JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.harness import run_all_experiments
from repro.experiments.reporting import format_table


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="ned-experiments",
        description="Reproduce the tables and figures of the NED paper on synthetic datasets.",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the full-size workloads (slower; default is the quick version)",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="run/print only the experiments with these names",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiment names and exit",
    )
    parser.add_argument(
        "--csv-dir",
        metavar="DIR",
        help="also write every selected experiment table to DIR/<name>.csv",
    )
    parser.add_argument(
        "--cache-file",
        metavar="PATH",
        help="persist the sessions' exact-distance cache as a sidecar at PATH: "
        "loaded when it exists, written back when each engine-backed sweep's "
        "session closes, so repeated runs skip the exact TED* work already "
        "paid for",
    )
    parser.add_argument(
        "--store-dir",
        metavar="DIR",
        help="shard the engine-backed training TreeStores under DIR and "
        "reload them lazily on later runs instead of re-extracting",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=4,
        metavar="N",
        help="shard count for --store-dir (default 4)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="on",
        default=None,
        metavar="PATH",
        help="trace every session's spans and print the span summary after "
        "the run; with a PATH, also stream the spans there as JSONL",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="collect every session's metrics (counters, gauges, latency "
        "histograms) into one registry and write its snapshot to PATH as JSON",
    )
    return parser


def build_merge_cache_parser() -> argparse.ArgumentParser:
    """Build the parser of the ``merge-cache`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="ned-experiments merge-cache",
        description="Compact/merge distance-cache sidecars written by parallel "
        "sweep workers into one warm sidecar (inputs must agree on k and "
        "matching backend; per-entry hit counts are summed; the output is "
        "written atomically).",
    )
    parser.add_argument("output", metavar="OUTPUT", help="merged sidecar to write")
    parser.add_argument(
        "inputs", nargs="+", metavar="SIDECAR", help="sidecar files to merge"
    )
    return parser


def merge_cache_main(argv: List[str]) -> int:
    """Entry point of ``ned-experiments merge-cache``."""
    from repro.exceptions import DistanceError
    from repro.ted.cache import merge_sidecars

    args = build_merge_cache_parser().parse_args(argv)
    try:
        count = merge_sidecars(args.inputs, args.output)
    except (DistanceError, FileNotFoundError) as error:
        print(f"merge-cache failed: {error}", file=sys.stderr)
        return 2
    print(f"merged {len(args.inputs)} sidecar(s) into {args.output} ({count} entries)")
    return 0


def build_serve_demo_parser() -> argparse.ArgumentParser:
    """Build the parser of the ``serve-demo`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="ned-experiments serve-demo",
        description="Client example for the multi-process NED service: "
        "connect to a running ned-serve endpoint, extract probes from a "
        "synthetic dataset (matching the k the server reports), submit one "
        "batched k-NN request over the wire, and print the decoded "
        "neighbours plus the server's telemetry counters.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument(
        "--port", type=int, required=True, help="server port (ned-serve prints it)"
    )
    parser.add_argument(
        "--dataset",
        default="CAR",
        help="synthetic dataset the probes are drawn from (default CAR); "
        "for meaningful distances serve a store built from the same graph",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1, help="dataset scale (default 0.1)"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="dataset seed (default: fixed per dataset)"
    )
    parser.add_argument(
        "--probes", type=int, default=3, help="number of probe nodes (default 3)"
    )
    parser.add_argument(
        "--count", type=int, default=5, help="neighbours per probe (default 5)"
    )
    parser.add_argument(
        "--tenant", default="serve-demo", help="tenant key stamped on the request"
    )
    return parser


def serve_demo_main(argv: List[str]) -> int:
    """Entry point of ``ned-experiments serve-demo``."""
    from repro.datasets import load_dataset
    from repro.engine.session import KnnPlan
    from repro.engine.tree_store import summarize_tree
    from repro.exceptions import ReproError
    from repro.serving.client import NedServiceClient
    from repro.serving.protocol import F_ENTRIES, F_K, F_MERGED, F_WORKERS
    from repro.trees.adjacent import k_adjacent_tree

    args = build_serve_demo_parser().parse_args(argv)
    client = NedServiceClient(host=args.host, port=args.port, tenant=args.tenant)
    try:
        status = client.status()
        k = status[F_K]
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        nodes = sorted(graph.nodes())[: args.probes]
        probes = [
            summarize_tree(node, k_adjacent_tree(graph, node, k), k)
            for node in nodes
        ]
        plans = [KnnPlan(probe, args.count) for probe in probes]
        results = client.execute_batch(plans)
        telemetry = client.telemetry()
    except (ReproError, KeyError) as error:
        print(f"serve-demo failed: {error}", file=sys.stderr)
        return 2
    print(
        f"server: k={k} entries={status.get(F_ENTRIES)} "
        f"workers={status.get(F_WORKERS)}"
    )
    for node, neighbours in zip(nodes, results):
        rendered = ", ".join(
            f"{name}: {distance:.3f}" for name, distance in neighbours
        )
        print(f"knn({node!r}, count={args.count}) -> [{rendered}]")
    counters = telemetry.get(F_MERGED, {}).get("counters", {})
    served = {
        name: value for name, value in sorted(counters.items())
        if name.startswith("serving.")
    }
    print(f"telemetry (merged serving counters): {served}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI main; returns a process exit code."""
    if argv is None:  # pragma: no cover - exercised via the console script
        argv = sys.argv[1:]
    if argv and argv[0] == "merge-cache":
        return merge_cache_main(argv[1:])
    if argv and argv[0] == "serve-demo":
        return serve_demo_main(argv[1:])
    args = build_parser().parse_args(argv)
    persistence = {}
    if getattr(args, "cache_file", None):
        persistence["cache_file"] = args.cache_file
    if getattr(args, "store_dir", None):
        persistence["store_dir"] = args.store_dir
        persistence["shards"] = args.shards

    # Observability is wired through process-wide defaults so every session
    # the experiment drivers open is covered without threading parameters
    # through each of them; the try/finally resets the defaults so main()
    # stays reentrant (the test-suite calls it in process).
    from repro import obs

    tracer = None
    trace_arg = getattr(args, "trace", None)
    if trace_arg is not None:
        tracer = obs.Tracer(
            enabled=True, sink=None if trace_arg == "on" else trace_arg
        )
    metrics = obs.MetricsRegistry() if getattr(args, "metrics_out", None) else None
    obs.configure(tracer=tracer, metrics=metrics)
    try:
        results = run_all_experiments(quick=not args.full, **persistence)
    finally:
        obs.configure()
        if tracer is not None:
            tracer.close()
    if metrics is not None:
        import json
        from pathlib import Path

        out_path = Path(args.metrics_out)
        if out_path.parent != Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(metrics.snapshot(), indent=2) + "\n")
        print(f"metrics snapshot written to {out_path}", file=sys.stderr)
    if tracer is not None:
        print(obs.render_trace_summary(tracer), file=sys.stderr)
    if args.list:
        for name in results:
            print(name)
        return 0
    selected = results
    if args.only:
        missing = [name for name in args.only if name not in results]
        if missing:
            print(f"unknown experiment names: {missing}", file=sys.stderr)
            print(f"available: {sorted(results)}", file=sys.stderr)
            return 2

        selected = {name: results[name] for name in args.only}
    csv_dir = None
    if args.csv_dir:
        from pathlib import Path

        csv_dir = Path(args.csv_dir)
        csv_dir.mkdir(parents=True, exist_ok=True)
    for name, table in selected.items():
        print()
        print(f"=== {name} ===")
        print(format_table(table))
        if csv_dir is not None:
            table.to_csv(csv_dir / f"{name}.csv")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())

"""``ned-serve`` — run the multi-process NED service from the shell.

Usage::

    ned-serve --store-dir shards/ --workers 4 --port 8757
    ned-serve --store-dir store.ned --cache-file warm.ned --max-queue-depth 64
    python -m repro.serving --store-dir shards/ --port 0   # ephemeral port

``--store-dir`` accepts either a sharded-store directory (the manifest
layout :func:`repro.engine.shards.save_sharded` writes) or a single
dense :meth:`TreeStore.save` file; the session opens on top of it, the
optional ``--cache-file`` sidecar warms the exact tier, and with
``--workers N`` the packed parent arrays are exported once into shared
memory for N worker processes.  The process prints the bound address
(one line, machine-parseable) and serves until SIGINT/SIGTERM, then
shuts down in order: HTTP front-end, tick loop, worker pool, shared
segment (unlinked exactly once), session (sidecar written back).

The matching client example lives in the experiments CLI::

    ned-experiments serve-demo --port 8757 --grid 6
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from pathlib import Path
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    """Build the ``ned-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="ned-serve",
        description="Serve a NED TreeStore over HTTP/JSON with shared-memory "
        "worker processes and adaptive batch ticks.",
    )
    parser.add_argument(
        "--store-dir",
        required=True,
        metavar="PATH",
        help="sharded store directory (save_sharded layout) or a single "
        "TreeStore.save file to serve",
    )
    parser.add_argument(
        "--cache-file",
        metavar="PATH",
        help="distance-cache sidecar: warms the exact tier at startup and is "
        "written back at shutdown",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="worker processes executing exact blocks against the shared-memory "
        "store (default 0: in-process execution, no shm export)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="bind address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="bind port (default 0: pick an ephemeral port and print it)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="shed requests (typed overload errors) once this many plans are "
        "queued (default: unbounded)",
    )
    parser.add_argument(
        "--request-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-plan deadline; expired plans fail with a typed deadline "
        "error (default: none)",
    )
    parser.add_argument(
        "--min-pairs",
        type=int,
        default=None,
        metavar="N",
        help="smallest exact-tier block worth dispatching to the worker pool "
        "(default 8; smaller blocks run in-process)",
    )
    return parser


def _load_store(path_arg: str):
    """Open ``path_arg`` as a sharded store directory or a dense store file."""
    from repro.engine.shards import ShardedTreeStore, sharded_store_exists
    from repro.engine.tree_store import TreeStore

    path = Path(path_arg)
    if sharded_store_exists(path):
        return ShardedTreeStore.load(path)
    if path.is_file():
        return TreeStore.load(path)
    raise FileNotFoundError(
        f"{path} is neither a sharded-store directory nor a TreeStore file"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI main; returns a process exit code."""
    from repro.engine.session import NedSession
    from repro.exceptions import ReproError
    from repro.serving.server import NedServiceServer

    args = build_parser().parse_args(argv)
    try:
        store = _load_store(args.store_dir)
    except (ReproError, FileNotFoundError) as error:
        print(f"ned-serve: cannot open store: {error}", file=sys.stderr)
        return 2
    try:
        session = NedSession(store, cache_file=args.cache_file)
    except ReproError as error:
        print(f"ned-serve: cannot open cache sidecar: {error}", file=sys.stderr)
        return 2

    stop = threading.Event()

    def _on_signal(signum, frame):  # pragma: no cover - signal path
        stop.set()

    # Only install handlers when running on the main thread (the test-suite
    # drives main() from worker threads, where signal.signal raises).
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, _on_signal)
        signal.signal(signal.SIGTERM, _on_signal)

    try:
        server = NedServiceServer(
            session,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_queue_depth=args.max_queue_depth,
            request_deadline=args.request_deadline,
            min_pairs=args.min_pairs,
        )
        server.start()
    except ReproError as error:
        session.close()
        print(f"ned-serve: cannot start service: {error}", file=sys.stderr)
        return 2
    try:
        print(
            f"ned-serve: serving k={session.k} entries={len(store)} "
            f"workers={args.workers} at http://{server.host}:{server.port}",
            flush=True,
        )
        stop.wait()
    finally:
        server.close()
        session.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())

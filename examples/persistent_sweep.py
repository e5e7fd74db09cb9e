#!/usr/bin/env python
"""Persistent NED sweeps as session lifecycles (paper §6-7).

The paper's design splits the work into *precompute once* (extract every
node's k-adjacent tree and its O(k) summaries) and *query many* (answer NED
similarity queries from the summaries, paying for exact TED* only when
forced).  With :class:`repro.engine.NedSession` that split is a lifecycle —
**open → warm → batch queries → close** — and it extends across process
boundaries with two durable artifacts:

1. **Store shards** — ``save_sharded(store, directory, shards=N)`` writes
   the extraction as a manifest plus N shard files;
   ``ShardedTreeStore.load(directory)`` attaches them lazily, keeping at
   most ``max_resident`` shards decoded in memory at a time.
2. **Cache sidecar** — every exact TED* distance a session pays for is
   keyed by the pair of AHU canonical signatures (TED* is a pure function
   of the two isomorphism classes).  Opening a session with ``cache_file=``
   warms it from the sidecar when one exists; closing the session (the
   context manager does) writes the sidecar back — including per-entry hit
   counts, so a later overflowing load keeps the *hottest* entries.

A *cold* session pays for extraction and every needed exact TED*.  A *warm*
session — here simulated by a fresh session re-attaching the same files —
runs the identical workload with **zero** exact TED* evaluations: the
shards answer "what are the trees and summaries", the sidecar answers
"what were the exact distances".  Queries are submitted as one batch of
:class:`~repro.engine.KnnPlan`\\ s, so equal-signature probes are answered
once and fanned out.

Run with::

    python examples/persistent_sweep.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.engine import (
    KnnPlan,
    NedSession,
    ShardedTreeStore,
    TreeStore,
    save_sharded,
)
from repro.graph.generators import barabasi_albert_graph
from repro.utils.timer import Timer

# At k <= 3 the degree bound is TED* itself, so not even a cold session
# pays for exact TED*; k = 4 is the smallest depth with a cache to warm.
K = 4
NODES = 60
SHARDS = 5
NEIGHBORS = 5
QUERIES = 10


def run_sweep(store, graph, cache_file: Path):
    """One sweep process: open session -> warm -> batch queries -> close."""
    with NedSession(store, cache_file=cache_file) as session:  # open (+ warm)
        matrix = session.pairwise_matrix(mode="bound-prune")
        plans = [
            KnnPlan(session.probe(graph, node), NEIGHBORS)
            for node in graph.nodes()[:QUERIES]
        ]
        answers = session.execute_batch(plans)  # batched queries
        exact = session.stats.exact_evaluations
        hits = session.stats.cache_hits
    # close: the sidecar now holds everything this sweep resolved.
    return matrix, answers, exact, hits


def main() -> None:
    print("== Persistent sweep: save -> reload -> warm re-run ==")
    graph = barabasi_albert_graph(NODES, 2, seed=7)

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "store"
        cache_file = Path(tmp) / "distances.ned"

        # ---- cold process: extract, shard, sweep, persist the cache.
        with Timer() as cold_timer:
            dense = TreeStore.from_graph(graph, K)
            save_sharded(dense, store_dir, shards=SHARDS)
            store = ShardedTreeStore.load(store_dir)
            cold_matrix, cold_answers, cold_exact, _ = run_sweep(
                store, graph, cache_file
            )
        cold_seconds = cold_timer.elapsed
        shard_files = sorted(p.name for p in store_dir.iterdir())
        print(f"cold: extracted {len(dense)} trees, sharded into {SHARDS} files "
              f"({', '.join(shard_files[:3])}, ...)")
        print(f"cold: {cold_exact} exact TED* evaluations, {cold_seconds:.2f}s; "
              f"sidecar written to {cache_file.name}")

        # ---- warm process: attach shards + sidecar, same sweep, no exact work.
        with Timer() as warm_timer:
            warm_store = ShardedTreeStore.load(store_dir, max_resident=2)
            warm_matrix, warm_answers, warm_exact, warm_hits = run_sweep(
                warm_store, graph, cache_file
            )
        warm_seconds = warm_timer.elapsed
        print(f"warm: {warm_exact} exact TED* evaluations "
              f"({warm_hits} sidecar hits), {warm_seconds:.2f}s; "
              f"at most {warm_store.max_resident} of "
              f"{warm_store.shard_count} shards resident")

        assert warm_matrix.values == cold_matrix.values, "matrices must be identical"
        assert warm_answers == cold_answers, "kNN answers must be identical"
        assert warm_exact == 0, "a warm session pays for no exact TED*"
        print("identical results; the warm session paid for no exact TED*")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Metric indexing and bound-pruned search for NED retrieval (paper §13.4, Figure 9b).

Because NED is a metric, candidate nodes can be indexed once in a VP-tree and
nearest-neighbor queries answered with far fewer distance evaluations than a
full scan.  The batch engine goes further: it precomputes every candidate's
k-adjacent tree plus O(k) summaries in a ``TreeStore`` (persistable with
``save()``/``load()``), and resolves candidates through a tier cascade so
that most never pay for an exact TED* at all.

How pruning works
-----------------
Every query–candidate distance flows through one
``repro.ted.resolver.BoundedNedDistance`` cascade, cheapest tier first:

1. *signature* — equal AHU canonical signatures mean isomorphic trees, so
   the distance is exactly 0 with no further work;
2. *level-size bounds* — O(k) lower/upper bounds from per-level sizes;
3. *degree-multiset bounds* — tighter earth-mover-style bounds from the
   per-level child-count multisets (they dominate tier 2);
4. *exact TED** — the O(k·n³) computation, paid only when the interval left
   by tiers 1-3 still straddles the decision (the current k-th best
   distance, a range radius).

``mode="bound-prune"`` drives the cascade through a scan.  Its results are
identical to the exact scan — only the number of exact TED* evaluations
changes, and the per-tier engine counters show exactly where each skipped
evaluation went.  The VP-tree prunes with the triangle inequality alone;
TED* breaks it at k >= 4, so there only the scan and ``bound-prune`` are
guaranteed exact (this example runs at k = 3).

Run with::

    python examples/similarity_search_index.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.datasets.registry import load_dataset_pair
from repro.engine import NedSession, TreeStore
from repro.trees.adjacent import k_adjacent_tree
from repro.utils.timer import Timer

K = 3
CANDIDATES = 150
NEIGHBORS = 5
QUERIES = 5


def main() -> None:
    print("== NED similarity retrieval: VP-tree vs bound-pruned engine ==")
    graph_q, graph_c = load_dataset_pair("PGP", "PGP", scale=0.4, seed=3)
    candidate_nodes = graph_c.nodes()[:CANDIDATES]
    print(f"precomputing {len(candidate_nodes)} candidate trees from the second graph (k={K})")

    # One extraction pass; the store persists, so later processes skip it.
    with Timer() as extraction_timer:
        store = TreeStore.from_graph(graph_c, K, nodes=candidate_nodes)
    extraction_seconds = extraction_timer.elapsed
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "pgp_candidates.treestore"
        store.save(store_path)
        store = TreeStore.load(store_path)
    print(f"TreeStore built in {extraction_seconds:.2f}s, "
          f"round-tripped through {store_path.name}")

    # Three engines over the SAME store: exact scan (the reference), the
    # VP-tree (the paper's index) and summary-bound pruning (no index).  Each
    # pruning regime gets its own session with the distance cache off, so
    # the counters below compare touched pairs per regime (a production
    # session would keep the default cache on and share one session).
    regimes = {
        "scan": dict(mode="exact", index="linear"),
        "vptree": dict(mode="exact", index="vptree", leaf_size=8),
        "bound-prune": dict(mode="bound-prune"),
    }
    engines = {
        name: NedSession(store, cache_size=0).search_engine(**options)
        for name, options in regimes.items()
    }
    scan_engine = engines["scan"]
    vptree_engine = engines["vptree"]
    pruned_engine = engines["bound-prune"]

    totals = {"scan": 0, "vptree": 0, "bound-prune": 0}
    for query_node in graph_q.nodes()[:QUERIES]:
        query_tree = k_adjacent_tree(graph_q, query_node, K)
        scan_result = scan_engine.knn(query_tree, NEIGHBORS)
        vptree_result = vptree_engine.knn(query_tree, NEIGHBORS)
        pruned_result = pruned_engine.knn(query_tree, NEIGHBORS)
        assert [d for _, d in vptree_result] == [d for _, d in scan_result], "index must be exact"
        assert pruned_result == scan_result, "bound pruning must be exact"
        totals["scan"] += scan_engine.last_query_distance_calls
        totals["vptree"] += vptree_engine.last_query_distance_calls
        totals["bound-prune"] += pruned_engine.last_query_distance_calls
        print(f"  query node {query_node}: nearest distances "
              f"{[round(d, 1) for _, d in scan_result]} — exact TED* evaluations: "
              f"scan {scan_engine.last_query_distance_calls}, "
              f"vptree {vptree_engine.last_query_distance_calls}, "
              f"bound-prune {pruned_engine.last_query_distance_calls}")

    print(f"\nacross {QUERIES} queries (exact TED* evaluations):")
    for name, count in totals.items():
        saved = 1.0 - count / totals["scan"] if totals["scan"] else 0.0
        print(f"  {name:<12}: {count:>5}  ({saved:.0%} saved vs scan)")
    stats = pruned_engine.stats
    print(f"\nbound-prune engine per-tier counters: {stats.signature_hits} signature hits, "
          f"{stats.decided_by_level_size} + {stats.decided_by_degree} decided by "
          f"level-size/degree bounds, {stats.pruned_by_level_size} + "
          f"{stats.pruned_by_degree} pruned by level-size/degree lower bounds "
          f"(pruning ratio {stats.pruning_ratio:.0%}).")
    print("Feature-based similarities are not metrics and have no such bounds, "
          "so they always pay the full scan.")


if __name__ == "__main__":
    main()

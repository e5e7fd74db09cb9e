"""Micro-benchmarks of the library's core kernels.

These do not correspond to a figure of the paper; they track the cost of the
individual building blocks (tree extraction, canonization, TED*, NED, VP-tree
construction) so performance regressions are visible independently of the
figure-level sweeps.

Besides the pytest-benchmark fixtures, the module runs standalone as a CI
smoke check that times the TED* kernel under every matching backend
(``hungarian``, ``scipy`` when available, and what ``auto`` resolves to) on
one fixed batch of random tree pairs and records the pairs/sec into
``BENCH_kernel.json``::

    PYTHONPATH=src python benchmarks/bench_core_kernels.py --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.ned import NedComputer
from repro.datasets.registry import load_dataset
from repro.index.vptree import VPTree
from repro.matching.bipartite import resolve_backend
from repro.matching.scipy_backend import scipy_available
from repro.ted.batch import batch_available
from repro.ted.ted_star import ted_star
from repro.trees.adjacent import k_adjacent_tree
from repro.trees.canonize import canonical_string
from repro.utils.timer import Timer
from repro.trees.random_trees import random_tree_with_depth


def test_bench_k_adjacent_tree_extraction(benchmark):
    """BFS extraction of a 4-adjacent tree from a road-network stand-in."""
    graph = load_dataset("CAR", scale=0.4)
    node = graph.nodes()[len(graph) // 2]
    tree = benchmark(k_adjacent_tree, graph, node, 4)
    assert tree.size() >= 1


def test_bench_ted_star_medium_trees(benchmark):
    """TED* on a pair of ~150-node, 4-level trees."""
    left = random_tree_with_depth(150, 3, seed=1)
    right = random_tree_with_depth(150, 3, seed=2)
    distance = benchmark(ted_star, left, right, 4)
    assert distance >= 0.0


def test_bench_ned_power_law_pair(benchmark):
    """End-to-end NED (extraction + TED*) between two power-law graph nodes."""
    graph_a = load_dataset("AMZN", scale=0.3, seed=1)
    graph_b = load_dataset("DBLP", scale=0.3, seed=2)
    computer = NedComputer(k=3)
    u = graph_a.nodes()[10]
    v = graph_b.nodes()[10]

    def run():
        computer.clear_cache()
        return computer.distance(graph_a, u, graph_b, v)

    distance = benchmark(run)
    assert distance >= 0.0


def test_bench_canonical_string(benchmark):
    """AHU canonization of a 400-node tree."""
    tree = random_tree_with_depth(400, 6, seed=3)
    signature = benchmark(canonical_string, tree)
    assert signature.startswith("(")


def test_bench_vptree_build(benchmark):
    """VP-tree construction over 60 k-adjacent trees under TED*."""
    graph = load_dataset("PGP", scale=0.3)
    nodes = graph.nodes()[:60]
    trees = [k_adjacent_tree(graph, node, 3) for node in nodes]
    metric = lambda a, b: ted_star(a, b, k=3)  # noqa: E731

    index = benchmark.pedantic(lambda: VPTree(trees, metric, seed=0), rounds=1, iterations=1)
    assert index.height() >= 0


def _kernel_pair_batch(pairs: int, size: int, depth: int, seed: int):
    """One fixed batch of random tree pairs for the per-backend timings."""
    return [
        (
            random_tree_with_depth(size, depth, seed=seed + 2 * index),
            random_tree_with_depth(size, depth, seed=seed + 2 * index + 1),
        )
        for index in range(pairs)
    ]


def kernel_backend_timings(
    pairs: int = 30, size: int = 120, depth: int = 3, seed: int = 11
) -> dict:
    """Time ``ted_star`` under every matching backend on the same batch.

    Returns the ``core_kernels`` section of ``BENCH_kernel.json``: one entry
    per backend with elapsed seconds and pairs/sec, plus what ``"auto"``
    resolves to in this environment.
    """
    k = depth + 1
    batch = _kernel_pair_batch(pairs, size, depth, seed)
    backends = ["hungarian"] + (["scipy"] if scipy_available() else []) + ["auto"]
    record = dict(
        workload=dict(pairs=pairs, tree_size=size, depth=depth, seed=seed, k=k),
        auto_resolves_to=resolve_backend("auto"),
        backends={},
    )
    for backend in backends:
        # One untimed evaluation first: the scipy path pays a first-call
        # import cost that would otherwise be billed to the kernel.
        ted_star(batch[0][0], batch[0][1], k=k, backend=backend)
        with Timer() as timer:
            for left, right in batch:
                ted_star(left, right, k=k, backend=backend)
        record["backends"][backend] = dict(
            elapsed=timer.elapsed,
            pairs_per_sec=pairs / timer.elapsed if timer.elapsed else None,
        )
    if batch_available():
        from repro.ted.batch import BatchTedKernel

        kernel = BatchTedKernel()
        # Same warmup discipline: absorb first-call costs (numpy/scipy
        # import, first compile) outside the timed window; the per-pair
        # rows above leave every tree canonical-cached, so all rows pay
        # equal canonization (none).
        kernel.ted_star_block(batch[:1], k=k)
        with Timer() as timer:
            values = kernel.ted_star_block(batch, k=k)
        expected = [ted_star(left, right, k=k, backend="scipy") for left, right in batch]
        if values != expected:
            raise AssertionError(
                "batch kernel diverged from the per-pair scipy path on the "
                "benchmark workload"
            )
        record["backends"]["batch"] = dict(
            elapsed=timer.elapsed,
            pairs_per_sec=pairs / timer.elapsed if timer.elapsed else None,
            identical_to_scipy=True,
            batched_pairs=kernel.batched_pairs,
            fallback_pairs=kernel.fallback_pairs,
        )
        scipy_row = record["backends"].get("scipy")
        if scipy_row and timer.elapsed:
            record["batch_speedup_vs_scipy"] = scipy_row["elapsed"] / timer.elapsed
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (seconds, not minutes)")
    parser.add_argument("--pairs", type=int, default=None,
                        help="tree pairs per backend (default: 20 with --smoke, 60 otherwise)")
    parser.add_argument("--min-batch-speedup", type=float, default=None,
                        help="fail unless the batch kernel beats per-pair scipy "
                             "by at least this factor (CI gate)")
    args = parser.parse_args(argv)
    pairs = args.pairs if args.pairs is not None else (20 if args.smoke else 60)
    record = kernel_backend_timings(pairs=pairs)
    Path("BENCH_kernel.json").write_text(
        json.dumps({"core_kernels": record}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"TED* kernel backends (k={record['workload']['k']}, "
          f"{record['workload']['tree_size']}-node trees, {pairs} pairs; "
          f"auto -> {record['auto_resolves_to']}):")
    for backend, numbers in record["backends"].items():
        print(f"  {backend:>10}: {numbers['elapsed']:.3f}s "
              f"({numbers['pairs_per_sec']:.1f} pairs/sec)")
    speedup = record.get("batch_speedup_vs_scipy")
    if speedup is not None:
        print(f"  batch kernel speedup vs per-pair scipy: {speedup:.1f}x")
    print("recorded in BENCH_kernel.json")
    if args.min_batch_speedup is not None:
        if speedup is None:
            print("FAIL: no batch-vs-scipy speedup was measured "
                  "(numpy/SciPy missing?)", file=sys.stderr)
            return 1
        if speedup < args.min_batch_speedup:
            print(f"FAIL: batch kernel speedup {speedup:.2f}x is below the "
                  f"required {args.min_batch_speedup:.2f}x", file=sys.stderr)
            return 1
        print(f"batch speedup gate passed ({speedup:.1f}x >= "
              f"{args.min_batch_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

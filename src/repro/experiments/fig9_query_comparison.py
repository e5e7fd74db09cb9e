"""Figure 9 — NED vs HITS-based vs Feature-based similarity.

Figure 9a compares the time to compute the similarity of a single pair of
inter-graph nodes for each measure on every dataset: HITS has to iterate an
all-pairs similarity matrix (slowest), the feature baseline only aggregates
ego-net statistics (fastest), and NED sits in between — the price it pays
for being a metric that captures full neighborhood topology.

Figure 9b compares nearest-neighbor *query* time: NED uses a VP-tree (it is
a metric), the feature baseline must scan all candidates.  The quantity that
matters is how much of the candidate set each method has to touch, so the
table also reports the number of distance evaluations.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.baselines.feature_distance import euclidean_distance, feature_knn
from repro.baselines.hits_similarity import hits_node_similarity
from repro.baselines.refex import refex_feature_matrix
from repro.core.ned import NedComputer
from repro.datasets.registry import load_dataset_pair
from repro.experiments.common import default_backend, mean
from repro.experiments.reporting import ExperimentTable
from repro.index.vptree import VPTree
from repro.utils.rng import RngLike, ensure_rng, sample_distinct
from repro.utils.timer import Timer, time_call

ROAD_DATASETS = ("CAR", "PAR")


def _k_for(dataset: str, road_k: int, other_k: int) -> int:
    return road_k if dataset in ROAD_DATASETS else other_k


def figure9a_similarity_computation_time(
    datasets: Sequence[str] = ("PGP", "GNU", "AMZN", "DBLP", "CAR", "PAR"),
    pair_count: int = 10,
    road_k: int = 5,
    other_k: int = 3,
    scale: float = 0.25,
    hits_iterations: int = 10,
    seed: RngLike = 37,
) -> ExperimentTable:
    """Per-dataset average time to compute one pairwise similarity.

    The paper extracts 5-adjacent trees for the road networks and 3-adjacent
    trees for the others; the same convention is used here.  The HITS
    baseline iterates a full |V|×|V| similarity matrix, so the dataset scale
    is reduced — the relative ordering (HITS ≫ NED > Feature) is what the
    figure demonstrates.
    """
    backend = default_backend()
    table = ExperimentTable(
        title="Figure 9a: average similarity computation time per pair (seconds)",
        columns=["dataset", "k", "pairs", "ned_time", "hits_time", "feature_time"],
        notes=[f"scale={scale}, hits_iterations={hits_iterations}, backend={backend}"],
    )
    for dataset in datasets:
        k = _k_for(dataset, road_k, other_k)
        graph_a, graph_b = load_dataset_pair(dataset, dataset, scale=scale, seed=seed)
        rng = ensure_rng(seed)
        pairs = [
            (rng.choice(graph_a.nodes()), rng.choice(graph_b.nodes())) for _ in range(pair_count)
        ]

        computer = NedComputer(k=k, backend=backend)
        ned_times: List[float] = []
        for u, v in pairs:
            _, elapsed = time_call(computer.distance, graph_a, u, graph_b, v)
            ned_times.append(elapsed)

        hits_times: List[float] = []
        u, v = pairs[0]
        _, elapsed = time_call(
            hits_node_similarity, graph_a, u, graph_b, v, hits_iterations
        )
        hits_times.append(elapsed)

        feature_times: List[float] = []
        with Timer() as build_timer:
            features_a = refex_feature_matrix(graph_a, recursions=max(1, k - 1))
            features_b = refex_feature_matrix(graph_b, recursions=max(1, k - 1))
        per_node_build = build_timer.elapsed / max(
            1, graph_a.number_of_nodes() + graph_b.number_of_nodes()
        )
        for u, v in pairs:
            vec_a, vec_b = features_a[u], features_b[v]
            width = min(len(vec_a), len(vec_b))
            _, elapsed = time_call(euclidean_distance, vec_a[:width], vec_b[:width])
            # Charge each pair its share of the feature construction cost.
            feature_times.append(elapsed + 2 * per_node_build)

        table.add_row(
            dataset=dataset,
            k=k,
            pairs=len(pairs),
            ned_time=mean(ned_times),
            hits_time=mean(hits_times),
            feature_time=mean(feature_times),
        )
    return table


def figure9b_nearest_neighbor_query_time(
    datasets: Sequence[str] = ("PGP", "GNU"),
    candidate_count: int = 150,
    query_count: int = 8,
    neighbors: int = 5,
    road_k: int = 5,
    other_k: int = 3,
    scale: float = 0.4,
    seed: RngLike = 41,
    engine_mode: Optional[str] = "bound-prune",
    cache_file: Optional[str] = None,
) -> ExperimentTable:
    """Nearest-neighbor query time: NED + VP-tree vs full scans vs the engine.

    For NED, the candidate k-adjacent trees are indexed once in a VP-tree and
    each query probes the index; the comparison reports (a) the same query
    answered by a NED *linear scan* — isolating the benefit of metric
    indexing, which is the paper's point — and (b) the feature baseline,
    which always scans the whole candidate table.  Both wall-clock time per
    query and the number of distance evaluations are reported: with the
    paper's graph sizes the distance-evaluation gap is what produces the
    orders-of-magnitude query-time gap.

    When ``engine_mode`` is set (default ``"bound-prune"``), the same queries
    additionally run through a :class:`repro.engine.NedSession`-backed search
    engine built over the distinct candidate nodes, reporting how many
    *exact* TED* evaluations the bound cascade leaves standing — pruning
    that needs no triangle-inequality index at all.  Pass ``None`` to skip.
    The session keeps its signature-keyed distance cache on (the session
    default), so ``ned_engine_exact_evaluations`` counts the *distinct*
    signature pairs each query forced and ``ned_engine_cache_hits`` the
    repeats answered from the warm cache.

    ``cache_file`` additionally persists that cache across runs: each
    dataset gets its own sidecar (``<stem>-<dataset><suffix>`` next to the
    given path — datasets use different ``k``, so their distances are not
    comparable) that warms the session when it exists and is written back
    when the session closes after the dataset's queries (zero exact
    evaluations on a warm re-run).
    """
    backend = default_backend()
    table = ExperimentTable(
        title="Figure 9b: nearest neighbor query time (seconds) and distance evaluations",
        columns=[
            "dataset",
            "k",
            "candidates",
            "ned_vptree_query_time",
            "ned_vptree_distance_evaluations",
            "ned_scan_query_time",
            "ned_engine_query_time",
            "ned_engine_exact_evaluations",
            "ned_engine_cache_hits",
            "feature_scan_query_time",
            "feature_distance_evaluations",
        ],
        notes=[f"queries={query_count}, neighbors={neighbors}, backend={backend}, "
               f"engine_mode={engine_mode}"],
    )
    from repro.engine.session import NedSession
    from repro.engine.tree_store import TreeStore, summarize_tree
    from repro.index.linear_scan import LinearScanIndex
    from repro.trees.adjacent import k_adjacent_tree
    from repro.ted.ted_star import ted_star

    for dataset in datasets:
        k = _k_for(dataset, road_k, other_k)
        graph_q, graph_c = load_dataset_pair(dataset, dataset, scale=scale, seed=seed)
        rng = ensure_rng(seed)
        # Distinct candidates so every method (scan, VP-tree, engine) indexes
        # exactly the same pool and the per-row comparison is apples-to-apples.
        candidates = sample_distinct(graph_c.nodes(), candidate_count, rng)
        queries = [rng.choice(graph_q.nodes()) for _ in range(query_count)]

        candidate_trees = [k_adjacent_tree(graph_c, node, k) for node in candidates]
        metric = lambda a, b: ted_star(a, b, k=k, backend=backend)  # noqa: E731
        index = VPTree(candidate_trees, metric, leaf_size=8, seed=0)
        scan = LinearScanIndex(candidate_trees, metric)
        # The dataset's session (when the engine comparison is on) enters
        # this stack, so its close — which writes the cache sidecar — runs
        # even when a query below raises: the exact distances already
        # resolved stay available for the re-run.
        stack = ExitStack()
        engine = None
        if engine_mode is not None:
            # Reuse the trees extracted above instead of a second BFS pass.
            store = TreeStore(k, [
                summarize_tree(node, tree, k)
                for node, tree in zip(candidates, candidate_trees)
            ])
            dataset_cache = None
            if cache_file is not None:
                base = Path(cache_file)
                dataset_cache = base.with_name(f"{base.stem}-{dataset}{base.suffix}")
            session = stack.enter_context(
                NedSession(store, backend=backend, cache_file=dataset_cache)
            )
            engine = session.search_engine(mode=engine_mode)

        ned_times: List[float] = []
        ned_calls: List[float] = []
        ned_scan_times: List[float] = []
        engine_times: List[float] = []
        engine_calls: List[float] = []
        engine_hits: List[float] = []
        with stack:  # closing writes the dataset's sidecar when one was named
            for query in queries:
                query_tree = k_adjacent_tree(graph_q, query, k)
                with Timer() as timer:
                    index.knn(query_tree, neighbors)
                ned_times.append(timer.elapsed)
                ned_calls.append(float(index.last_query_distance_calls))
                with Timer() as timer:
                    scan.knn(query_tree, neighbors)
                ned_scan_times.append(timer.elapsed)
                if engine is not None:
                    with Timer() as timer:
                        engine.knn(query_tree, neighbors)
                    engine_times.append(timer.elapsed)
                    engine_calls.append(float(engine.last_query_distance_calls))
                    engine_hits.append(
                        float(engine.last_query_stats.counters.cache_hits)
                    )

        feature_table_c = refex_feature_matrix(graph_c, recursions=max(1, k - 1))
        feature_table_q = refex_feature_matrix(graph_q, recursions=max(1, k - 1))
        width = min(
            len(next(iter(feature_table_c.values()))), len(next(iter(feature_table_q.values())))
        )
        candidate_features = {node: feature_table_c[node][:width] for node in candidates}
        feature_times: List[float] = []
        for query in queries:
            query_vector = feature_table_q[query][:width]
            with Timer() as timer:
                feature_knn(query_vector, candidate_features, neighbors)
            feature_times.append(timer.elapsed)

        row = dict(
            dataset=dataset,
            k=k,
            candidates=len(candidates),
            ned_vptree_query_time=mean(ned_times),
            ned_vptree_distance_evaluations=mean(ned_calls),
            ned_scan_query_time=mean(ned_scan_times),
            feature_scan_query_time=mean(feature_times),
            feature_distance_evaluations=float(len(candidates)),
        )
        if engine is not None:
            row["ned_engine_query_time"] = mean(engine_times)
            row["ned_engine_exact_evaluations"] = mean(engine_calls)
            row["ned_engine_cache_hits"] = mean(engine_hits)
        table.add_row(**row)
    return table


def figure9b_tier_ablation(
    dataset: str = "PGP",
    candidate_count: int = 150,
    query_count: int = 8,
    neighbors: int = 5,
    road_k: int = 5,
    other_k: int = 3,
    scale: float = 0.4,
    seed: RngLike = 41,
) -> ExperimentTable:
    """Tier ablation on the Figure 9b workload: where do exact TED* evals go?

    Runs the same kNN queries over the same candidate store under three
    pruning regimes — triangle-only VP-tree (the paper's index), and
    bound-pruned scans with level-size bounds only (the PR-1 behaviour) and
    with the full degree-multiset cascade — and reports, per regime, the
    mean exact TED* evaluations per query plus the per-tier counters showing
    *which* tier skipped the rest.  Each regime runs in its own
    :class:`repro.engine.NedSession` with the distance cache off, so the
    counters measure touched pairs per pruning regime, not distinct signature
    pairs.  All regimes return identical nearest-neighbor distances; the run
    asserts it.
    """
    from repro.engine.session import NedSession
    from repro.engine.tree_store import TreeStore, summarize_tree
    from repro.trees.adjacent import k_adjacent_tree

    backend = default_backend()
    k = _k_for(dataset, road_k, other_k)
    graph_q, graph_c = load_dataset_pair(dataset, dataset, scale=scale, seed=seed)
    rng = ensure_rng(seed)
    candidates = sample_distinct(graph_c.nodes(), candidate_count, rng)
    queries = [rng.choice(graph_q.nodes()) for _ in range(query_count)]
    store = TreeStore(k, [
        summarize_tree(node, k_adjacent_tree(graph_c, node, k), k) for node in candidates
    ])

    configurations = (
        ("vptree triangle-only", dict(mode="exact", index="vptree"), None),
        ("scan level-size", dict(mode="bound-prune"), ("signature", "level-size")),
        ("scan degree-multiset", dict(mode="bound-prune"), None),
    )
    engines = {
        name: NedSession(
            store, backend=backend, tiers=tiers, cache_size=0
        ).search_engine(**options)
        for name, options, tiers in configurations
    }
    reference = NedSession(store, backend=backend, cache_size=0).search_engine(
        mode="exact", index="linear"
    )

    table = ExperimentTable(
        title=f"Figure 9b tier ablation on {dataset}: exact TED* evaluations per pruning regime",
        columns=[
            "configuration", "exact_evals_per_query", "signature_hits",
            "decided_level_size", "decided_degree",
            "pruned_level_size", "pruned_degree", "query_time",
        ],
        notes=[
            f"k={k}, candidates={len(store)}, queries={query_count}, "
            f"neighbors={neighbors}, backend={backend}",
            "All regimes return identical nearest-neighbor distances; only the "
            "number of exact TED* evaluations differs.",
        ],
    )
    times = {name: [] for name in engines}
    for query in queries:
        probe = reference.probe(graph_q, query)
        expected = [d for _, d in reference.knn(probe, neighbors)]
        for name, engine in engines.items():
            with Timer() as timer:
                result = engine.knn(probe, neighbors)
            times[name].append(timer.elapsed)
            got = [d for _, d in result]
            if got != expected:
                raise AssertionError(
                    f"{name} disagrees with the exact scan: {got} != {expected}"
                )
    for name, engine in engines.items():
        stats = engine.stats
        table.add_row(
            configuration=name,
            exact_evals_per_query=stats.exact_evaluations / query_count,
            signature_hits=stats.signature_hits,
            decided_level_size=stats.decided_by_level_size,
            decided_degree=stats.decided_by_degree,
            pruned_level_size=stats.pruned_by_level_size,
            pruned_degree=stats.pruned_by_degree,
            query_time=mean(times[name]),
        )
    return table


def figure9_query_comparison(**kwargs) -> Dict[str, ExperimentTable]:
    """Run both halves of Figure 9 (and the tier ablation) with defaults."""
    return {
        "figure9a_similarity_time": figure9a_similarity_computation_time(),
        "figure9b_query_time": figure9b_nearest_neighbor_query_time(),
        "figure9b_tier_ablation": figure9b_tier_ablation(),
    }

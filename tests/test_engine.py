"""Tests for the batch NED engine (tree stores, matrices, search, stats)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymize.anonymizers import perturbation_anonymization
from repro.anonymize.deanonymize import (
    deanonymization_precision,
    deanonymization_precision_with_engine,
)
from repro.core.ned import NedComputer, ned, ned_from_trees
from repro.engine import (
    EngineStats,
    NedSearchEngine,
    TreeStore,
    cross_distance_matrix,
    pairwise_distance_matrix,
)
from repro.engine.session import NedSession
from repro.exceptions import DistanceError, GraphError, IndexingError
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    grid_road_graph,
)
from repro.graph.graph import DiGraph
from repro.resilience import FaultPlan, FaultSpec, ResilienceWarning


@pytest.fixture(scope="module")
def ba_graph():
    return barabasi_albert_graph(60, 2, seed=3)


@pytest.fixture(scope="module")
def ba_store(ba_graph):
    return TreeStore.from_graph(ba_graph, k=3)


@pytest.fixture(scope="module")
def deep_store(ba_graph):
    """The same graph at k = 4, where pairs still reach the exact tier.

    At k <= 3 the degree tier pins every pair, so worker-pool, chunking and
    fallback checks on ``ba_store`` would never see a chunk.
    """
    return TreeStore.from_graph(ba_graph, k=4)


class TestTreeStore:
    def test_covers_all_nodes_in_order(self, ba_graph, ba_store):
        assert ba_store.nodes() == ba_graph.nodes()
        assert len(ba_store) == ba_graph.number_of_nodes()

    def test_entries_match_fresh_extraction(self, ba_graph, ba_store):
        from repro.trees.adjacent import k_adjacent_tree

        for node in list(ba_graph.nodes())[:10]:
            assert ba_store.tree(node) == k_adjacent_tree(ba_graph, node, 3)
            sizes = ba_store.level_sizes(node)
            assert len(sizes) == 3
            assert sizes[0] == 1

    def test_signature_equality_iff_isomorphic(self, ba_store):
        from repro.trees.canonize import trees_isomorphic

        nodes = ba_store.nodes()[:15]
        for u in nodes[:5]:
            for v in nodes:
                same = ba_store.signature(u) == ba_store.signature(v)
                assert same == trees_isomorphic(ba_store.tree(u), ba_store.tree(v))

    def test_subset_and_membership(self, ba_store):
        picked = ba_store.nodes()[:7]
        sub = ba_store.subset(picked)
        assert sub.nodes() == picked
        assert sub.k == ba_store.k
        assert picked[0] in sub
        with pytest.raises(GraphError):
            ba_store.entry("no-such-node")

    def test_rejects_directed_and_duplicates(self):
        digraph = DiGraph([(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            TreeStore.from_graph(digraph, k=2)
        graph = grid_road_graph(3, 3, seed=0)
        with pytest.raises(GraphError):
            TreeStore.from_graph(graph, k=2, nodes=[0, 0])

    def test_save_load_round_trip(self, ba_store, tmp_path):
        path = tmp_path / "store.bin"
        ba_store.save(path)
        loaded = TreeStore.load(path)
        assert loaded.k == ba_store.k
        assert loaded.nodes() == ba_store.nodes()
        for node in loaded.nodes():
            assert loaded.tree(node) == ba_store.tree(node)
            assert loaded.level_sizes(node) == ba_store.level_sizes(node)
            assert loaded.signature(node) == ba_store.signature(node)
            assert loaded.tree(node).graph_nodes == ba_store.tree(node).graph_nodes

    def test_degree_profiles_match_fresh_computation(self, ba_store):
        from repro.ted.bounds import degree_profile_sequence

        for node in ba_store.nodes()[:10]:
            assert ba_store.degree_profiles(node) == degree_profile_sequence(
                ba_store.tree(node), ba_store.k
            )

    def test_load_version1_store_recomputes_degree_profiles(self, ba_store, tmp_path):
        # PR-1 stores predate the degree summaries; they must still load and
        # prune exactly like freshly built ones.
        import pickle

        path = tmp_path / "v1.store"
        ba_store.save(path)
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        payload["version"] = 1
        for record in payload["entries"]:
            del record["degree_profiles"]
        with path.open("wb") as handle:
            pickle.dump(payload, handle)
        loaded = TreeStore.load(path)
        for node in loaded.nodes():
            assert loaded.degree_profiles(node) == ba_store.degree_profiles(node)

    def test_load_rejects_unsupported_version_with_clear_error(self, ba_store, tmp_path):
        import pickle

        path = tmp_path / "future.store"
        ba_store.save(path)
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        payload["version"] = 99
        with path.open("wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(GraphError) as caught:
            TreeStore.load(path)
        message = str(caught.value)
        assert "99" in message  # the found version...
        assert "1, 2" in message  # ...and the supported ones

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not_a_store.bin"
        import pickle

        path.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(GraphError):
            TreeStore.load(path)
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(b"not a pickle at all")
        with pytest.raises(GraphError):
            TreeStore.load(corrupt)
        malformed = tmp_path / "malformed.bin"
        malformed.write_bytes(pickle.dumps({
            "format": "repro-tree-store", "version": 1, "k": 2,
            "entries": [{"node": 0}],  # record missing parents/sizes/signature
        }))
        with pytest.raises(GraphError):
            TreeStore.load(malformed)

    @settings(max_examples=10, deadline=None)
    @given(
        nodes=st.integers(min_value=3, max_value=20),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_save_load_round_trip_property(self, nodes, k, seed):
        import tempfile
        from pathlib import Path

        graph = erdos_renyi_graph(nodes, 0.3, seed=seed)
        store = TreeStore.from_graph(graph, k)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.bin"
            store.save(path)
            loaded = TreeStore.load(path)
        assert loaded.nodes() == store.nodes()
        assert all(loaded.tree(n) == store.tree(n) for n in store.nodes())


class TestDistanceMatrix:
    def test_pairwise_matches_core_ned(self, ba_graph, ba_store):
        matrix = pairwise_distance_matrix(ba_store)
        nodes = matrix.row_nodes
        for i in range(0, len(nodes), 9):
            for j in range(0, len(nodes), 11):
                expected = ned(ba_graph, nodes[i], ba_graph, nodes[j], k=3)
                assert matrix.values[i][j] == expected

    @settings(max_examples=8, deadline=None)
    @given(
        nodes=st.integers(min_value=3, max_value=12),
        k=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_pairwise_matches_core_ned_property(self, nodes, k, seed):
        graph = erdos_renyi_graph(nodes, 0.4, seed=seed)
        store = TreeStore.from_graph(graph, k)
        matrix = pairwise_distance_matrix(store)
        for i, u in enumerate(matrix.row_nodes):
            for j, v in enumerate(matrix.col_nodes):
                assert matrix.values[i][j] == ned(graph, u, graph, v, k=k)

    def test_bound_prune_and_process_match_serial(self, deep_store, attached_pool):
        serial = pairwise_distance_matrix(deep_store, mode="exact")
        pruned = pairwise_distance_matrix(deep_store, mode="bound-prune")
        with NedSession(deep_store) as session:
            attached_pool(session)
            process = session.pairwise_matrix(mode="exact", chunk_size=100)
            counters = session.metrics_snapshot()["counters"]
        assert pruned.values == serial.values
        assert process.values == serial.values
        assert counters["serving.dispatch_blocks"] > 0
        assert pruned.stats.exact_evaluations <= serial.stats.exact_evaluations

    def test_each_bound_tier_skips_more_exact_work(self, deep_store):
        serial = pairwise_distance_matrix(deep_store, mode="exact")
        with NedSession(deep_store, tiers=("signature", "level-size")) as session:
            level_size = session.pairwise_matrix(mode="bound-prune")
        full = pairwise_distance_matrix(deep_store, mode="bound-prune")
        assert level_size.values == serial.values
        assert full.values == serial.values
        assert (
            full.stats.exact_evaluations
            <= level_size.stats.exact_evaluations
            <= serial.stats.exact_evaluations
        )
        assert full.stats.exact_evaluations_avoided > 0

    def test_matrix_is_symmetric_with_zero_diagonal(self, ba_store):
        matrix = pairwise_distance_matrix(ba_store)
        for i in range(len(matrix.row_nodes)):
            assert matrix.values[i][i] == 0.0
            for j in range(i):
                assert matrix.values[i][j] == matrix.values[j][i]

    def test_cross_matrix_between_graphs(self):
        graph_a = grid_road_graph(4, 4, seed=1)
        graph_b = grid_road_graph(4, 4, seed=2)
        store_a = TreeStore.from_graph(graph_a, k=3)
        store_b = TreeStore.from_graph(graph_b, k=3)
        matrix = cross_distance_matrix(store_a, store_b)
        for i, u in enumerate(matrix.row_nodes[:5]):
            for j, v in enumerate(matrix.col_nodes[:5]):
                assert matrix.values[i][j] == ned(graph_a, u, graph_b, v, k=3)

    def test_cross_matrix_bound_prune_matches_exact(self):
        graph_a = barabasi_albert_graph(25, 2, seed=5)
        graph_b = barabasi_albert_graph(25, 2, seed=6)
        store_a = TreeStore.from_graph(graph_a, k=4)
        store_b = TreeStore.from_graph(graph_b, k=4)
        exact = cross_distance_matrix(store_a, store_b)
        pruned = cross_distance_matrix(store_a, store_b, mode="bound-prune")
        assert pruned.values == exact.values

    def test_threshold_prunes_without_changing_kept_entries(self, ba_store):
        exact = pairwise_distance_matrix(ba_store)
        finite = sorted(
            value for i, row in enumerate(exact.values) for value in row[i + 1:]
        )
        threshold = finite[len(finite) // 4]
        pruned = pairwise_distance_matrix(
            ba_store, mode="bound-prune", threshold=threshold
        )
        assert pruned.stats.pruned_by_lower_bound > 0
        kept = 0
        for i, row in enumerate(pruned.values):
            for j, value in enumerate(row):
                if value == math.inf:
                    assert exact.values[i][j] > threshold
                else:
                    assert value == exact.values[i][j]
                    kept += 1
        assert kept > 0

    def test_mismatched_k_rejected(self, ba_graph):
        store3 = TreeStore.from_graph(ba_graph, k=3)
        store2 = TreeStore.from_graph(ba_graph, k=2)
        with pytest.raises(DistanceError):
            cross_distance_matrix(store3, store2)

    def test_invalid_options_rejected(self, ba_store):
        with pytest.raises(DistanceError):
            pairwise_distance_matrix(ba_store, mode="psychic")
        with pytest.raises(DistanceError):
            pairwise_distance_matrix(ba_store, chunk_size=0)
        with pytest.raises(DistanceError):
            pairwise_distance_matrix(ba_store, mode="bound-prune", threshold=-1.0)

    def test_broken_pool_falls_back_to_serial(self, deep_store, attached_pool):
        # A pool never restarts: the first killed block makes it give up,
        # and the whole build runs locally.
        plan = FaultPlan([FaultSpec("executor.dispatch", kind="kill")])
        with NedSession(deep_store, faults=plan, resilience=False) as session:
            attached_pool(session)
            with pytest.warns(ResilienceWarning, match="evaluated locally"):
                matrix = session.pairwise_matrix()
            fallbacks = session.metrics_snapshot()["resilience"]["serial_fallbacks"]
        assert matrix.executor_used == "serial (fallback: BrokenExecutor)"
        assert fallbacks == 1
        assert matrix.values == pairwise_distance_matrix(deep_store).values


class TestNedSearchEngine:
    """The acceptance-criterion tests: identical results, fewer exact evals."""

    @pytest.fixture(scope="class")
    def big_graph(self):
        return erdos_renyi_graph(200, 0.02, seed=17)

    @pytest.fixture(scope="class")
    def engines(self, big_graph):
        store = TreeStore.from_graph(big_graph, k=3)
        return (
            NedSearchEngine(store, mode="exact", index="linear"),
            NedSearchEngine(store, mode="bound-prune"),
        )

    def test_knn_bound_prune_identical_with_fewer_exact_evals(self, big_graph, engines):
        exact_engine, pruned_engine = engines
        query_graph = grid_road_graph(7, 7, seed=23)
        total_exact = total_pruned = 0
        for query_node in list(query_graph.nodes())[:5]:
            probe = exact_engine.probe(query_graph, query_node)
            exact_result = exact_engine.knn(probe, 5)
            pruned_result = pruned_engine.knn(probe, 5)
            assert pruned_result == exact_result
            total_exact += exact_engine.last_query_distance_calls
            total_pruned += pruned_engine.last_query_distance_calls
        assert total_pruned < total_exact

    def test_knn_self_query_finds_self_first(self, big_graph, engines):
        _, pruned_engine = engines
        probe = pruned_engine.probe(big_graph, 0)
        result = pruned_engine.knn(probe, 3)
        assert result[0] == (0, 0.0)

    def test_range_search_identical(self, big_graph, engines):
        exact_engine, pruned_engine = engines
        query_graph = grid_road_graph(7, 7, seed=23)
        for query_node in list(query_graph.nodes())[:3]:
            probe = exact_engine.probe(query_graph, query_node)
            assert pruned_engine.range_search(probe, 10.0) == exact_engine.range_search(
                probe, 10.0
            )

    def test_top_l_identical_across_modes(self, big_graph, engines):
        exact_engine, pruned_engine = engines
        probe = exact_engine.probe(big_graph, 5)
        assert pruned_engine.top_l_candidates(probe, 7) == exact_engine.top_l_candidates(
            probe, 7
        )

    def test_vptree_and_bktree_backends_agree_with_scan(self, ba_graph, ba_store):
        scan = NedSearchEngine(ba_store, mode="exact", index="linear")
        vptree = NedSearchEngine(ba_store, mode="exact", index="vptree")
        bktree = NedSearchEngine(ba_store, mode="exact", index="bktree")
        probe = scan.probe(ba_graph, 1)
        scan_distances = [d for _, d in scan.knn(probe, 5)]
        assert [d for _, d in vptree.knn(probe, 5)] == scan_distances
        assert [d for _, d in bktree.knn(probe, 5)] == scan_distances
        assert vptree.last_query_distance_calls <= len(ba_store)

    def test_query_stats_recorded(self, engines):
        _, pruned_engine = engines
        probe = pruned_engine.probe(grid_road_graph(4, 4, seed=1), 0)
        pruned_engine.knn(probe, 4)
        stats = pruned_engine.last_query_stats
        assert stats.mode == "bound-prune"
        assert stats.candidates == 200
        assert stats.counters.pairs_considered == 200
        assert stats.counters.exact_evaluations == stats.distance_calls
        assert (
            stats.counters.exact_evaluations + stats.counters.exact_evaluations_avoided
            <= stats.counters.pairs_considered
        )

    def test_stats_accumulate_across_queries(self, big_graph):
        engine = NedSearchEngine.from_graph(big_graph, k=2, mode="bound-prune")
        probe = engine.probe(big_graph, 0)
        engine.knn(probe, 3)
        first = engine.stats.pairs_considered
        engine.knn(probe, 3)
        assert engine.stats.pairs_considered == 2 * first

    def test_tree_query_accepted(self, ba_graph, ba_store):
        from repro.trees.adjacent import k_adjacent_tree

        engine = NedSearchEngine(ba_store, mode="bound-prune")
        tree = k_adjacent_tree(ba_graph, 2, 3)
        assert engine.knn(tree, 1)[0] == (2, 0.0)

    def test_query_deeper_than_k_rejected(self, ba_graph, ba_store):
        # A deeper tree would make the bound summaries disagree with the
        # k-truncated exact distance and silently prune true neighbors.
        from repro.trees.adjacent import k_adjacent_tree

        engine = NedSearchEngine(ba_store, mode="bound-prune")
        deep_tree = k_adjacent_tree(ba_graph, 2, 5)
        assert deep_tree.height() > 2
        with pytest.raises(GraphError):
            engine.knn(deep_tree, 1)

    def test_invalid_arguments(self, ba_store):
        with pytest.raises(IndexingError):
            NedSearchEngine(ba_store, mode="clairvoyant")
        with pytest.raises(IndexingError):
            NedSearchEngine(ba_store, mode="hybrid")
        with pytest.raises(IndexingError):
            NedSearchEngine(ba_store, index="quadtree")
        engine = NedSearchEngine(ba_store)
        probe = object()
        with pytest.raises(IndexingError):
            engine.knn(probe, 1)
        with pytest.raises(IndexingError):
            engine.knn(ba_store.tree(0), 0)
        with pytest.raises(IndexingError):
            engine.range_search(ba_store.tree(0), -1.0)
        with pytest.raises(IndexingError):
            engine.top_l_candidates(ba_store.tree(0), 0)


class TestBoundTiers:
    """The degree tier only ever removes exact work; tier names are checked."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = erdos_renyi_graph(150, 0.025, seed=29)
        store = TreeStore.from_graph(graph, k=3)
        queries = grid_road_graph(6, 6, seed=31)
        return store, queries

    def test_degree_tier_never_pays_more_than_level_size_only(self, workload):
        store, queries = workload
        level_size_only = NedSession(
            store, tiers=("signature", "level-size")
        ).search_engine(mode="bound-prune")
        full = NedSearchEngine(store, mode="bound-prune")
        for query_node in list(queries.nodes())[:5]:
            probe = full.probe(queries, query_node)
            assert full.knn(probe, 5) == level_size_only.knn(probe, 5)
        assert full.stats.exact_evaluations <= level_size_only.stats.exact_evaluations

    def test_unknown_tier_rejected(self, workload):
        store, _ = workload
        with pytest.raises(DistanceError, match="unknown bound tiers"):
            NedSession(store, tiers=("clairvoyance",))
        with pytest.raises(DistanceError, match="unknown bound tiers"):
            NedSession(store, tiers=("exact",))


class TestEngineDeanonymization:
    def test_engine_sweep_matches_callable_sweep(self):
        graph = barabasi_albert_graph(50, 2, seed=9)
        anonymized = perturbation_anonymization(graph, ratio=0.1, seed=13)
        computer = NedComputer(k=3)

        def distance(train_node, anon_node):
            return computer.distance(graph, train_node, anonymized.graph, anon_node)

        baseline = deanonymization_precision(
            graph, anonymized, distance, top_l=5, sample_size=12, seed=7
        )
        for mode in ("exact", "bound-prune"):
            report, stats = deanonymization_precision_with_engine(
                graph, anonymized, k=3, top_l=5, mode=mode, sample_size=12, seed=7
            )
            assert report == baseline
            assert isinstance(stats, EngineStats)
        assert stats.exact_evaluations < stats.pairs_considered

    def test_engine_sweep_reuses_prebuilt_store(self, tmp_path):
        graph = barabasi_albert_graph(40, 2, seed=4)
        anonymized = perturbation_anonymization(graph, ratio=0.1, seed=5)
        store = TreeStore.from_graph(graph, 3)
        path = tmp_path / "train.store"
        store.save(path)
        report, _ = deanonymization_precision_with_engine(
            graph, anonymized, k=3, top_l=5, sample_size=8,
            training_store=TreeStore.load(path),
        )
        fresh, _ = deanonymization_precision_with_engine(
            graph, anonymized, k=3, top_l=5, sample_size=8
        )
        assert report == fresh

    def test_mismatched_store_k_rejected(self):
        graph = barabasi_albert_graph(20, 2, seed=1)
        anonymized = perturbation_anonymization(graph, ratio=0.1, seed=2)
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            deanonymization_precision_with_engine(
                graph, anonymized, k=3, top_l=5,
                training_store=TreeStore.from_graph(graph, 2),
            )


class TestEngineStats:
    def test_merge_and_ratios(self):
        first = EngineStats(pairs_considered=10, exact_evaluations=4,
                            pruned_by_level_size=6)
        second = EngineStats(pairs_considered=10, exact_evaluations=10)
        first.merge(second)
        assert first.pairs_considered == 20
        assert first.exact_evaluations == 14
        assert first.exact_evaluations_avoided == 6
        assert first.pruning_ratio == pytest.approx(0.3)
        assert first.as_dict()["pruning_ratio"] == pytest.approx(0.3)

    def test_per_tier_aggregates(self):
        stats = EngineStats(
            signature_hits=1,
            decided_by_level_size=2, decided_by_degree=3,
            pruned_by_level_size=4, pruned_by_degree=5,
            level_size_evaluations=9, degree_evaluations=8,
        )
        assert stats.decided_by_bounds == 5
        assert stats.pruned_by_lower_bound == 9
        assert stats.bound_evaluations == 17
        assert stats.exact_evaluations_avoided == 1 + 5 + 9
        as_dict = stats.as_dict()
        assert as_dict["decided_by_degree"] == 3
        assert as_dict["pruned_by_lower_bound"] == 9

    def test_copy_and_since(self):
        stats = EngineStats(pairs_considered=5, exact_evaluations=2)
        snapshot = stats.copy()
        stats.merge(EngineStats(pairs_considered=3, exact_evaluations=1))
        delta = stats.since(snapshot)
        assert (delta.pairs_considered, delta.exact_evaluations) == (3, 1)
        assert (snapshot.pairs_considered, snapshot.exact_evaluations) == (5, 2)

    def test_empty_stats_ratio(self):
        assert EngineStats().pruning_ratio == 0.0


class TestIndexCounterReset:
    """Regression: the base class resets per-query counters, not subclasses."""

    def test_counters_do_not_accumulate(self):
        from repro.index.bktree import BKTree
        from repro.index.linear_scan import LinearScanIndex
        from repro.index.vptree import VPTree

        rng = random.Random(0)
        items = [float(rng.randrange(1000)) for _ in range(64)]
        metric = lambda a, b: abs(a - b)  # noqa: E731
        for index in (
            LinearScanIndex(items, metric),
            VPTree(items, metric, seed=1),
            BKTree(items, metric),
        ):
            index.knn(10.0, 3)
            first = index.last_query_distance_calls
            index.knn(10.0, 3)
            assert index.last_query_distance_calls == first
            index.range_search(10.0, 5.0)
            per_range = index.last_query_distance_calls
            index.range_search(10.0, 5.0)
            assert index.last_query_distance_calls == per_range


class TestMatrixResultLookups:
    """PR-3 satellite: node→index dicts replace O(n) list.index lookups."""

    def test_value_and_row_use_index_maps(self, ba_store):
        matrix = pairwise_distance_matrix(ba_store)
        nodes = matrix.row_nodes
        assert matrix.row_index[nodes[7]] == 7
        assert matrix.col_index[nodes[3]] == 3
        assert matrix.value(nodes[7], nodes[3]) == matrix.values[7][3]
        assert matrix.row(nodes[7]) == matrix.values[7]

    def test_unknown_node_raises_key_error(self, ba_store):
        matrix = pairwise_distance_matrix(ba_store)
        with pytest.raises(KeyError):
            matrix.value("no-such-node", matrix.col_nodes[0])


class TestZeroCopyProcessExecutor:
    def test_worker_initializer_round_trip(self, ba_store):
        from repro.serving import workers
        from repro.serving.shm import export_store

        with export_store(ba_store) as export:
            workers._init_worker(export.handle, "auto")
            try:
                values, _ = workers._evaluate_block([(0, 5), (2, 9)])
            finally:
                workers._WORKER_STATE.pop("store").attached.close()
        entries = ba_store.entries()
        for (i, j), value in zip([(0, 5), (2, 9)], values):
            assert value == ned_from_trees(entries[i].tree, entries[j].tree, ba_store.k)

    def test_cross_matrix_process_matches_serial(self, attached_pool):
        graph_a = barabasi_albert_graph(20, 2, seed=21)
        graph_b = barabasi_albert_graph(22, 2, seed=22)
        store_a = TreeStore.from_graph(graph_a, k=4)
        store_b = TreeStore.from_graph(graph_b, k=4)
        serial = cross_distance_matrix(store_a, store_b)
        with NedSession(store_a) as session:
            attached_pool(session)
            process = session.cross_matrix(store_b, chunk_size=37)
            counters = session.metrics_snapshot()["counters"]
        assert counters["serving.dispatch_blocks"] > 0
        assert process.values == serial.values


class TestIncrementalFallback:
    """A pool that breaks mid-build: only blocks not yet returned run locally."""

    CHUNK = 100

    def _killed_build(self, store, after, local_calls, attached_pool):
        """A build whose attached pool dies at block ``after``.

        ``batch=False`` keeps the parent's local exact tier per pair, so
        counting ``ted_star`` calls in the resolver counts exactly the
        pairs recomputed locally (workers evaluate in their own processes).
        """
        plan = FaultPlan(
            [FaultSpec("executor.dispatch", kind="kill", after=after)]
        )
        with NedSession(
            store, cache_size=0, batch=False, resilience=False, faults=plan,
        ) as session:
            attached_pool(session)
            with pytest.warns(ResilienceWarning):
                result = session.pairwise_matrix(chunk_size=self.CHUNK)
            counters = session.metrics_snapshot()["counters"]
        return result, counters, local_calls[0]

    def test_only_remaining_chunks_recomputed(
        self, deep_store, ted_star_calls, attached_pool
    ):
        returned = 2
        total_pairs = len(deep_store) * (len(deep_store) - 1) // 2
        result, counters, local = self._killed_build(
            deep_store, returned, ted_star_calls, attached_pool
        )
        assert result.executor_used == "serial (fallback: BrokenExecutor)"
        assert counters["serving.dispatch_blocks"] == returned
        assert counters["serving.dispatch_fallbacks"] == 1
        # Exactly the pairs of the blocks the pool never returned.
        assert local == total_pairs - returned * self.CHUNK
        assert result.stats.exact_evaluations == total_pairs
        with NedSession(deep_store, cache_size=0) as session:
            reference = session.pairwise_matrix()
        assert result.values == reference.values

    def test_immediate_break_recomputes_everything(
        self, deep_store, ted_star_calls, attached_pool
    ):
        total_pairs = len(deep_store) * (len(deep_store) - 1) // 2
        result, counters, local = self._killed_build(
            deep_store, 0, ted_star_calls, attached_pool
        )
        assert result.executor_used == "serial (fallback: BrokenExecutor)"
        assert counters.get("serving.dispatch_blocks", 0) == 0
        assert local == total_pairs
        with NedSession(deep_store, cache_size=0) as session:
            reference = session.pairwise_matrix()
        assert result.values == reference.values


class TestMatrixDeanonymization:
    """PR-3 satellite: the matrix-driven sweep matches the callable sweep."""

    def test_matrix_sweep_matches_callable_sweep(self):
        from repro.anonymize.deanonymize import deanonymization_precision_with_matrix

        graph = barabasi_albert_graph(45, 2, seed=19)
        anonymized = perturbation_anonymization(graph, ratio=0.1, seed=23)
        computer = NedComputer(k=3)

        def distance(train_node, anon_node):
            return computer.distance(graph, train_node, anonymized.graph, anon_node)

        baseline = deanonymization_precision(
            graph, anonymized, distance, top_l=5, sample_size=10, seed=3
        )
        for mode in ("exact", "bound-prune"):
            report, stats = deanonymization_precision_with_matrix(
                graph, anonymized, k=3, top_l=5, mode=mode, sample_size=10, seed=3
            )
            assert report == baseline
            assert isinstance(stats, EngineStats)

    def test_top_l_from_matrix_tie_order_matches_deanonymize_node(self):
        from repro.anonymize.deanonymize import deanonymize_node, top_l_from_matrix

        graph = barabasi_albert_graph(30, 2, seed=31)
        anonymized = perturbation_anonymization(graph, ratio=0.15, seed=37)
        train_store = TreeStore.from_graph(graph, 3)
        targets = anonymized.pseudonyms()[:6]
        anon_store = TreeStore.from_graph(anonymized.graph, 3, nodes=targets)
        matrix = cross_distance_matrix(train_store, anon_store)
        computer = NedComputer(k=3)

        def distance(train_node, anon_node):
            return computer.distance(graph, train_node, anonymized.graph, anon_node)

        for anon_node in targets:
            expected = deanonymize_node(anon_node, graph.nodes(), distance, 7)
            assert top_l_from_matrix(matrix, anon_node, 7) == expected


class TestNedComputerCache:
    """Regression: the tree cache must not key on reusable id() values."""

    def test_cache_dropped_when_graph_collected(self):
        import gc

        computer = NedComputer(k=2)
        graph = grid_road_graph(4, 4, seed=1)
        other = grid_road_graph(4, 4, seed=2)
        computer.distance(graph, 0, other, 0)
        assert computer.cache_size() == 2
        del graph
        gc.collect()
        assert computer.cache_size() == 1

    def test_distinct_graphs_never_share_entries(self):
        computer = NedComputer(k=3)
        first = grid_road_graph(5, 5, seed=1)
        second = grid_road_graph(5, 5, seed=2)
        tree_first = computer.tree(first, 0)
        tree_second = computer.tree(second, 0)
        assert computer.tree(first, 0) is tree_first
        assert computer.tree(second, 0) is tree_second

"""Persistence-layer tests: sharded stores, cache sidecars, edge cases.

Covers the durable artifacts of the precompute-once / query-many split —
the sharded :class:`TreeStore` layout and the exact-distance cache sidecar
— plus the failure modes a long-lived on-disk format must catch cleanly:
version mismatches, truncated files, corrupted headers, and the v1→v2
store upgrade path.
"""

import pickle

import pytest

from repro.engine import (
    NedSearchEngine,
    ShardedTreeStore,
    TreeStore,
    pairwise_distance_matrix,
    save_sharded,
    sharded_store_exists,
)
from repro.engine.shards import MANIFEST_NAME
from repro.exceptions import DistanceError, GraphError, IndexingError
from repro.graph.generators import barabasi_albert_graph
from repro.ted.resolver import DEFAULT_CACHE_SIZE, BoundedNedDistance


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(36, 2, seed=9)


@pytest.fixture(scope="module")
def dense(graph):
    return TreeStore.from_graph(graph, k=3)


@pytest.fixture
def sharded(dense, tmp_path):
    save_sharded(dense, tmp_path / "store", shards=5)
    return ShardedTreeStore.load(tmp_path / "store", max_resident=2)


class TestShardedTreeStore:
    def test_save_leaves_no_temp_files(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=3)
        assert not list((tmp_path / "s").glob("*.tmp"))

    def test_round_trip_matches_dense(self, dense, sharded):
        assert sharded.k == dense.k
        assert len(sharded) == len(dense)
        assert sharded.nodes() == dense.nodes()
        assert sharded.shard_count == 5
        for node in dense.nodes():
            assert sharded.entry(node).tree == dense.entry(node).tree
            assert sharded.level_sizes(node) == dense.level_sizes(node)
            assert sharded.signature(node) == dense.signature(node)
            assert sharded.degree_profiles(node) == dense.degree_profiles(node)

    def test_lazy_loading_and_bounded_residency(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=6)
        store = ShardedTreeStore.load(tmp_path / "s", max_resident=2)
        assert store.shard_loads == 0  # nodes()/len() never touch a shard
        store.nodes(), len(store)
        assert store.shard_loads == 0
        first = store.nodes()[0]
        store.entry(first)
        assert store.shard_loads == 1
        store.entries()
        assert store.resident_shard_count() <= 2
        # Touching a resident shard again must not recount as a load.
        loads = store.shard_loads
        last = store.nodes()[-1]
        store.entry(last)
        assert store.shard_loads == loads

    def test_entries_and_iteration_preserve_build_order(self, dense, sharded):
        assert [entry.node for entry in sharded.entries()] == dense.nodes()
        assert [entry.node for entry in sharded] == dense.nodes()
        assert sharded.packed_parent_arrays() == dense.packed_parent_arrays()

    def test_matrix_identical_over_sharded_and_dense(self, dense, sharded):
        reference = pairwise_distance_matrix(dense, mode="bound-prune")
        result = pairwise_distance_matrix(sharded, mode="bound-prune")
        assert result.values == reference.values
        assert result.row_nodes == reference.row_nodes

    def test_search_identical_over_sharded_and_dense(self, graph, dense, sharded):
        dense_engine = NedSearchEngine(dense, mode="bound-prune")
        sharded_engine = NedSearchEngine(sharded, mode="bound-prune")
        for node in graph.nodes()[:6]:
            probe = dense_engine.probe(graph, node)
            assert sharded_engine.knn(probe, 4) == dense_engine.knn(probe, 4)

    def test_subset_and_to_store_are_dense_and_independent(self, dense, sharded):
        picked = dense.nodes()[:5]
        sub = sharded.subset(picked)
        assert isinstance(sub, TreeStore)
        assert sub.nodes() == picked
        assert sub.tree(picked[0]) is not sharded.tree(picked[0])
        full = sharded.to_store()
        assert full.nodes() == dense.nodes()

    def test_manifest_path_or_directory_both_load(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=2)
        assert sharded_store_exists(tmp_path / "s")
        assert sharded_store_exists(tmp_path / "s" / MANIFEST_NAME)
        assert not sharded_store_exists(tmp_path / "elsewhere")
        by_dir = ShardedTreeStore.load(tmp_path / "s")
        by_manifest = ShardedTreeStore.load(tmp_path / "s" / MANIFEST_NAME)
        assert by_dir.nodes() == by_manifest.nodes()

    def test_rejects_bad_shard_count_and_max_resident(self, dense, tmp_path):
        with pytest.raises(GraphError):
            save_sharded(dense, tmp_path / "bad", shards=0)
        save_sharded(dense, tmp_path / "ok", shards=2)
        with pytest.raises(GraphError):
            ShardedTreeStore.load(tmp_path / "ok", max_resident=0)

    def test_shard_split_is_balanced_with_no_empty_shards(self, graph, tmp_path):
        store = TreeStore.from_graph(graph, k=2, nodes=graph.nodes()[:9])
        save_sharded(store, tmp_path / "b", shards=4)
        manifest = pickle.loads((tmp_path / "b" / MANIFEST_NAME).read_bytes())
        sizes = [len(record["nodes"]) for record in manifest["shards"]]
        assert sum(sizes) == 9
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_entries_collapses(self, graph, tmp_path):
        tiny = TreeStore.from_graph(graph, k=2, nodes=graph.nodes()[:3])
        save_sharded(tiny, tmp_path / "tiny", shards=10)
        store = ShardedTreeStore.load(tmp_path / "tiny")
        assert store.shard_count == 3
        assert store.nodes() == tiny.nodes()


class TestShardedStoreFailureModes:
    def test_truncated_shard_file(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=3)
        shard = tmp_path / "s" / "shard-0001.bin"
        shard.write_bytes(shard.read_bytes()[: shard.stat().st_size // 2])
        store = ShardedTreeStore.load(tmp_path / "s")
        store.entry(store.nodes()[0])  # shard 0 is intact
        with pytest.raises(GraphError, match="shard"):
            store.entries()

    def test_missing_shard_file(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=3)
        (tmp_path / "s" / "shard-0002.bin").unlink()
        store = ShardedTreeStore.load(tmp_path / "s")
        with pytest.raises(GraphError, match="does not exist"):
            store.entries()

    def test_manifest_version_mismatch(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=2)
        manifest = tmp_path / "s" / MANIFEST_NAME
        payload = pickle.loads(manifest.read_bytes())
        payload["version"] = 99
        manifest.write_bytes(pickle.dumps(payload))
        with pytest.raises(GraphError, match="99"):
            ShardedTreeStore.load(tmp_path / "s")

    def test_shard_version_mismatch(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=2)
        shard = tmp_path / "s" / "shard-0000.bin"
        payload = pickle.loads(shard.read_bytes())
        payload["version"] = 99
        shard.write_bytes(pickle.dumps(payload))
        store = ShardedTreeStore.load(tmp_path / "s")
        with pytest.raises(GraphError, match="99"):
            store.entry(store.nodes()[0])

    def test_shard_k_disagrees_with_manifest(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=2)
        shard = tmp_path / "s" / "shard-0000.bin"
        payload = pickle.loads(shard.read_bytes())
        payload["k"] = dense.k + 1
        shard.write_bytes(pickle.dumps(payload))
        store = ShardedTreeStore.load(tmp_path / "s")
        with pytest.raises(GraphError, match="corrupt"):
            store.entry(store.nodes()[0])

    def test_stale_shard_node_layout(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=2)
        shard = tmp_path / "s" / "shard-0001.bin"
        payload = pickle.loads(shard.read_bytes())
        payload["entries"] = payload["entries"][:-1]  # drop one record
        shard.write_bytes(pickle.dumps(payload))
        store = ShardedTreeStore.load(tmp_path / "s")
        with pytest.raises(GraphError, match="layout"):
            store.entries()

    def test_foreign_and_corrupt_manifest(self, tmp_path):
        directory = tmp_path / "s"
        directory.mkdir()
        (directory / MANIFEST_NAME).write_bytes(pickle.dumps({"format": "other"}))
        with pytest.raises(GraphError):
            ShardedTreeStore.load(directory)
        (directory / MANIFEST_NAME).write_bytes(b"garbage")
        with pytest.raises(GraphError):
            ShardedTreeStore.load(directory)

    def test_manifest_bad_k(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=2)
        manifest = tmp_path / "s" / MANIFEST_NAME
        payload = pickle.loads(manifest.read_bytes())
        payload["k"] = "three"
        manifest.write_bytes(pickle.dumps(payload))
        with pytest.raises(GraphError, match="positive int"):
            ShardedTreeStore.load(tmp_path / "s")


class TestTreeStoreHeaderValidation:
    def test_corrupted_k_surfaces_clear_error(self, dense, tmp_path):
        """Bugfix: a garbage ``k`` must fail header validation, not surface
        as an arbitrary wrapped error out of the v1 degree-profile upgrade."""
        path = tmp_path / "store.bin"
        dense.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 1  # v1 upgrade recomputes profiles from k
        for record in payload["entries"]:
            del record["degree_profiles"]
        for bad_k in (None, 0, -2, "3", 2.5, True):
            payload["k"] = bad_k
            path.write_bytes(pickle.dumps(payload))
            with pytest.raises(GraphError, match="positive int"):
                TreeStore.load(path)

    def test_v1_upgrade_equivalent_to_fresh_extraction(self, graph, tmp_path):
        """A v1 store (no persisted degree profiles) must load into exactly
        the state a fresh extraction produces."""
        fresh = TreeStore.from_graph(graph, k=3)
        path = tmp_path / "v1.bin"
        fresh.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 1
        for record in payload["entries"]:
            del record["degree_profiles"]
        path.write_bytes(pickle.dumps(payload))
        upgraded = TreeStore.load(path)
        assert upgraded.nodes() == fresh.nodes()
        for node in fresh.nodes():
            assert upgraded.entry(node).tree == fresh.entry(node).tree
            assert upgraded.entry(node).level_sizes == fresh.entry(node).level_sizes
            assert upgraded.entry(node).signature == fresh.entry(node).signature
            assert upgraded.entry(node).degree_profiles == fresh.entry(node).degree_profiles
        # And the upgraded store prunes exactly like the fresh one.
        fresh_matrix = pairwise_distance_matrix(fresh, mode="bound-prune")
        upgraded_matrix = pairwise_distance_matrix(upgraded, mode="bound-prune")
        assert upgraded_matrix.values == fresh_matrix.values

    def test_subset_shares_no_live_trees(self, dense):
        """Bugfix: mutating a tree through a subset must not corrupt the
        parent store (and vice versa)."""
        picked = dense.nodes()[:4]
        sub = dense.subset(picked)
        for node in picked:
            assert sub.tree(node) is not dense.tree(node)
            assert sub.tree(node) == dense.tree(node)
        victim = picked[0]
        original = dense.tree(victim).graph_nodes
        sub.tree(victim).graph_nodes = ("corrupted",)
        assert dense.tree(victim).graph_nodes == original

    def test_subset_save_independent_of_parent(self, dense, tmp_path):
        picked = dense.nodes()[:4]
        sub = dense.subset(picked)
        path = tmp_path / "subset.bin"
        sub.save(path)
        loaded = TreeStore.load(path)
        assert loaded.nodes() == picked
        for node in picked:
            assert loaded.tree(node) == dense.tree(node)


class TestCacheSidecar:
    def _resolver(self, store, cache_size=DEFAULT_CACHE_SIZE):
        return BoundedNedDistance(k=store.k, cache_size=cache_size)

    def test_round_trip_preserves_values_and_hit_accounting(self, dense, tmp_path):
        resolver = self._resolver(dense)
        entries = dense.entries()
        pairs = [(entries[i], entries[j]) for i in range(6) for j in range(i + 1, 6)]
        expected = {}
        for first, second in pairs:
            expected[(first.node, second.node)] = resolver.exact(first, second)
        path = tmp_path / "cache.ned"
        written = resolver.save_cache(path)
        assert written == resolver.cache_len()
        # Sidecars are written atomically (temp file + rename): no droppings.
        assert not path.with_name(path.name + ".tmp").exists()

        warm = self._resolver(dense)
        loaded = warm.load_cache(path)
        assert loaded == written
        # Loading is not a lookup: counters start clean, so cache_hit_rate
        # measures only this process's probes.
        assert warm.counters.cache_hits == 0
        assert warm.counters.cache_misses == 0
        for (first, second), value in zip(pairs, expected.values()):
            assert warm.exact(first, second) == value
        assert warm.counters.exact_evaluations == 0
        assert warm.counters.cache_hits == len(pairs)
        # All exact-path lookups answered from the sidecar.
        assert warm.counters.cache_misses == 0

    def test_engine_cache_hit_rate_after_warm(self, graph, tmp_path):
        # k = 4: at k <= 3 the degree tier pins every pair and the cache
        # would never be consulted.
        deep = TreeStore.from_graph(graph, k=4)
        path = tmp_path / "cache.ned"
        cold = NedSearchEngine(deep, mode="bound-prune", cache_file=path)
        queries = [cold.probe(graph, node) for node in graph.nodes()[:8]]
        cold_answers = [cold.knn(probe, 4) for probe in queries]
        cold.save_cache()

        warm = NedSearchEngine(deep, mode="bound-prune", cache_file=path)
        warm_answers = [warm.knn(probe, 4) for probe in queries]
        assert warm_answers == cold_answers
        assert warm.stats.exact_evaluations == 0
        lookups = warm.stats.cache_hits + warm.stats.cache_misses
        assert lookups == warm.stats.cache_hits  # no misses when fully warm
        assert warm.stats.cache_hit_rate == 1.0

    def test_warm_from_merges_without_overwriting(self, dense, tmp_path):
        entries = dense.entries()
        first = self._resolver(dense)
        first.exact(entries[0], entries[1])
        path = tmp_path / "cache.ned"
        first.save_cache(path)

        second = self._resolver(dense)
        second.exact(entries[2], entries[3])
        before = second.cache_len()
        added = second.warm_from(path)
        assert second.cache_len() == before + added
        # Merging again adds nothing new.
        assert second.warm_from(path) == 0
        # Live-resolver source works the same way.
        third = self._resolver(dense)
        assert third.warm_from(second) == second.cache_len()

    def test_version_mismatch_rejected(self, dense, tmp_path):
        resolver = self._resolver(dense)
        path = tmp_path / "cache.ned"
        resolver.save_cache(path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 42
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(DistanceError, match="42"):
            self._resolver(dense).load_cache(path)

    def test_k_mismatch_rejected(self, dense, tmp_path):
        resolver = self._resolver(dense)
        path = tmp_path / "cache.ned"
        resolver.save_cache(path)
        other = BoundedNedDistance(k=dense.k + 1, cache_size=DEFAULT_CACHE_SIZE)
        with pytest.raises(DistanceError, match="not comparable"):
            other.load_cache(path)
        with pytest.raises(DistanceError, match="k="):
            other.warm_from(resolver)

    def test_backend_mismatch_rejected(self, dense, tmp_path):
        resolver = BoundedNedDistance(
            k=dense.k, backend="hungarian", cache_size=DEFAULT_CACHE_SIZE
        )
        path = tmp_path / "cache.ned"
        resolver.save_cache(path)
        other = BoundedNedDistance(k=dense.k, backend="auto", cache_size=DEFAULT_CACHE_SIZE)
        with pytest.raises(DistanceError, match="backend"):
            other.warm_from(path)

    def test_foreign_and_truncated_sidecar_rejected(self, dense, tmp_path):
        foreign = tmp_path / "foreign.ned"
        foreign.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(DistanceError, match="not a NED distance-cache"):
            self._resolver(dense).load_cache(foreign)
        resolver = self._resolver(dense)
        entries = dense.entries()
        resolver.exact(entries[0], entries[1])
        truncated = tmp_path / "truncated.ned"
        resolver.save_cache(truncated)
        truncated.write_bytes(truncated.read_bytes()[:10])
        with pytest.raises(DistanceError):
            self._resolver(dense).load_cache(truncated)

    def test_disabled_cache_cannot_load_or_warm(self, dense, tmp_path):
        resolver = self._resolver(dense)
        path = tmp_path / "cache.ned"
        resolver.save_cache(path)
        disabled = self._resolver(dense, cache_size=0)
        with pytest.raises(DistanceError, match="disabled"):
            disabled.load_cache(path)
        with pytest.raises(DistanceError, match="disabled"):
            disabled.warm_from(path)

    def test_load_trims_to_cache_size_keeping_newest(self, dense, tmp_path):
        resolver = self._resolver(dense)
        entries = dense.entries()
        for i in range(5):
            resolver.exact(entries[i], entries[i + 5])
        path = tmp_path / "cache.ned"
        resolver.save_cache(path)
        small = BoundedNedDistance(k=dense.k, cache_size=2)
        kept = small.load_cache(path)
        assert kept <= 2

    def test_matrix_cache_file_requires_cache(self, dense, tmp_path):
        with pytest.raises(DistanceError, match="cache"):
            pairwise_distance_matrix(
                dense, cache_size=0, cache_file=tmp_path / "cache.ned"
            )
        # The guard also covers a shared resolver whose cache is disabled —
        # otherwise the sidecar would be written empty and the warm benefit
        # silently lost.
        disabled = BoundedNedDistance(k=dense.k, cache_size=0)
        with pytest.raises(DistanceError, match="cache"):
            pairwise_distance_matrix(
                dense, resolver=disabled, cache_file=tmp_path / "cache.ned"
            )

    def test_fig10_store_fingerprint_tracks_the_graph(self):
        from repro.experiments.fig10_deanonymization import _store_fingerprint
        from repro.graph.graph import Graph

        path = Graph([(0, 1), (1, 2), (2, 3)])
        star = Graph([(0, 1), (0, 2), (0, 3)])  # same node ids, other edges
        nodes = path.nodes()
        assert _store_fingerprint(path, 3, nodes) == _store_fingerprint(path, 3, nodes)
        assert _store_fingerprint(path, 3, nodes) != _store_fingerprint(star, 3, nodes)
        assert _store_fingerprint(path, 3, nodes) != _store_fingerprint(path, 2, nodes)
        assert _store_fingerprint(path, 3, nodes) != _store_fingerprint(path, 3, nodes[:2])

    def test_matrix_cold_then_warm_identical_and_free(self, dense, tmp_path):
        path = tmp_path / "cache.ned"
        cold = pairwise_distance_matrix(dense, mode="bound-prune", cache_file=path)
        assert path.exists()
        warm = pairwise_distance_matrix(dense, mode="bound-prune", cache_file=path)
        assert warm.values == cold.values
        assert warm.stats.exact_evaluations == 0

    def test_engine_save_cache_requires_a_path(self, dense):
        engine = NedSearchEngine(dense, mode="bound-prune", cache_size=DEFAULT_CACHE_SIZE)
        with pytest.raises(IndexingError, match="cache path"):
            engine.save_cache()


class TestEvictionAwareSidecar:
    """Format-v2 sidecars persist per-entry hit counts (PR 5)."""

    def _distinct_pairs(self, dense, count):
        """Pairs with pairwise distinct cache keys against entry 0."""
        entries = dense.entries()
        probe = entries[0]
        pairs, seen = [], {probe.signature}
        for entry in entries[1:]:
            if entry.signature not in seen:
                pairs.append((probe, entry))
                seen.add(entry.signature)
            if len(pairs) == count:
                break
        assert len(pairs) == count
        return pairs

    def test_overflowing_load_keeps_the_hottest_entries(self, dense, tmp_path):
        resolver = BoundedNedDistance(k=dense.k, cache_size=DEFAULT_CACHE_SIZE)
        pairs = self._distinct_pairs(dense, 4)
        for first, second in pairs:
            resolver.exact(first, second)
        # Make the two *oldest* entries the hottest: recency-based trimming
        # would drop exactly the pairs hotness-based trimming keeps.
        hot = pairs[:2]
        for first, second in hot * 3:
            resolver.exact(first, second)
        path = tmp_path / "cache.ned"
        resolver.save_cache(path)

        small = BoundedNedDistance(k=dense.k, cache_size=2)
        assert small.load_cache(path) == 2
        for first, second in hot:
            small.exact(first, second)
        assert small.counters.exact_evaluations == 0  # hottest survived
        cold_first, cold_second = pairs[-1]
        small.exact(cold_first, cold_second)
        assert small.counters.exact_evaluations == 1  # coldest was trimmed

    def test_hit_counts_survive_the_round_trip(self, dense, tmp_path):
        resolver = BoundedNedDistance(k=dense.k, cache_size=DEFAULT_CACHE_SIZE)
        (first, second), = self._distinct_pairs(dense, 1)
        resolver.exact(first, second)
        resolver.exact(first, second)  # 1 hit
        path = tmp_path / "cache.ned"
        resolver.save_cache(path)
        payload = pickle.loads(path.read_bytes())
        assert payload["version"] == 2
        assert [hits for *_, hits in payload["entries"]] == [1]

        warm = BoundedNedDistance(k=dense.k, cache_size=DEFAULT_CACHE_SIZE)
        warm.load_cache(path)
        warm.exact(first, second)  # +1 hit on the loaded entry
        warm.save_cache(path)
        payload = pickle.loads(path.read_bytes())
        assert [hits for *_, hits in payload["entries"]] == [2]

    def test_v1_sidecar_loads_compatibly(self, dense, tmp_path):
        resolver = BoundedNedDistance(k=dense.k, cache_size=DEFAULT_CACHE_SIZE)
        pairs = self._distinct_pairs(dense, 3)
        values = [resolver.exact(first, second) for first, second in pairs]
        path = tmp_path / "cache-v1.ned"
        resolver.save_cache(path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 1
        payload["entries"] = [(a, b, value) for a, b, value, _ in payload["entries"]]
        path.write_bytes(pickle.dumps(payload))

        warm = BoundedNedDistance(k=dense.k, cache_size=DEFAULT_CACHE_SIZE)
        assert warm.load_cache(path) == 3
        for (first, second), value in zip(pairs, values):
            assert warm.exact(first, second) == value
        assert warm.counters.exact_evaluations == 0
        # With no hit counts every entry ties at 0, so an overflowing load
        # falls back to keeping the newest — the v1 behaviour.
        newest = BoundedNedDistance(k=dense.k, cache_size=1)
        assert newest.load_cache(path) == 1
        last_first, last_second = pairs[-1]
        newest.exact(last_first, last_second)
        assert newest.counters.exact_evaluations == 0


class TestMergeSidecars:
    def _worker_sidecar(self, dense, tmp_path, name, pair_indices, repeats=0):
        from repro.ted.resolver import merge_sidecars  # noqa: F401 (import check)

        resolver = BoundedNedDistance(k=dense.k, cache_size=DEFAULT_CACHE_SIZE)
        entries = dense.entries()
        for i, j in pair_indices:
            resolver.exact(entries[i], entries[j])
        for _ in range(repeats):
            for i, j in pair_indices:
                resolver.exact(entries[i], entries[j])
        path = tmp_path / name
        resolver.save_cache(path)
        return path

    def test_merge_unions_entries_and_sums_hits(self, dense, tmp_path):
        from repro.ted.resolver import merge_sidecars

        first = self._worker_sidecar(dense, tmp_path, "w0.ned", [(0, 9)], repeats=2)
        second = self._worker_sidecar(
            dense, tmp_path, "w1.ned", [(0, 9), (1, 8)], repeats=1
        )
        output = tmp_path / "merged.ned"
        count = merge_sidecars([first, second], output)
        payload = pickle.loads(output.read_bytes())
        assert payload["version"] == 2
        by_key = {(a, b): hits for a, b, _, hits in payload["entries"]}
        assert count == len(by_key)
        entries = dense.entries()
        shared = BoundedNedDistance(k=dense.k, cache_size=4).cache_key(
            entries[0], entries[9]
        )
        assert by_key[shared] == 3  # 2 hits from w0 + 1 from w1
        assert not output.with_name(output.name + ".tmp").exists()

        warm = BoundedNedDistance(k=dense.k, cache_size=DEFAULT_CACHE_SIZE)
        warm.load_cache(output)
        warm.exact(entries[0], entries[9])
        warm.exact(entries[1], entries[8])
        assert warm.counters.exact_evaluations == 0

    def test_merge_rejects_mismatched_headers(self, dense, tmp_path):
        from repro.ted.resolver import merge_sidecars

        path = self._worker_sidecar(dense, tmp_path, "ok.ned", [(0, 9)])
        other = BoundedNedDistance(
            k=dense.k + 1, cache_size=DEFAULT_CACHE_SIZE
        )
        other_path = tmp_path / "other-k.ned"
        other.save_cache(other_path)
        with pytest.raises(DistanceError, match="k="):
            merge_sidecars([path, other_path], tmp_path / "out.ned")

        hungarian = BoundedNedDistance(
            k=dense.k, backend="hungarian", cache_size=DEFAULT_CACHE_SIZE
        )
        hungarian_path = tmp_path / "other-backend.ned"
        hungarian.save_cache(hungarian_path)
        with pytest.raises(DistanceError, match="backend"):
            merge_sidecars([path, hungarian_path], tmp_path / "out.ned")

    def test_merge_rejects_empty_input_and_foreign_files(self, dense, tmp_path):
        from repro.ted.resolver import merge_sidecars

        with pytest.raises(DistanceError, match="at least one"):
            merge_sidecars([], tmp_path / "out.ned")
        foreign = tmp_path / "foreign.ned"
        foreign.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(DistanceError, match="not a NED distance-cache"):
            merge_sidecars([foreign], tmp_path / "out.ned")


class TestWarmFromHitSemantics:
    def test_shared_base_hits_are_not_multiplied_across_workers(self, dense, tmp_path):
        """N workers warming from one base must not each re-export its hits."""
        from repro.ted.resolver import merge_sidecars

        entries = dense.entries()
        base = BoundedNedDistance(k=dense.k, cache_size=DEFAULT_CACHE_SIZE)
        base.exact(entries[0], entries[9])
        base.exact(entries[0], entries[9])  # base entry: 1 hit
        base_path = tmp_path / "base.ned"
        base.save_cache(base_path)
        base_key = base.cache_key(entries[0], entries[9])

        worker_paths = []
        for worker in range(3):
            resolver = BoundedNedDistance(k=dense.k, cache_size=DEFAULT_CACHE_SIZE)
            resolver.warm_from(base_path)  # merged entries arrive cold
            resolver.exact(entries[1], entries[8])  # each worker's own pair
            path = tmp_path / f"worker-{worker}.ned"
            resolver.save_cache(path)
            worker_paths.append(path)

        merged = tmp_path / "merged.ned"
        merge_sidecars([base_path] + worker_paths, merged)
        payload = pickle.loads(merged.read_bytes())
        by_key = {(a, b): hits for a, b, _, hits in payload["entries"]}
        # The base entry's single hit is counted once (from the base sidecar
        # itself), not once per warmed worker.
        assert by_key[base_key] == 1


class TestPackedParentStreaming:
    """packed_parent_arrays() must not disturb the shard working set.

    The batch TED* kernel (and the process-pool initializer) pull the whole
    store's parent arrays once; before the streaming path this evicted the
    query working set of a small-``max_resident`` store and double-counted
    as shard churn.
    """

    def test_streaming_leaves_lru_counters_and_order_untouched(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=5)
        store = ShardedTreeStore.load(tmp_path / "s", max_resident=2)
        nodes = store.nodes()
        # Warm two shards through real queries, then note the LRU state.
        store.entry(nodes[0])
        store.entry(nodes[-1])
        loads = store.shard_loads
        evictions = store.evictions
        resident = list(store._resident)

        packed = store.packed_parent_arrays()

        assert store.shard_loads == loads
        assert store.evictions == evictions
        assert list(store._resident) == resident
        assert packed == dense.packed_parent_arrays()

    def test_streaming_decodes_are_metered_not_counted_as_loads(self, dense, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        save_sharded(dense, tmp_path / "s", shards=5)
        store = ShardedTreeStore.load(tmp_path / "s", max_resident=2)
        metrics = MetricsRegistry()
        store.attach_metrics(metrics)
        store.entry(store.nodes()[0])  # one genuinely resident shard
        store.packed_parent_arrays()
        counters = metrics.snapshot()["counters"]
        assert counters.get("shards.loads") == 1
        # The other four shards were decoded transiently, not loaded.
        assert counters.get("shards.stream_decodes") == 4

    def test_sharded_summaries_pack_on_demand(self, dense, tmp_path):
        pytest.importorskip("numpy")
        save_sharded(dense, tmp_path / "s", shards=5)
        store = ShardedTreeStore.load(tmp_path / "s", max_resident=2)
        store.entry(store.nodes()[0])
        resident = list(store._resident)
        summaries = store.packed_summaries()
        # A streaming pass of its own: no parent arrays, LRU untouched.
        assert store._packed is None
        assert list(store._resident) == resident
        assert store.packed_summaries() is summaries
        expected = dense.packed_summaries()
        assert (summaries.sizes == expected.sizes).all()
        assert (summaries.signature_ids == expected.signature_ids).all()
        for got, want in zip(summaries.degrees, expected.degrees):
            assert (got == want).all()

    def test_sharded_packing_memoized(self, dense, tmp_path):
        save_sharded(dense, tmp_path / "s", shards=5)
        store = ShardedTreeStore.load(tmp_path / "s", max_resident=2)
        first = store.packed_parent_arrays()
        second = store.packed_parent_arrays()
        assert first is not second  # fresh outer list per call
        assert all(a is b for a, b in zip(first, second))  # shared inner arrays

    def test_dense_packing_memoized(self, dense):
        first = dense.packed_parent_arrays()
        second = dense.packed_parent_arrays()
        assert first == [entry.tree.parent_array() for entry in dense.entries()]
        assert first is not second
        assert all(a is b for a, b in zip(first, second))

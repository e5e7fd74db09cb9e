"""Tests for the signature-keyed distance cache tier (PR 3).

Covers the three satellite requirements: cache-on vs cache-off value
identity on random stores, eviction correctness at small capacity, and the
counter accounting invariant ``cache_hits + cache_misses == exact-path
entries``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import NedSession, TreeStore
from repro.exceptions import DistanceError
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph, grid_road_graph
from repro.ted.resolver import (
    CACHE_TIER,
    DEFAULT_CACHE_SIZE,
    EXACT_TIER,
    BoundedNedDistance,
)
from repro.ted import batch_available
from repro.ted.ted_star import ted_star


def _pairwise(store, cache_size, **plan_options):
    """One pairwise build on a session with the given cache capacity."""
    with NedSession(store, cache_size=cache_size) as session:
        return session.pairwise_matrix(**plan_options)


@pytest.fixture(scope="module")
def store():
    # k = 4: at k <= 3 the degree tier pins every pair, so neither the
    # cache nor the exact tier would ever be reached.
    return TreeStore.from_graph(barabasi_albert_graph(40, 2, seed=11), k=4)


class TestResolverCache:
    def test_hit_closes_interval_exactly(self, store):
        resolver = BoundedNedDistance(k=4, cache_size=16)
        nodes = store.nodes()
        first, second = store.entry(nodes[0]), store.entry(nodes[7])
        value, interval = resolver.resolve(first, second)
        assert interval.tier == EXACT_TIER
        again, interval = resolver.resolve(first, second)
        assert interval.tier == CACHE_TIER
        assert interval.exact
        assert again == value == ted_star(first.tree, second.tree, k=4)
        assert resolver.counters.cache_hits == 1
        assert resolver.counters.exact_evaluations == 1

    def test_key_is_symmetric(self, store):
        resolver = BoundedNedDistance(k=4, cache_size=16)
        nodes = store.nodes()
        first, second = store.entry(nodes[0]), store.entry(nodes[7])
        assert resolver.cache.key(first, second) == resolver.cache.key(second, first)
        resolver.exact(first, second)
        resolver.exact(second, first)
        assert resolver.counters.exact_evaluations == 1
        assert resolver.counters.cache_hits == 1

    def test_disabled_cache_never_counts(self, store):
        resolver = BoundedNedDistance(k=4)  # cache_size defaults to 0
        nodes = store.nodes()
        first, second = store.entry(nodes[0]), store.entry(nodes[7])
        assert resolver.cache.key(first, second) is None
        resolver.exact(first, second)
        resolver.exact(first, second)
        assert resolver.counters.exact_evaluations == 2
        assert resolver.counters.cache_hits == resolver.counters.cache_misses == 0

    def test_eviction_at_small_capacity(self, store):
        resolver = BoundedNedDistance(k=4, cache_size=2)
        entries = [store.entry(node) for node in store.nodes()]
        probe = entries[0]
        # Three candidates with pairwise distinct signatures vs the probe.
        distinct = []
        seen = {probe.signature}
        for entry in entries[1:]:
            if entry.signature not in seen:
                distinct.append(entry)
                seen.add(entry.signature)
            if len(distinct) == 3:
                break
        a, b, c = distinct
        resolver.exact(probe, a)  # cache: {a}
        resolver.exact(probe, b)  # cache: {a, b}
        assert len(resolver.cache) == 2
        resolver.exact(probe, a)  # hit; a becomes most recent: {b, a}
        assert resolver.counters.cache_hits == 1
        resolver.exact(probe, c)  # evicts b (least recently used): {a, c}
        assert len(resolver.cache) == 2
        before = resolver.counters.exact_evaluations
        resolver.exact(probe, a)  # still cached
        assert resolver.counters.exact_evaluations == before
        resolver.exact(probe, b)  # evicted -> recomputed
        assert resolver.counters.exact_evaluations == before + 1

    def test_snapshot_reports_lru_evictions(self, store):
        entries = [store.entry(node) for node in store.nodes()]
        probe, distinct, seen = entries[0], [], {entries[0].signature}
        for entry in entries[1:]:
            if entry.signature not in seen and len(distinct) < 3:
                distinct.append(entry)
                seen.add(entry.signature)
        with NedSession(store, cache_size=2) as session:
            for candidate in distinct:
                session.resolver.exact(probe, candidate)
            assert session.metrics_snapshot()["cache"] == {
                "entries": 2,
                "capacity": 2,
                "evictions": 1,
            }

    def test_cache_clear_and_negative_size(self, store):
        with pytest.raises(DistanceError):
            BoundedNedDistance(k=4, cache_size=-1)
        resolver = BoundedNedDistance(k=4, cache_size=8)
        nodes = store.nodes()
        resolver.exact(store.entry(nodes[0]), store.entry(nodes[5]))
        assert len(resolver.cache) == 1
        resolver.cache.clear()
        assert len(resolver.cache) == 0


class TestMatrixCacheIdentity:
    def test_cache_on_off_identity_fixed_store(self, store):
        cached = _pairwise(store, DEFAULT_CACHE_SIZE)
        uncached = _pairwise(store, 0)
        assert cached.values == uncached.values
        assert cached.stats.cache_hits > 0
        assert uncached.stats.cache_hits == uncached.stats.cache_misses == 0

    @settings(max_examples=8, deadline=None)
    @given(
        nodes=st.integers(min_value=4, max_value=18),
        k=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_cache_on_off_identity_random_stores(self, nodes, k, seed):
        graph = erdos_renyi_graph(nodes, 0.3, seed=seed)
        random_store = TreeStore.from_graph(graph, k)
        for mode in ("exact", "bound-prune"):
            cached = _pairwise(random_store, DEFAULT_CACHE_SIZE, mode=mode)
            uncached = _pairwise(random_store, 0, mode=mode)
            assert cached.values == uncached.values

    def test_cross_matrix_cache_identity(self):
        store_a = TreeStore.from_graph(barabasi_albert_graph(20, 2, seed=3), k=4)
        store_b = TreeStore.from_graph(barabasi_albert_graph(25, 2, seed=4), k=4)
        with NedSession(store_a, cache_size=DEFAULT_CACHE_SIZE) as session:
            cached = session.cross_matrix(store_b)
        with NedSession(store_a, cache_size=0) as session:
            uncached = session.cross_matrix(store_b)
        assert cached.values == uncached.values

    def test_closed_form_matrices_skip_the_cache(self):
        # At k = 3 the bound survey decides every pair on the batch path, so
        # the cache is never consulted; on or off, the values are those of
        # the per-pair path, which does go through the cache.
        shallow = TreeStore.from_graph(barabasi_albert_graph(40, 2, seed=11), k=3)
        for mode in ("exact", "bound-prune"):
            cached = _pairwise(shallow, DEFAULT_CACHE_SIZE, mode=mode)
            uncached = _pairwise(shallow, 0, mode=mode)
            with NedSession(shallow, batch=False) as reference:
                expected = reference.pairwise_matrix(mode=mode)
            assert cached.values == uncached.values == expected.values
            if batch_available():
                assert cached.stats.cache_hits == cached.stats.cache_misses == 0
        with NedSession(shallow, batch=False) as reference:
            assert reference.pairwise_matrix(mode="exact").stats.cache_misses > 0

    def test_accounting_exact_mode(self, store):
        result = _pairwise(store, DEFAULT_CACHE_SIZE)
        stats = result.stats
        # Every pair is on the exact path in exact mode: one lookup each.
        assert stats.cache_hits + stats.cache_misses == stats.pairs_considered
        # Each miss pays for exactly one kernel evaluation.
        assert stats.exact_evaluations == stats.cache_misses
        assert 0.0 < stats.cache_hit_rate < 1.0

    def test_shared_resolver_reuses_cache_across_builds(self, store):
        # Two builds on one session share its resolver and its cache.
        with NedSession(store, cache_size=DEFAULT_CACHE_SIZE) as session:
            first = session.pairwise_matrix()
            second = session.pairwise_matrix()
            resolver = session.resolver
        assert second.values == first.values
        # The second build answers every exact-path pair from the warm cache.
        assert second.stats.exact_evaluations == 0
        assert second.stats.cache_hits == second.stats.pairs_considered
        # The shared resolver keeps running totals across both builds.
        assert resolver.counters.exact_evaluations == first.stats.exact_evaluations
        assert (
            resolver.counters.cache_hits
            == first.stats.cache_hits + second.stats.cache_hits
        )

    def test_accounting_bound_prune_mode(self, store):
        result = _pairwise(store, DEFAULT_CACHE_SIZE, mode="bound-prune")
        stats = result.stats
        exact_path = (
            stats.pairs_considered
            - stats.signature_hits
            - stats.decided_by_level_size
            - stats.decided_by_degree
            - stats.pruned_by_lower_bound
        )
        assert stats.cache_hits + stats.cache_misses == exact_path
        assert stats.exact_evaluations == stats.cache_misses


class TestSearchEngineCache:
    def test_repeated_probes_hit_and_agree(self, store):
        graph = grid_road_graph(5, 5, seed=7)
        cached_engine = NedSession(store, cache_size=DEFAULT_CACHE_SIZE).search_engine(
            mode="bound-prune"
        )
        plain_engine = NedSession(store, cache_size=0).search_engine(mode="bound-prune")
        for node in list(graph.nodes())[:6]:
            probe = cached_engine.probe(graph, node)
            assert cached_engine.knn(probe, 4) == plain_engine.knn(probe, 4)
        # The same probe again: the whole exact path comes from memory.
        probe = cached_engine.probe(graph, 0)
        first = cached_engine.knn(probe, 4)
        before = cached_engine.stats.exact_evaluations
        assert cached_engine.knn(probe, 4) == first
        assert cached_engine.stats.exact_evaluations == before
        assert cached_engine.stats.cache_hits > 0
        assert plain_engine.stats.cache_hits == 0

    def test_query_accounting(self, store):
        engine = NedSession(store, cache_size=64).search_engine(mode="bound-prune")
        probe = engine.probe(grid_road_graph(4, 4, seed=2), 0)
        engine.knn(probe, 5)
        counters = engine.last_query_stats.counters
        exact_path = (
            counters.pairs_considered
            - counters.signature_hits
            - counters.decided_by_level_size
            - counters.decided_by_degree
            - counters.pruned_by_lower_bound
        )
        assert counters.cache_hits + counters.cache_misses == exact_path
        assert counters.exact_evaluations == counters.cache_misses
        assert (
            counters.exact_evaluations + counters.exact_evaluations_avoided
            == counters.pairs_considered
        )

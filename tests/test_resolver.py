"""Tests for the tiered distance-resolution cascade (repro.ted.resolver)."""

import math
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    CrossMatrixPlan,
    NedSession,
    PairwiseMatrixPlan,
    ShardedTreeStore,
    save_sharded,
)
from repro.engine.tree_store import TreeStore, summarize_tree
from repro.exceptions import DistanceError
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph, grid_road_graph
from repro.ted.batch import batch_available
from repro.ted.bounds import ted_star_level_size_bounds
from repro.ted.resolver import (
    BOUND_TIERS,
    DEGREE_TIER,
    EXACT_TIER,
    LEVEL_SIZE_TIER,
    SIGNATURE_TIER,
    TIER_CASCADE,
    BoundedNedDistance,
    SURVEY_TIERS,
    ResolutionCounters,
    ResolutionInterval,
)
from repro.ted.ted_star import ted_star
from repro.trees.random_trees import random_tree_with_depth


@pytest.fixture(scope="module")
def store():
    return TreeStore.from_graph(barabasi_albert_graph(40, 2, seed=11), k=3)


@pytest.fixture(scope="module")
def deep_store():
    return TreeStore.from_graph(barabasi_albert_graph(40, 2, seed=11), k=4)


class TestResolutionInterval:
    def test_exact_and_predicates(self):
        open_interval = ResolutionInterval(2.0, 5.0, LEVEL_SIZE_TIER)
        assert not open_interval.exact
        assert open_interval.excludes(1.5)
        assert not open_interval.excludes(2.0)
        assert open_interval.straddles(3.0)
        assert not open_interval.straddles(5.0)
        closed = ResolutionInterval(4.0, 4.0, DEGREE_TIER)
        assert closed.exact and not closed.straddles(4.0)

    def test_cascade_constants(self):
        assert TIER_CASCADE == BOUND_TIERS + (EXACT_TIER,)
        assert BOUND_TIERS[0] == SIGNATURE_TIER


class TestBoundedNedDistance:
    def test_signature_tier_resolves_isomorphic_pairs(self, store):
        resolver = BoundedNedDistance(k=3)
        entry = store.entry(store.nodes()[0])
        interval = resolver.bounds(entry, entry)
        assert interval == ResolutionInterval(0.0, 0.0, SIGNATURE_TIER)
        assert resolver.counters.signature_hits == 1
        assert resolver.counters.exact_evaluations == 0

    def test_distance_matches_ted_star(self, store):
        resolver = BoundedNedDistance(k=3)
        nodes = store.nodes()
        for u, v in [(nodes[0], nodes[5]), (nodes[3], nodes[17]), (nodes[8], nodes[8])]:
            expected = ted_star(store.tree(u), store.tree(v), k=3)
            assert resolver.distance(store.entry(u), store.entry(v)) == expected

    def test_resolve_with_threshold_prunes_and_credits_the_tier(self, store):
        resolver = BoundedNedDistance(k=3)
        entries = store.entries()
        pruned = 0
        for first in entries[:8]:
            for second in entries[8:]:
                value, interval = resolver.resolve(first, second, threshold=0.5)
                if value is None:
                    pruned += 1
                    assert interval.lower > 0.5
                    assert interval.tier in (LEVEL_SIZE_TIER, DEGREE_TIER)
        assert pruned > 0
        counters = resolver.counters
        assert counters.pruned_by_level_size + counters.pruned_by_degree == pruned

    def test_degree_tier_credited_only_when_it_governs(self, deep_store):
        # k = 4: at k <= 3 the degree tier pins every pair it evaluates and
        # is credited for all of them (test_degree_tier_decides_up_to_k3).
        resolver = BoundedNedDistance(k=4)
        entries = deep_store.entries()
        for first in entries:
            for second in entries:
                interval = resolver.bounds(first, second)
                if interval.tier == DEGREE_TIER:
                    # The degree tier governs only when it beat level-size.
                    level_lower, _ = ted_star_level_size_bounds(
                        first.level_sizes, second.level_sizes
                    )
                    assert interval.lower > level_lower

    def test_degree_tier_decides_up_to_k3(self, store):
        # At k <= 3 the degree bound is TED*: every pair the degree tier
        # evaluates comes back closed, credited to it, at the exact value.
        resolver = BoundedNedDistance(k=3)
        entries = store.entries()
        for first in entries[:10]:
            for second in entries:
                value, interval = resolver.resolve(first, second)
                assert interval.exact
                assert value == ted_star(first.tree, second.tree, k=3)
        counters = resolver.counters
        assert counters.exact_evaluations == 0
        assert counters.decided_by_degree == counters.degree_evaluations > 0

    def test_tier_subset_skips_disabled_tiers(self, store):
        entries = store.entries()
        level_only = BoundedNedDistance(k=3, tiers=(SIGNATURE_TIER, LEVEL_SIZE_TIER))
        for first in entries[:6]:
            for second in entries[:6]:
                level_only.bounds(first, second)
        assert level_only.counters.degree_evaluations == 0
        no_signature = BoundedNedDistance(k=3, tiers=(LEVEL_SIZE_TIER, DEGREE_TIER))
        entry = entries[0]
        interval = no_signature.bounds(entry, entry)
        assert interval.tier != SIGNATURE_TIER
        assert no_signature.counters.signature_hits == 0

    def test_tier_order_normalised_and_validated(self):
        resolver = BoundedNedDistance(k=3, tiers=(DEGREE_TIER, SIGNATURE_TIER))
        assert resolver.tiers == (SIGNATURE_TIER, DEGREE_TIER)
        with pytest.raises(DistanceError):
            BoundedNedDistance(k=3, tiers=("psychic",))
        with pytest.raises(DistanceError):
            BoundedNedDistance(k=3, tiers=(EXACT_TIER,))  # exact is implicit

    def test_bounds_never_lie_on_random_summaries(self):
        resolver = BoundedNedDistance(k=4)
        for seed in range(30):
            first = summarize_tree(
                "a", random_tree_with_depth(2 + seed % 12, 3, seed=seed), 4
            )
            second = summarize_tree(
                "b", random_tree_with_depth(2 + (seed * 7) % 12, 3, seed=seed + 100), 4
            )
            interval = resolver.bounds(first, second)
            distance = ted_star(first.tree, second.tree, k=4)
            assert interval.lower <= distance <= interval.upper

    def test_external_counters_are_shared(self, store):
        counters = ResolutionCounters()
        resolver = BoundedNedDistance(k=3, counters=counters)
        entries = store.entries()
        resolver.resolve(entries[0], entries[1])
        assert counters is resolver.counters
        assert counters.level_size_evaluations >= 1

    def test_exact_interval_is_closed(self, store):
        resolver = BoundedNedDistance(k=3)
        entries = store.entries()
        value, interval = resolver.resolve(entries[0], entries[4])
        assert value == interval.lower == interval.upper
        assert interval.tier in (SIGNATURE_TIER, LEVEL_SIZE_TIER, DEGREE_TIER, EXACT_TIER)


class TestCountersArithmetic:
    def test_merge_copy_since(self):
        counters = ResolutionCounters(exact_evaluations=2, signature_hits=1)
        snapshot = counters.copy()
        counters.merge(ResolutionCounters(exact_evaluations=3, pruned_by_degree=4))
        delta = counters.since(snapshot)
        assert delta.exact_evaluations == 3
        assert delta.pruned_by_degree == 4
        assert delta.signature_hits == 0
        assert snapshot.exact_evaluations == 2

    def test_future_tier_counters_survive_merge_and_since(self):
        """Parity guard: merge/since/copy/as_dict are field-driven, so a
        future tier's counter (a new dataclass field) flows through them
        without any hand-written enumeration being updated."""
        from dataclasses import dataclass, fields

        from repro.engine.stats import EngineStats

        @dataclass
        class FutureStats(EngineStats):
            decided_by_histogram: int = 0  # a hypothetical new tier

        counters = FutureStats(exact_evaluations=1, decided_by_histogram=5)
        snapshot = counters.copy()
        counters.merge(FutureStats(decided_by_histogram=2, pairs_considered=3))
        delta = counters.since(snapshot)
        assert delta.decided_by_histogram == 2
        assert delta.pairs_considered == 3
        assert delta.exact_evaluations == 0
        # as_dict covers every field, current and future, plus aggregates.
        as_dict = counters.as_dict()
        assert {spec.name for spec in fields(counters)} <= set(as_dict)
        assert as_dict["decided_by_histogram"] == 7

    def test_merge_refuses_to_drop_unknown_counters(self):
        from dataclasses import dataclass

        @dataclass
        class ExtendedCounters(ResolutionCounters):
            decided_by_histogram: int = 0

        base = ResolutionCounters()
        with pytest.raises(TypeError, match="decided_by_histogram"):
            base.merge(ExtendedCounters(decided_by_histogram=1))
        with pytest.raises(TypeError, match="differ"):
            ExtendedCounters().since(ResolutionCounters())


class TestResolverOnGridWorkload:
    def test_full_cascade_cheaper_than_level_size_only(self):
        graph = grid_road_graph(7, 7, seed=3)
        store = TreeStore.from_graph(graph, k=3)
        entries = store.entries()

        def run(tiers):
            resolver = BoundedNedDistance(k=3, tiers=tiers)
            for i, first in enumerate(entries):
                for second in entries[i + 1:]:
                    resolver.resolve(first, second, threshold=2.0)
            return resolver.counters

        level_only = run((SIGNATURE_TIER, LEVEL_SIZE_TIER))
        full = run(BOUND_TIERS)
        assert full.exact_evaluations <= level_only.exact_evaluations
        assert math.isfinite(full.exact_evaluations)


tier_subsets = st.sets(st.sampled_from(BOUND_TIERS)).map(
    lambda chosen: tuple(tier for tier in BOUND_TIERS if tier in chosen)
)


@pytest.mark.skipif(not batch_available(), reason="the survey needs numpy")
class TestSurvey:
    @settings(max_examples=40, deadline=None)
    @given(
        nodes=st.integers(min_value=1, max_value=14),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10**6),
        tiers=tier_subsets,
        start=st.integers(min_value=0, max_value=16),
        threshold=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
    )
    def test_survey_matches_a_bounds_loop(self, nodes, k, seed, tiers, start, threshold):
        # Interval for interval, tier for tier, counter for counter — the
        # outcome credits (pruned / decided) included.
        store = TreeStore.from_graph(erdos_renyi_graph(nodes, 0.3, seed=seed), k)
        others = TreeStore.from_graph(erdos_renyi_graph(5, 0.5, seed=seed + 1), k)
        looped = BoundedNedDistance(k=k, tiers=tiers)
        surveyed = BoundedNedDistance(k=k, tiers=tiers)
        for probe in store.entries()[:4] + others.entries()[:2]:
            survey = surveyed.survey(probe, store, start=start)
            candidates = store.entries()[start:]
            assert len(survey) == len(candidates)
            pruned = (
                survey.lower > threshold if threshold is not None
                else survey.lower != survey.lower
            )
            surveyed.record_pruned_many(survey, pruned)
            surveyed.record_decided_many(survey, survey.closed & ~pruned)
            for index, candidate in enumerate(candidates):
                interval = looped.bounds(probe, candidate)
                assert (
                    float(survey.lower[index]),
                    float(survey.upper[index]),
                    SURVEY_TIERS[survey.tiers[index]],
                ) == (interval.lower, interval.upper, interval.tier)
                if threshold is not None and interval.excludes(threshold):
                    looped.record_pruned(interval)
                elif interval.exact:
                    looped.record_decided(interval)
        assert surveyed.counters == looped.counters

    def test_survey_closes_up_to_k3_only(self, store, deep_store):
        probe = store.entries()[3]
        closed = BoundedNedDistance(k=3).survey(probe, store)
        assert closed.closed.all()
        assert not BoundedNedDistance(k=3, tiers=(LEVEL_SIZE_TIER,)).closed_form
        survey = BoundedNedDistance(k=4).survey(deep_store.entries()[3], deep_store)
        assert not survey.closed.all()

    def test_exact_scan_answers_from_the_survey_up_to_k3(self, store):
        probe = store.entries()[5]
        with NedSession(store, mode="exact") as fast, \
                NedSession(store, mode="exact", batch=False) as slow:
            assert fast.top_l(probe, 6) == slow.top_l(probe, 6)
            assert fast.stats.exact_evaluations == fast.stats.cache_hits == 0
            assert fast.stats.decided_by_bounds + fast.stats.signature_hits == len(store)
            assert slow.stats.exact_evaluations > 0

    def test_survey_rejects_a_store_of_another_k(self, store, deep_store):
        with pytest.raises(DistanceError):
            BoundedNedDistance(k=3).survey(store.entries()[0], deep_store)

    @settings(max_examples=15, deadline=None)
    @given(
        nodes=st.integers(min_value=2, max_value=12),
        cols=st.integers(min_value=1, max_value=14),
        k=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
        threshold=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
        sharded=st.booleans(),
    )
    def test_survey_backed_matrices_equal_per_pair_builds(
        self, nodes, cols, k, seed, threshold, sharded
    ):
        # Pairwise and cross, exact and bound-prune (with thresholds), dense
        # and sharded: the batch session's survey-backed build returns the
        # bits of the batch=False reference; bound-prune counters agree too.
        dense = TreeStore.from_graph(erdos_renyi_graph(nodes, 0.35, seed=seed), k)
        col_store = TreeStore.from_graph(erdos_renyi_graph(cols, 0.4, seed=seed + 1), k)
        with tempfile.TemporaryDirectory() as tmp:
            store = dense
            if sharded:
                save_sharded(dense, tmp, shards=2)
                store = ShardedTreeStore.load(tmp, max_resident=1)
            for mode in ("exact", "bound-prune"):
                for plan in (
                    PairwiseMatrixPlan(mode=mode, threshold=threshold),
                    CrossMatrixPlan(col_store=col_store, mode=mode, threshold=threshold),
                ):
                    with NedSession(store) as fast, NedSession(store, batch=False) as slow:
                        assert fast.resolver.batch_active
                        surveyed, reference = fast.execute(plan), slow.execute(plan)
                    assert [[value.hex() for value in row] for row in surveyed.values] == [
                        [value.hex() for value in row] for row in reference.values
                    ]
                    if mode == "bound-prune":
                        assert surveyed.stats.as_dict() == reference.stats.as_dict()
                    if k <= 3:
                        assert surveyed.stats.exact_evaluations == 0

"""Tests for the `NedSession` query-execution layer (PR 5).

Covers the session lifecycle (context-manager save-on-close, double-close,
closed-session guards), plan execution and its equivalence with the
module-level matrix builders, the batched executor's bit-identity with the
per-query path (with fewer-or-equal exact TED* evaluations), and the
asyncio serving facade.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    CrossMatrixPlan,
    KnnPlan,
    NedSession,
    PairwiseMatrixPlan,
    RangePlan,
    TopLPlan,
    TreeStore,
    pairwise_distance_matrix,
)
from repro.exceptions import DistanceError, IndexingError
from repro.graph.generators import barabasi_albert_graph, erdos_renyi_graph
from repro.ted.resolver import DEFAULT_CACHE_SIZE


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(30, 2, seed=9)


@pytest.fixture(scope="module")
def store(graph):
    # k = 4: at k <= 3 the degree tier pins every pair, so the cache,
    # sidecar, deadline and exact-tier accounting checked here would never
    # be exercised.
    return TreeStore.from_graph(graph, k=4)


def _mixed_plans(session, graph, nodes):
    """One kNN, range and top-l plan per node — the batched workload."""
    plans = []
    for node in nodes:
        probe = session.probe(graph, node)
        plans.append(KnnPlan(probe, 4))
        plans.append(RangePlan(probe, 6.0))
        plans.append(TopLPlan(probe, 3))
    return plans


class TestSessionLifecycle:
    def test_context_manager_saves_cache_on_close(self, graph, store, tmp_path):
        sidecar = tmp_path / "cache.ned"
        with NedSession(store, cache_file=sidecar) as session:
            cold = session.knn(session.probe(graph, 0), 4)
            assert session.stats.exact_evaluations > 0
            assert not sidecar.exists()  # saved on close, not per query
        assert sidecar.exists()

        with NedSession(store, cache_file=sidecar) as warm:
            assert warm.knn(warm.probe(graph, 0), 4) == cold
            assert warm.stats.exact_evaluations == 0

    def test_double_close_is_a_noop(self, store, tmp_path):
        sidecar = tmp_path / "cache.ned"
        session = NedSession(store, cache_file=sidecar)
        session.knn(store.entries()[0], 3)
        session.close()
        assert session.closed
        first_bytes = sidecar.read_bytes()
        session.close()  # second close: no error, no rewrite
        assert session.closed
        assert sidecar.read_bytes() == first_bytes

    def test_close_saves_even_after_an_exception(self, graph, store, tmp_path):
        sidecar = tmp_path / "cache.ned"
        with pytest.raises(RuntimeError, match="sweep interrupted"):
            with NedSession(store, cache_file=sidecar) as session:
                session.knn(session.probe(graph, 0), 4)
                raise RuntimeError("sweep interrupted")
        # Cached entries are exact regardless, so the sidecar is a valid
        # resume point and must survive the crash.
        assert sidecar.exists()
        with NedSession(store, cache_file=sidecar) as warm:
            warm.knn(warm.probe(graph, 0), 4)
            assert warm.stats.exact_evaluations == 0

    def test_closed_session_rejects_work(self, store):
        session = NedSession(store)
        session.close()
        with pytest.raises(DistanceError, match="closed"):
            session.execute(PairwiseMatrixPlan())
        with pytest.raises(DistanceError, match="closed"):
            session.execute_batch([])
        with pytest.raises(DistanceError, match="closed"):
            session.search_engine()
        with pytest.raises(DistanceError, match="closed"):
            session.serve()

    def test_cache_file_requires_the_cache(self, store, tmp_path):
        with pytest.raises(DistanceError, match="cache"):
            NedSession(store, cache_size=0, cache_file=tmp_path / "cache.ned")

    def test_k_must_match_the_store(self, store):
        with pytest.raises(DistanceError, match="disagrees"):
            NedSession(store, k=store.k + 1)
        assert NedSession(store, k=store.k).k == store.k

    def test_resolver_only_session(self, store):
        with pytest.raises(DistanceError, match="store or an explicit k"):
            NedSession(None)
        session = NedSession(None, k=3, cache_size=0)
        entries = store.entries()
        assert session.resolver.distance(entries[0], entries[1]) >= 0
        with pytest.raises(DistanceError, match="no store"):
            session.execute(PairwiseMatrixPlan())
        with pytest.raises(DistanceError, match="no store"):
            session.search_engine()

    def test_save_cache_needs_a_path(self, store, tmp_path):
        session = NedSession(store)
        with pytest.raises(DistanceError, match="no cache path"):
            session.save_cache()
        target = session.save_cache(tmp_path / "explicit.ned")
        assert target.exists()

    def test_cache_defaults_on_with_one_knob(self, store):
        assert NedSession(store).cache_size == DEFAULT_CACHE_SIZE
        assert NedSession(store, cache_size=7).cache_size == 7
        assert NedSession(store, cache_size=0).cache_size == 0


class TestPlanExecution:
    def test_matrix_plan_matches_module_level_builder(self, store):
        with NedSession(store) as session:
            planned = session.pairwise_matrix(mode="bound-prune")
        direct = pairwise_distance_matrix(store, mode="bound-prune")
        assert planned.values == direct.values

    def test_cross_matrix_plan(self, graph, store):
        other = TreeStore.from_graph(graph, store.k, nodes=graph.nodes()[:10])
        with NedSession(store) as session:
            result = session.cross_matrix(other, mode="bound-prune")
        assert len(result.row_nodes) == len(store)
        assert len(result.col_nodes) == 10

    def test_cross_matrix_k_mismatch_rejected(self, graph, store):
        other = TreeStore.from_graph(graph, 2, nodes=graph.nodes()[:5])
        with NedSession(store) as session:
            with pytest.raises(DistanceError, match="disagree on k"):
                session.execute(CrossMatrixPlan(col_store=other))

    def test_unknown_plan_rejected(self, store):
        with NedSession(store) as session:
            with pytest.raises(DistanceError, match="plan"):
                session.execute(object())
            with pytest.raises(DistanceError, match="plan"):
                session.execute_batch([object()])

    def test_point_plan_mode_overrides(self, graph, store):
        with NedSession(store) as session:
            probe = session.probe(graph, 0)
            default = session.knn(probe, 4)
            assert session.knn(probe, 4, mode="exact", index="linear") == default
            vptree = session.knn(probe, 4, mode="exact", index="vptree")
            assert [d for _, d in vptree] == [d for _, d in default]

    def test_engines_are_cached_per_configuration(self, store):
        with NedSession(store) as session:
            first = session.search_engine(mode="bound-prune")
            assert session.search_engine(mode="bound-prune") is first
            assert session.search_engine(mode="exact") is not first

    def test_engines_share_the_warm_cache(self, graph, store):
        with NedSession(store) as session:
            probe = session.probe(graph, 0)
            scan = session.search_engine(mode="exact", index="linear")
            scan.knn(probe, 4)
            paid = session.stats.exact_evaluations
            assert paid > 0
            # A different engine over the same session answers the repeated
            # probe pairs from the shared cache.
            pruned = session.search_engine(mode="bound-prune")
            pruned.knn(probe, 4)
            assert session.stats.exact_evaluations == paid

    def test_session_stats_count_engine_pairs(self, graph, store):
        with NedSession(store) as session:
            session.knn(session.probe(graph, 0), 4)
            assert session.stats.pairs_considered == len(store)


class TestBatchedExecutor:
    def test_batched_identical_to_per_query_with_fewer_exact_evals(self, graph, store):
        nodes = graph.nodes()[:8]
        with NedSession(store) as reference_session:
            plans = _mixed_plans(reference_session, graph, nodes)

        # Per-query path: a fresh session per plan, each a cold resolver.
        per_query = []
        per_query_exact = 0
        for plan in plans:
            with NedSession(store) as single:
                per_query.append(single.execute(plan))
                per_query_exact += single.stats.exact_evaluations

        with NedSession(store) as session:
            batched = session.execute_batch(plans)
            assert batched == per_query
            assert session.stats.exact_evaluations <= per_query_exact
            assert session.batches_executed == 1
            assert session.batched_plans == len(plans)

    def test_equal_signature_plans_computed_once_and_fanned_out(self, graph, store):
        with NedSession(store) as session:
            probe = session.probe(graph, 0)
            plans = [KnnPlan(probe, 4)] * 3 + [KnnPlan(session.probe(graph, 0), 4)]
            answers = session.execute_batch(plans)
            assert session.deduplicated_plans == 3
            assert answers[0] == answers[1] == answers[2] == answers[3]
            # Fan-out hands every requester an independent list.
            answers[0].append("marker")
            assert answers[1][-1] != "marker"

    def test_matrix_plans_ride_in_batches(self, store):
        with NedSession(store) as session:
            results = session.execute_batch(
                [PairwiseMatrixPlan(mode="bound-prune"),
                 PairwiseMatrixPlan(mode="bound-prune")]
            )
            assert results[0].values == results[1].values
            assert session.deduplicated_plans == 1
            # Fan-out hands each requester an independent matrix: mutating
            # one (e.g. applying a threshold in place) must not leak.
            assert results[0] is not results[1]
            results[0].values[0][1] = float("inf")
            assert results[1].values[0][1] != float("inf")

    @settings(max_examples=6, deadline=None)
    @given(
        nodes=st.integers(min_value=6, max_value=20),
        seed=st.integers(min_value=0, max_value=10**6),
        count=st.integers(min_value=1, max_value=4),
    )
    def test_batched_equivalence_property(self, nodes, seed, count):
        random_graph = erdos_renyi_graph(nodes, 0.25, seed=seed)
        random_store = TreeStore.from_graph(random_graph, 2)
        query_nodes = random_graph.nodes()[: min(6, nodes)]
        with NedSession(random_store) as session:
            plans = []
            for node in query_nodes:
                probe = session.probe(random_graph, node)
                plans.append(KnnPlan(probe, count))
                plans.append(TopLPlan(probe, count))
                plans.append(RangePlan(probe, 3.0))

        per_query = []
        per_query_exact = 0
        for plan in plans:
            with NedSession(random_store) as single:
                per_query.append(single.execute(plan))
                per_query_exact += single.stats.exact_evaluations

        with NedSession(random_store) as session:
            batched = session.execute_batch(plans)
            assert batched == per_query
            assert session.stats.exact_evaluations <= per_query_exact


class TestSessionServer:
    def test_async_results_match_sequential(self, graph, store):
        nodes = graph.nodes()[:10]

        with NedSession(store) as session:
            plans = [KnnPlan(session.probe(graph, node), 4) for node in nodes]
            sequential = [session.execute(plan) for plan in plans]

        async def serve():
            with NedSession(store) as serving_session:
                async with serving_session.serve() as server:
                    results = await server.map(plans)
                return results, server.ticks, server.served

        results, ticks, served = asyncio.run(serve())
        assert results == sequential
        assert served == len(plans)
        # Concurrent submissions coalesce into far fewer batch ticks than
        # one-per-query serving would take.
        assert 1 <= ticks < len(plans)

    def test_requests_during_a_tick_form_the_next_batch(self, graph, store):
        async def staggered():
            with NedSession(store) as session:
                probe = session.probe(graph, 0)
                async with session.serve() as server:
                    first = asyncio.create_task(server.submit(KnnPlan(probe, 3)))
                    await asyncio.sleep(0)  # let the first tick start
                    second = asyncio.create_task(server.submit(KnnPlan(probe, 5)))
                    return await first, await second, server.ticks

        first, second, ticks = asyncio.run(staggered())
        assert len(first) == 3 and len(second) == 5
        assert ticks >= 1

    def test_submit_outside_serving_context_rejected(self, graph, store):
        async def misuse():
            with NedSession(store) as session:
                probe = session.probe(graph, 0)
                server = session.serve()
                with pytest.raises(DistanceError, match="not serving"):
                    await server.submit(KnnPlan(probe, 3))
                async with server:
                    assert await server.submit(KnnPlan(probe, 3))

        asyncio.run(misuse())

    def test_bad_plans_propagate_to_the_submitter(self, graph, store):
        async def bad():
            with NedSession(store) as session:
                probe = session.probe(graph, 0)
                async with session.serve() as server:
                    with pytest.raises(IndexingError, match="positive"):
                        await server.submit(KnnPlan(probe, 0))
                    # The server keeps serving after a failed plan.
                    return await server.submit(KnnPlan(probe, 3))

        assert len(asyncio.run(bad())) == 3

    def test_max_batch_validation(self, store):
        with NedSession(store) as session:
            with pytest.raises(DistanceError, match="max_batch"):
                session.serve(max_batch=0)


@pytest.fixture(scope="module")
def closed_store(graph):
    # k = 3: the degree bound is TED*, so the bound cascade (per pair) or
    # one store-wide survey (matrices, exact scans) decides every pair.
    return TreeStore.from_graph(graph, k=3)


class TestClosedFormSession:
    """The session equivalences above, on the closed-form path at k = 3."""

    def test_batched_identical_to_per_query(self, graph, closed_store):
        nodes = graph.nodes()[:8]
        with NedSession(closed_store) as reference_session:
            plans = _mixed_plans(reference_session, graph, nodes)
        per_query = []
        for plan in plans:
            with NedSession(closed_store) as single:
                per_query.append(single.execute(plan))
        with NedSession(closed_store) as session:
            assert session.execute_batch(plans) == per_query
            assert session.stats.exact_evaluations == 0
        with NedSession(closed_store, batch=False) as reference:
            assert reference.execute_batch(plans) == per_query

    def test_async_results_match_sequential(self, graph, closed_store):
        with NedSession(closed_store) as session:
            plans = [KnnPlan(session.probe(graph, node), 4) for node in graph.nodes()[:10]]
            sequential = [session.execute(plan) for plan in plans]

        async def serve():
            with NedSession(closed_store) as serving_session:
                async with serving_session.serve() as server:
                    return await server.map(plans)

        assert asyncio.run(serve()) == sequential

    @pytest.mark.parametrize("mode", ["exact", "bound-prune"])
    def test_matrix_plans_match_builders_and_the_per_pair_path(
        self, graph, closed_store, mode
    ):
        other = TreeStore.from_graph(graph, 3, nodes=graph.nodes()[:10])
        with NedSession(closed_store) as session, \
                NedSession(closed_store, batch=False) as reference:
            planned = session.pairwise_matrix(mode=mode)
            crossed = session.cross_matrix(other, mode=mode)
            direct = pairwise_distance_matrix(closed_store, mode=mode)
            assert planned.values == direct.values
            assert planned.values == reference.pairwise_matrix(mode=mode).values
            assert crossed.values == reference.cross_matrix(other, mode=mode).values
            if session.resolver.batch_active:
                assert session.stats.exact_evaluations == 0
                assert session.stats.cache_hits == session.stats.cache_misses == 0

    def test_point_plan_modes_agree(self, graph, closed_store):
        with NedSession(closed_store) as session:
            probe = session.probe(graph, 0)
            default = session.knn(probe, 4)
            assert session.knn(probe, 4, mode="exact", index="linear") == default
            vptree = session.knn(probe, 4, mode="exact", index="vptree")
            assert [d for _, d in vptree] == [d for _, d in default]
            assert session.top_l(probe, 5, mode="exact") == session.top_l(probe, 5)


class TestReviewRegressions:
    """Regressions from the PR-5 review pass."""

    def test_cache_off_batches_do_not_dedup_or_reorder(self, graph, store):
        # cache_size=0 means "measure the raw work": the batch must execute
        # every plan individually, in submission order, with per-query
        # counters identical to the per-query path — the tier ablations'
        # exact-eval columns depend on it.
        with NedSession(store, cache_size=0) as session:
            probe = session.probe(graph, 0)
            plans = [TopLPlan(probe, 3)] * 3
            per_query_exact = 0
            for plan in plans:
                with NedSession(store, cache_size=0) as single:
                    single.execute(plan)
                    per_query_exact += single.stats.exact_evaluations
            session.execute_batch(plans)
            assert session.deduplicated_plans == 0
            assert session.stats.exact_evaluations == per_query_exact

    def test_matrix_plans_run_before_point_plans(self, graph, store):
        # The matrix build warms the cache broadest, so a kNN plan submitted
        # *before* the matrix plan must still be answered entirely from the
        # matrix's work.
        with NedSession(store) as matrix_only:
            matrix_only.pairwise_matrix(mode="exact")
            matrix_exact = matrix_only.stats.exact_evaluations
        with NedSession(store) as session:
            plans = [KnnPlan(session.probe(graph, 0), 4),
                     PairwiseMatrixPlan(mode="exact")]
            session.execute_batch(plans)
            assert session.stats.exact_evaluations == matrix_exact

    def test_one_bad_plan_does_not_fail_its_tick_neighbours(self, graph, store):
        with NedSession(store) as baseline:
            probe = baseline.probe(graph, 0)
            baseline.knn(probe, 3)
            one_query_exact = baseline.stats.exact_evaluations

        async def mixed_tick():
            with NedSession(store) as session:
                good = KnnPlan(probe, 3)
                bad = KnnPlan(probe, 0)
                async with session.serve() as server:
                    results = await asyncio.gather(
                        server.submit(good), server.submit(bad),
                        server.submit(good), return_exceptions=True,
                    )
                return results, server.ticks, session.stats.exact_evaluations

        results, ticks, exact = asyncio.run(mixed_tick())
        assert len(results[0]) == 3 and results[0] == results[2]
        assert isinstance(results[1], IndexingError)
        assert ticks >= 1
        # The failed plan must not make the batch re-run (and re-pay for)
        # its neighbours: the good plan executes exactly once.
        assert exact == one_query_exact

    def test_execute_batch_return_exceptions(self, graph, store):
        with NedSession(store) as session:
            probe = session.probe(graph, 0)
            results = session.execute_batch(
                [KnnPlan(probe, 3), KnnPlan(probe, 0), object()],
                return_exceptions=True,
            )
            assert len(results[0]) == 3
            assert isinstance(results[1], IndexingError)
            assert isinstance(results[2], DistanceError)
            # Without the flag, the first failure raises.
            with pytest.raises(IndexingError):
                session.execute_batch([KnnPlan(probe, 0)])

    def test_matrix_plans_count_into_session_pairs(self, graph, store):
        with NedSession(store) as session:
            matrix = session.pairwise_matrix(mode="bound-prune")
            session.knn(session.probe(graph, 0), 4)
            assert session.stats.pairs_considered == (
                matrix.stats.pairs_considered + len(store)
            )
            assert 0.0 <= session.stats.pruning_ratio <= 1.0

    def test_unknown_executor_rejected_at_open(self, store):
        with pytest.raises(DistanceError, match="executor"):
            NedSession(store, executor="proces")
        with pytest.raises(DistanceError, match="executor"):
            NedSession(store, executor=lambda blocks: [])

    def test_session_adopts_sidecar_hit_counts(self, graph, store, tmp_path):
        # Hotness must accumulate across session lifecycles: open -> queries
        # -> save-on-close -> reopen, with hit counts carried forward (the
        # eviction-aware trim depends on them).
        import pickle

        sidecar = tmp_path / "cache.ned"
        probe_node = graph.nodes()[0]
        with NedSession(store, cache_file=sidecar) as session:
            probe = session.probe(graph, probe_node)
            session.knn(probe, 4)
            session.knn(probe, 4)  # repeats hit the cache
            first_hits = session.stats.cache_hits
            assert first_hits > 0
        saved = pickle.loads(sidecar.read_bytes())
        assert sum(hits for *_, hits in saved["entries"]) == first_hits

        with NedSession(store, cache_file=sidecar) as again:
            again.knn(again.probe(graph, probe_node), 4)
        resaved = pickle.loads(sidecar.read_bytes())
        assert (
            sum(hits for *_, hits in resaved["entries"])
            > sum(hits for *_, hits in saved["entries"])
        )

    def test_session_backed_engine_refuses_queries_after_close(self, graph, store):
        with NedSession(store) as session:
            engine = session.search_engine(mode="bound-prune")
            probe = session.probe(graph, 0)
            assert engine.knn(probe, 3)
        with pytest.raises(IndexingError, match="closed"):
            engine.knn(probe, 3)
        # Standalone engines own a never-closed session and keep working.
        standalone = engine.__class__(store, mode="bound-prune")
        assert standalone.knn(probe, 3)


class TestSessionResilience:
    """PR-8 resilience semantics at the session and serving layers."""

    def test_broken_sidecar_raises_under_strict_default(self, store, tmp_path):
        sidecar = tmp_path / "cache.ned"
        sidecar.write_bytes(b"not a sidecar at all")
        with pytest.raises(DistanceError):
            NedSession(store, cache_file=sidecar)

    def test_broken_sidecar_cold_starts_under_lenient_policy(
        self, graph, store, tmp_path
    ):
        import warnings

        from repro.resilience import ResiliencePolicy, ResilienceWarning

        sidecar = tmp_path / "cache.ned"
        sidecar.write_bytes(b"not a sidecar at all")
        policy = ResiliencePolicy(sidecar="cold_start")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with NedSession(store, cache_file=sidecar, resilience=policy) as session:
                assert session.sidecar_cold_start
                result = session.knn(session.probe(graph, 0), 4)
                assert session.stats.exact_evaluations > 0  # really cold
        assert result
        assert any(issubclass(w.category, ResilienceWarning) for w in caught)
        snapshot = session.metrics_snapshot()
        assert snapshot["resilience"]["sidecar_cold_starts"] == 1
        # close() rewrote a valid sidecar over the broken one.
        with NedSession(store, cache_file=sidecar) as warm:
            assert warm.knn(warm.probe(graph, 0), 4) == result
            assert warm.stats.exact_evaluations == 0

    def test_plan_deadline_raises_typed_error(self, store):
        from repro.exceptions import DeadlineError
        from repro.resilience import ResiliencePolicy

        policy = ResiliencePolicy(deadline=1e-9)
        with NedSession(store, resilience=policy) as session:
            with pytest.raises(DeadlineError, match="deadline"):
                session.execute(PairwiseMatrixPlan(mode="exact"))
            snapshot = session.metrics_snapshot()
        assert snapshot["resilience"]["deadline_exceeded"] == 1

    def test_resilience_off_is_allowed_and_unguarded(self, graph, store):
        with NedSession(store, resilience=False) as session:
            assert session.resilience is None
            result = session.knn(session.probe(graph, 0), 4)
            snapshot = session.metrics_snapshot()
        assert result
        assert snapshot["resilience"]["enabled"] is False
        assert "breakers" not in snapshot["resilience"]

    def test_shutdown_resolves_in_flight_and_queued_requests(self, graph, store):
        # Satellite (d): aclose() during a busy burst must resolve every
        # future — in-flight and still-queued alike — and never hang.
        async def scenario():
            with NedSession(store) as session:
                plans = [
                    KnnPlan(session.probe(graph, node), 4)
                    for node in graph.nodes()[:8]
                ]
                async with session.serve(max_batch=2) as server:
                    tasks = [
                        asyncio.create_task(server.submit(plan)) for plan in plans
                    ]
                    await asyncio.sleep(0)  # first tick starts, rest queue up
                    await server.aclose()
                    return await asyncio.wait_for(
                        asyncio.gather(*tasks), timeout=30.0
                    )

        results = asyncio.run(scenario())
        assert len(results) == 8 and all(len(r) == 4 for r in results)

    def test_expired_queued_request_gets_deadline_error_not_a_hang(
        self, graph, store
    ):
        from repro.exceptions import DeadlineError
        from repro.resilience import FaultPlan, FaultSpec

        # A delay fault holds the first tick while later requests sit queued
        # past their deadline; map() must surface DeadlineError, not block.
        plan = FaultPlan([FaultSpec("serving.tick", kind="delay", delay=0.3)])

        async def scenario():
            with NedSession(store, faults=plan) as session:
                probe = session.probe(graph, 0)
                async with session.serve(request_deadline=0.05) as server:
                    first = asyncio.create_task(server.submit(KnnPlan(probe, 3)))
                    await asyncio.sleep(0.05)  # tick 1 holds; these will queue
                    with pytest.raises(DeadlineError, match="expired while queued"):
                        await asyncio.wait_for(
                            server.map([KnnPlan(probe, 4), KnnPlan(probe, 5)]),
                            timeout=30.0,
                        )
                    await first  # the in-flight request still completes
                return session.metrics_snapshot()

        snapshot = asyncio.run(scenario())
        assert snapshot["resilience"]["deadline_exceeded"] >= 1

    def test_full_queue_sheds_with_overload_error(self, graph, store):
        from repro.exceptions import OverloadError
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec("serving.tick", kind="delay", delay=0.3)])

        async def scenario():
            with NedSession(store, faults=plan) as session:
                probe = session.probe(graph, 0)
                async with session.serve(max_queue_depth=1) as server:
                    first = asyncio.create_task(server.submit(KnnPlan(probe, 3)))
                    await asyncio.sleep(0.05)  # drain took it; tick 1 is held
                    second = asyncio.create_task(server.submit(KnnPlan(probe, 4)))
                    await asyncio.sleep(0)  # second occupies the whole queue
                    with pytest.raises(OverloadError, match="shed"):
                        await server.submit(KnnPlan(probe, 5))
                    results = await asyncio.wait_for(
                        asyncio.gather(first, second), timeout=30.0
                    )
                return results, server.shed, session.metrics_snapshot()

        results, shed, snapshot = asyncio.run(scenario())
        assert [len(r) for r in results] == [3, 4]  # admitted requests answered
        assert shed == 1
        assert snapshot["resilience"]["shed_requests"] == 1
        assert snapshot["gauges"]["serving.queue_depth_hwm"] >= 1

    def test_serve_parameter_validation(self, store):
        with NedSession(store) as session:
            with pytest.raises(DistanceError, match="max_queue_depth"):
                session.serve(max_queue_depth=0)
            with pytest.raises(DistanceError, match="request_deadline"):
                session.serve(request_deadline=0.0)

    def test_rejects_bad_resilience_argument(self, store):
        with pytest.raises(DistanceError, match="resilience"):
            NedSession(store, resilience="on")

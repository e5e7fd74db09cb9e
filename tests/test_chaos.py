"""Chaos suite (PR 8 tentpole): single-fault injection across the stack.

Every test runs the same warm-session workload (an exact pairwise matrix
over a sharded store plus a batch of kNN plans, with a cache sidecar) under
exactly one injected fault, and asserts the engine's resilience contract:

* a *transient* fault (one-shot error at a retryable site) is healed by the
  retry policy — results are bit-identical to the fault-free reference and
  the retries are accounted in ``metrics_snapshot()["resilience"]``;
* a *persistent* fault (on-disk corruption, exhausted retries) surfaces as
  the layer's *typed* error — never a hang, never a silently wrong result;
* on-disk artifacts not deliberately corrupted stay loadable (atomic writes
  never tear the previous file).

Fault schedules are deterministic: ``REPRO_CHAOS_SEEDS`` (comma-separated)
parameterizes the seeds, so CI can sweep many schedules while any failure
reproduces locally with the printed seed.
"""

import asyncio
import importlib.util
import os
import shutil
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine import (
    KnnPlan,
    NedSession,
    ShardedTreeStore,
    TreeStore,
    save_sharded,
)
from repro.exceptions import (
    DistanceError,
    FaultInjectedError,
    GraphError,
)
from repro.graph.generators import barabasi_albert_graph
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    ResilienceWarning,
)

#: Seeded fault schedules this run sweeps (CI sets several; see ci.yml).
SEEDS = [int(token) for token in os.environ.get("REPRO_CHAOS_SEEDS", "0").split(",")]

HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(18, 2, seed=5)


@pytest.fixture(scope="module")
def arena(tmp_path_factory, graph):
    """Pristine on-disk artifacts plus the fault-free reference results."""
    root = tmp_path_factory.mktemp("chaos")
    # k = 4: at k <= 3 the degree tier pins every pair, so no pair would
    # reach the cache, the kernel or the process pool the faults target.
    dense = TreeStore.from_graph(graph, k=4)
    save_sharded(dense, root / "store", shards=4)
    store = ShardedTreeStore.load(root / "store", max_resident=2)
    with NedSession(store, cache_file=root / "cache.ned", resilience=False) as session:
        reference = _run_workload(session, graph)
    return {"root": root, "reference": reference}


def _run_workload(session, graph):
    """The canonical chaos workload: one exact matrix + a kNN batch."""
    matrix = session.pairwise_matrix(mode="exact")
    plans = [KnnPlan(session.probe(graph, node), 4) for node in graph.nodes()[:6]]
    return [matrix.values, session.execute_batch(plans)]


def _fresh_artifacts(arena, tmp_path):
    """Per-test copies: corrupt faults mutate files on disk."""
    store_dir = tmp_path / "store"
    shutil.copytree(arena["root"] / "store", store_dir)
    sidecar = tmp_path / "cache.ned"
    shutil.copy(arena["root"] / "cache.ned", sidecar)
    return store_dir, sidecar


class TestTransientFaultsHeal:
    """One-shot errors at retryable sites: bit-identical, retries accounted."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("site", ["shards.decode", "sidecar.load", "sidecar.save"])
    def test_bit_identical_under_one_transient_fault(
        self, arena, tmp_path, graph, site, seed
    ):
        store_dir, sidecar = _fresh_artifacts(arena, tmp_path)
        plan = FaultPlan([FaultSpec(site, kind="error", after=seed % 2)], seed=seed)
        store = ShardedTreeStore.load(store_dir, max_resident=2)
        with NedSession(store, cache_file=sidecar, faults=plan) as session:
            results = _run_workload(session, graph)
        snapshot = session.metrics_snapshot()
        assert results == arena["reference"], f"seed={seed} site={site}"
        resilience = snapshot["resilience"]
        assert resilience["faults_injected"] == plan.injected_total()
        if plan.injected.get(site):
            # Every injected fault was healed by exactly one retry.
            assert resilience["retries_by_site"].get(site) == plan.injected[site]
        assert resilience["retry_exhausted"] == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_probabilistic_schedule_never_changes_results(
        self, arena, tmp_path, graph, seed
    ):
        # A seed-dependent schedule sprinkling transient faults across every
        # retryable site at once still cannot change a single value.
        store_dir, sidecar = _fresh_artifacts(arena, tmp_path)
        specs = [
            FaultSpec(site, kind="error", probability=0.5, fires=2)
            for site in ("shards.decode", "sidecar.load", "sidecar.save")
        ]
        plan = FaultPlan(specs, seed=seed)
        store = ShardedTreeStore.load(store_dir, max_resident=2)
        with NedSession(store, cache_file=sidecar, faults=plan) as session:
            results = _run_workload(session, graph)
        assert results == arena["reference"], f"seed={seed}"
        snapshot = session.metrics_snapshot()
        assert snapshot["resilience"]["faults_injected"] == plan.injected_total()


class TestPersistentCorruptionSurfacesTyped:
    """Corruption retries cannot heal must end in the layer's typed error."""

    def test_torn_shard_raises_graph_error_after_retries(
        self, arena, tmp_path, graph
    ):
        store_dir, sidecar = _fresh_artifacts(arena, tmp_path)
        plan = FaultPlan([FaultSpec("shards.decode", kind="corrupt")])
        store = ShardedTreeStore.load(store_dir, max_resident=2)
        with NedSession(store, cache_file=sidecar, faults=plan) as session:
            with pytest.raises(GraphError):
                _run_workload(session, graph)
            snapshot = session.metrics_snapshot()
        # The decode was retried to exhaustion before the error surfaced.
        assert snapshot["resilience"]["retry_exhausted"] >= 1
        assert snapshot["resilience"]["retries_by_site"]["shards.decode"] >= 1

    def test_corrupt_sidecar_raises_under_strict_policy(self, arena, tmp_path, graph):
        store_dir, sidecar = _fresh_artifacts(arena, tmp_path)
        plan = FaultPlan([FaultSpec("sidecar.load", kind="corrupt")])
        store = ShardedTreeStore.load(store_dir, max_resident=2)
        with pytest.raises(DistanceError):
            NedSession(store, cache_file=sidecar, faults=plan)

    def test_corrupt_sidecar_cold_starts_under_lenient_policy(
        self, arena, tmp_path, graph
    ):
        store_dir, sidecar = _fresh_artifacts(arena, tmp_path)
        plan = FaultPlan([FaultSpec("sidecar.load", kind="corrupt")])
        store = ShardedTreeStore.load(store_dir, max_resident=2)
        policy = ResiliencePolicy(sidecar="cold_start")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with NedSession(
                store, cache_file=sidecar, resilience=policy, faults=plan
            ) as session:
                assert session.sidecar_cold_start
                results = _run_workload(session, graph)
        assert results == arena["reference"]  # cold cache, identical values
        assert any(issubclass(w.category, ResilienceWarning) for w in caught)
        snapshot = session.metrics_snapshot()
        assert snapshot["resilience"]["sidecar_cold_starts"] == 1


@pytest.mark.skipif(not HAVE_SCIPY, reason="degradation ladder needs scipy tiers")
class TestExactTierDegradation:
    """Breaker-guarded ladder: batch kernel -> per-pair scipy -> hungarian."""

    def test_batch_kernel_fault_degrades_to_per_pair_bit_identical(
        self, arena, tmp_path, graph
    ):
        store_dir, sidecar = _fresh_artifacts(arena, tmp_path)
        # No sidecar: the exact tier must actually run for the site to fire.
        # Small chunks make every kernel block fail, so the consecutive
        # failures accumulate past the breaker threshold.
        plan = FaultPlan([FaultSpec("kernel.batch", kind="error", fires=None)])
        store = ShardedTreeStore.load(store_dir, max_resident=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with NedSession(store, faults=plan, batch=True) as session:
                matrix = session.pairwise_matrix(mode="exact", chunk_size=8)
        assert matrix.values == arena["reference"][0]
        assert any(issubclass(w.category, ResilienceWarning) for w in caught)
        snapshot = session.metrics_snapshot()
        resilience = snapshot["resilience"]
        assert resilience["degrades_by_rung"].get("exact-batch", 0) >= 1
        # Enough consecutive failures trip the batch-tier breaker.
        assert resilience["breakers"]["exact-batch"]["trips"] >= 1

    def test_per_pair_fault_degrades_to_hungarian_same_values(
        self, arena, tmp_path, graph
    ):
        store_dir, sidecar = _fresh_artifacts(arena, tmp_path)
        plan = FaultPlan([FaultSpec("kernel.pair", kind="error")])
        store = ShardedTreeStore.load(store_dir, max_resident=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with NedSession(store, faults=plan, batch=False) as session:
                # Exact-mode scans route every pair through the per-pair
                # exact tier — the site this fault targets.
                plans = [
                    KnnPlan(session.probe(graph, node), 4, mode="exact")
                    for node in graph.nodes()[:6]
                ]
                knn = session.execute_batch(plans)
        # Both matchers solve the assignment optimally, so the TED* values
        # (hence every derived result) agree on this workload.
        assert knn == arena["reference"][1]
        snapshot = session.metrics_snapshot()
        assert snapshot["resilience"]["degrades_by_rung"].get("exact-pair", 0) == 1
        assert any(issubclass(w.category, ResilienceWarning) for w in caught)


class TestExecutorChaos:
    def test_worker_kill_restarts_the_pool_bit_identical(
        self, arena, tmp_path, graph
    ):
        store_dir, sidecar = _fresh_artifacts(arena, tmp_path)
        plan = FaultPlan(
            [FaultSpec("executor.dispatch", kind="kill", error=BrokenProcessPool)]
        )
        store = ShardedTreeStore.load(store_dir, max_resident=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # No sidecar: a warm cache would answer every pair before any
            # chunk reached the pool, and the site would never activate.
            with NedSession(
                store, executor="process", max_workers=2, faults=plan
            ) as session:
                matrix = session.pairwise_matrix(mode="exact", chunk_size=16)
        assert matrix.values == arena["reference"][0]
        snapshot = session.metrics_snapshot()
        assert snapshot["resilience"]["pool_restarts"] == 1
        assert snapshot["resilience"]["serial_fallbacks"] == 0
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, ResilienceWarning)]
        assert any("restarting" in message for message in messages)


class TestServingChaos:
    def test_tick_fault_fails_its_batch_typed_then_recovers(self, arena, graph):
        store = ShardedTreeStore.load(arena["root"] / "store", max_resident=2)
        plan = FaultPlan([FaultSpec("serving.tick", kind="error")])

        async def scenario():
            with NedSession(store, faults=plan) as session:
                probe = session.probe(graph, 0)
                async with session.serve() as server:
                    with pytest.raises(FaultInjectedError):
                        await server.submit(KnnPlan(probe, 3))
                    # One-shot fault: the server keeps serving afterwards.
                    recovered = await server.submit(KnnPlan(probe, 3))
                return recovered, session.metrics_snapshot()

        recovered, snapshot = asyncio.run(scenario())
        assert len(recovered) == 3
        assert snapshot["resilience"]["faults_injected"] == 1

    def test_slow_tick_never_hangs_shutdown(self, arena, graph):
        store = ShardedTreeStore.load(arena["root"] / "store", max_resident=2)
        plan = FaultPlan(
            [FaultSpec("serving.tick", kind="delay", delay=0.1, fires=None)]
        )

        async def scenario():
            with NedSession(store, faults=plan) as session:
                probe = session.probe(graph, 0)
                async with session.serve() as server:
                    tasks = [
                        asyncio.create_task(server.submit(KnnPlan(probe, 3)))
                        for _ in range(4)
                    ]
                    results = await asyncio.wait_for(
                        asyncio.gather(*tasks), timeout=30.0
                    )
                return results

        results = asyncio.run(scenario())
        assert all(len(result) == 3 for result in results)

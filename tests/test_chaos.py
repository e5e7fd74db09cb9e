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
  never tear the previous file), and a seeded byte mutation of a persisted
  file either loads or raises a typed error;
* no retry re-pays a pair that had finished: a healed run's resolver
  counters (``exact_evaluations`` first) equal a fault-free run's.

Fault schedules are deterministic: ``REPRO_CHAOS_SEEDS`` (comma-separated)
parameterizes the seeds, so CI can sweep many schedules while any failure
reproduces locally with the printed seed.
"""

import asyncio
import os
import random
import re
import shutil
import warnings
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path

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
    ReproError,
)
from repro.graph.generators import barabasi_albert_graph
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    ResilienceWarning,
)
from repro.ted.batch import batch_available

#: Seeded fault schedules this run sweeps (CI sets several; see ci.yml).
SEEDS = [int(token) for token in os.environ.get("REPRO_CHAOS_SEEDS", "0").split(",")]

#: Byte mutations per persisted file and seed.
MUTATIONS = 300


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
    dense.save(root / "store.ned")
    save_sharded(dense, root / "store", shards=4)
    store = ShardedTreeStore.load(root / "store", max_resident=2)
    with NedSession(store, cache_file=root / "cache.ned", resilience=False) as session:
        reference = _run_workload(session, graph)
    # Fault-free resolver counters to hold healed runs to: the workload on
    # a warm copy of the artifacts, a cold matrix build, cold exact kNN.
    shutil.copytree(root / "store", root / "warm" / "store")
    shutil.copy(root / "cache.ned", root / "warm" / "cache.ned")
    warm_store = ShardedTreeStore.load(root / "warm" / "store", max_resident=2)
    with NedSession(warm_store, cache_file=root / "warm" / "cache.ned") as session:
        _run_workload(session, graph)
    counters = {"warm": session.metrics_snapshot()["resolution"]}
    with NedSession(store) as session:
        counters["matrix"] = session.pairwise_matrix(mode="exact").stats.exact_evaluations
    with NedSession(store, batch=False) as session:
        session.execute_batch(_exact_knn_plans(session, graph))
        counters["exact_knn"] = session.stats.exact_evaluations
    return {"root": root, "reference": reference, "counters": counters}


def _run_workload(session, graph):
    """The canonical chaos workload: one exact matrix + a kNN batch."""
    matrix = session.pairwise_matrix(mode="exact")
    plans = [KnnPlan(session.probe(graph, node), 4) for node in graph.nodes()[:6]]
    return [matrix.values, session.execute_batch(plans)]


def _exact_knn_plans(session, graph):
    """Exact-mode kNN plans: every pair goes through the exact tier."""
    return [KnnPlan(session.probe(graph, node), 4, mode="exact") for node in graph.nodes()[:6]]


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
        # The retry re-paid nothing: neither an exact evaluation nor a
        # cache lookup more than the fault-free run.
        assert snapshot["resolution"] == arena["counters"]["warm"], f"seed={seed} site={site}"
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


@pytest.mark.skipif(
    not batch_available(), reason="the degradation ladder starts at the batch kernel"
)
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
        # The failed blocks are evaluated once, per pair.
        assert matrix.stats.exact_evaluations == arena["counters"]["matrix"]
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
                knn = session.execute_batch(_exact_knn_plans(session, graph))
        # Both matchers solve the assignment optimally, so the TED* values
        # (hence every derived result) agree on this workload.
        assert knn == arena["reference"][1]
        snapshot = session.metrics_snapshot()
        assert snapshot["resolution"]["exact_evaluations"] == arena["counters"]["exact_knn"]
        assert snapshot["resilience"]["degrades_by_rung"].get("exact-pair", 0) == 1
        assert any(issubclass(w.category, ResilienceWarning) for w in caught)


class TestExecutorChaos:
    def test_worker_kill_falls_back_bit_identical(
        self, arena, tmp_path, graph, attached_pool
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
            with NedSession(store, faults=plan) as session:
                attached_pool(session)
                matrix = session.pairwise_matrix(mode="exact", chunk_size=16)
        assert matrix.values == arena["reference"][0]
        # The blocks the dead pool never returned run locally, once each.
        assert matrix.stats.exact_evaluations == arena["counters"]["matrix"]
        assert matrix.executor_used == "serial (fallback: BrokenProcessPool)"
        snapshot = session.metrics_snapshot()
        assert snapshot["resilience"]["serial_fallbacks"] == 1
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, ResilienceWarning)]
        assert any("evaluated locally" in message for message in messages)


@contextmanager
def _bounded_heap(headroom=256 << 20):
    """Cap this process's data segment at ``headroom`` above its use.

    A mutated memo index makes ``pickle.load`` grow and zero a memo table
    of up to gigabytes.  Under the cap that allocation fails with a
    ``MemoryError``, which the loaders type, instead of taking the RAM.
    """
    import resource

    status = Path("/proc/self/status")
    if not status.exists():
        yield
        return
    used = int(re.search(r"VmData:\s+(\d+) kB", status.read_text()).group(1)) << 10
    soft, hard = resource.getrlimit(resource.RLIMIT_DATA)
    cap = used + headroom
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_DATA, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_DATA, (soft, hard))


class TestByteMutationFuzz:
    """Seeded 1–3-byte mutations of a persisted file load or fail typed."""

    @pytest.mark.parametrize("artifact", ["sidecar", "store"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mutation_loads_or_raises_repro_error(
        self, arena, tmp_path, artifact, seed
    ):
        if artifact == "sidecar":
            source = arena["root"] / "cache.ned"
            load = NedSession(None, k=4).resolver.cache.load
        else:
            source = arena["root"] / "store.ned"
            load = TreeStore.load
        original = source.read_bytes()
        mutated = tmp_path / source.name
        rng = random.Random(f"{artifact}:{seed}")
        typed = 0
        with _bounded_heap():
            for _ in range(MUTATIONS):
                data = bytearray(original)
                for _ in range(rng.randint(1, 3)):
                    data[rng.randrange(len(data))] = rng.randrange(256)
                mutated.write_bytes(bytes(data))
                try:
                    load(mutated)  # anything but a ReproError fails the test
                except ReproError:
                    typed += 1
        assert typed > 0

    def test_directory_path_raises_typed(self, tmp_path):
        # A sidecar directory is covered end to end by ned-serve's CLI test.
        with pytest.raises(GraphError, match="is not a TreeStore file"):
            TreeStore.load(tmp_path)


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

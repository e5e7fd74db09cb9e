"""The resilience and tracing layers on a clean k = 4 engine pass: same bits, same work.

One pass touches every layer both instrument: a sharded store with
``max_resident=2`` (the LRU must evict), a distance-cache sidecar written on
close and loaded by a warm reopen, a deduplicating ``execute_batch``, a
bound-pruned matrix and an async ``serve()`` round.  At k = 4 the degree tier
no longer pins every pair, so exact blocks reach the batch kernel.

The checks are counts, not timings:

* *resilience* — the default policy (retries + breakers) and
  ``resilience=False`` return identical results with identical work
  counters, every event count of ``metrics_snapshot()["resilience"]`` is 0,
  and the breakers are consulted once per exact unit.  Every exact unit is
  a kernel block (a kNN survivor is a one-pair block), so the ``exact-batch``
  breaker is consulted once per block, never per pair of the block, and the
  per-pair rung is never taken;
* *tracing* — traced and untraced passes return identical results with
  identical work counters, the snapshot carries usable p50/p99 for every
  instrumented stage and only canonical series names, and the span count is
  bounded by plans + exact blocks + a fixed lifecycle count, so no span is
  opened per pair.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.engine.session import KnnPlan, NedSession
from repro.engine.shards import ShardedTreeStore, save_sharded
from repro.engine.tree_store import TreeStore
from repro.graph.generators import barabasi_albert_graph
from repro.obs import METRIC_NAMES, MetricsRegistry, Tracer, validate_snapshot_names
from repro.resilience.policies import CircuitBreaker
from repro.ted.batch import batch_available

pytestmark = pytest.mark.skipif(
    not batch_available(), reason="the k = 4 pass runs the batch kernel (numpy/SciPy)"
)

K = 4
NODES = 40
NEIGHBORS = 5
#: Plans per deduplicating batch: a 16-probe pool cycled twice.
BATCH_PLANS = 32

#: Histograms the pass must fill with usable quantiles: the bound survey
#: (no engine surface calls the per-pair ``bounds()``), cache lookups and
#: kernel blocks, sidecar and shard-load timings, executor chunks, search and
#: batch execution, and the serving batch/tick distributions.  The per-pair
#: rung's ``resolver.exact_seconds`` is not among them: with a kernel every
#: exact unit is a block, so it is checked on a ``batch=False`` session.
REQUIRED_HISTOGRAMS = (
    "resolver.survey_seconds",
    "resolver.cache_lookup_seconds",
    "resolver.exact_batch_seconds",
    "sidecar.load_seconds",
    "sidecar.save_seconds",
    "shards.load_seconds",
    "executor.chunk_seconds",
    "search.query_seconds",
    "session.execute_batch_seconds",
    "serving.batch_size",
    "serving.tick_seconds",
)

#: Spans a pass opens regardless of its size: the warm session's sidecar
#: load, one close per session, and the matrix build's survey and exact
#: phases.  Per-plan, per-batch and per-tick spans are bounded by the plans.
LIFECYCLE_SPANS = 5

#: ``metrics_snapshot()["resilience"]`` entries that count events.
RESILIENCE_EVENTS = (
    "retries",
    "retry_exhausted",
    "faults_injected",
    "shed_requests",
    "deadline_exceeded",
    "degrades",
    "sidecar_cold_starts",
    "sidecar_save_failures",
    "serial_fallbacks",
)


def _work(snapshot):
    """The work counters of one session's snapshot (no timings)."""
    return {
        key: snapshot.get(key)
        for key in ("counters", "resolution", "batching", "batch_kernel", "shards")
    }


def engine_pass(base, label, trace=None, resilience=None):
    """Run the pass once; returns its results, work counters and snapshot."""
    graph = barabasi_albert_graph(NODES, 2, seed=5)
    store_dir = base / label
    save_sharded(TreeStore.from_graph(graph, K), store_dir, shards=6)
    cache_file = base / f"{label}.ned"
    registry = MetricsRegistry()
    options = dict(cache_file=cache_file, metrics=registry, trace=trace,
                   resilience=resilience)

    store = ShardedTreeStore.load(store_dir, max_resident=2)
    with NedSession(store, **options) as session:
        probes = [session.probe(graph, node) for node in graph.nodes()[:16]]
        plans = [KnnPlan(probes[i % len(probes)], NEIGHBORS)
                 for i in range(BATCH_PLANS)]
        # The batch runs before the matrix so its exact pairs are resolved,
        # not answered from a matrix-warmed cache.
        answers = session.execute_batch(plans)
        matrix = session.pairwise_matrix(mode="bound-prune")

        async def serve_all():
            async with session.serve(max_batch=8) as server:
                return await server.map(plans)

        served = asyncio.run(serve_all())
    cold = session.metrics_snapshot()

    warm_store = ShardedTreeStore.load(store_dir, max_resident=2)
    with NedSession(warm_store, **options) as warm:
        warm_answers = warm.execute_batch(plans)
    snapshot = warm.metrics_snapshot()
    return dict(
        results=(matrix.values, answers, served, warm_answers),
        work=(_work(cold), _work(snapshot)),
        cold=cold,
        snapshot=snapshot,
        plans=3 * BATCH_PLANS + 1,
    )


@pytest.fixture(scope="module")
def breaker_checks():
    """Count ``CircuitBreaker.allows`` calls per breaker for this module."""
    checks = Counter()
    allows = CircuitBreaker.allows

    def counting(self):
        checks[self.name] += 1
        return allows(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CircuitBreaker, "allows", counting)
        yield checks


@pytest.fixture(scope="module")
def default_pass(tmp_path_factory, breaker_checks):
    """The pass under the default policy, untraced, with its breaker checks."""
    breaker_checks.clear()
    run = engine_pass(tmp_path_factory.mktemp("default"), "default")
    run["checks"] = dict(breaker_checks)
    return run


class TestResilienceCleanPath:
    def test_guarded_and_unguarded_passes_are_identical(
        self, tmp_path, default_pass, breaker_checks
    ):
        breaker_checks.clear()
        unguarded = engine_pass(tmp_path, "unguarded", resilience=False)
        assert not breaker_checks
        assert unguarded["results"] == default_pass["results"]
        assert unguarded["work"] == default_pass["work"]

    def test_no_resilience_event_without_a_fault_plan(self, default_pass):
        for snapshot in (default_pass["cold"], default_pass["snapshot"]):
            section = snapshot["resilience"]
            assert section["enabled"]
            assert {key: section[key] for key in RESILIENCE_EVENTS} == dict.fromkeys(
                RESILIENCE_EVENTS, 0
            )
            for breaker in section["breakers"].values():
                assert breaker == {"state": "closed", "trips": 0, "reopens": 0}

    def test_breakers_are_consulted_once_per_exact_unit(self, default_pass):
        cold, warm = default_pass["cold"], default_pass["snapshot"]
        blocks = cold["batch_kernel"]["blocks"] + warm["batch_kernel"]["blocks"]
        batched = (cold["batch_kernel"]["batched_pairs"]
                   + warm["batch_kernel"]["batched_pairs"])
        # Both sessions share one registry: the warm snapshot holds the
        # pass's totals.  Every exact unit, the kNN survivors' one-pair
        # blocks included, is a kernel block; no pair takes the per-pair rung.
        assert 0 < blocks < batched
        assert "resolver.exact_seconds" not in warm["histograms"]
        assert default_pass["checks"] == {"exact-batch": blocks}


class TestTracingCleanPath:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        tracer = Tracer(enabled=True)
        with tracer:
            run = engine_pass(tmp_path_factory.mktemp("traced"), "traced", trace=tracer)
        run["spans"] = len(tracer.spans)
        return run

    def test_traced_and_untraced_passes_are_identical(self, traced, default_pass):
        assert traced["results"] == default_pass["results"]
        assert traced["work"] == default_pass["work"]

    def test_required_histograms_have_quantiles(self, traced):
        assert all(name in METRIC_NAMES for name in REQUIRED_HISTOGRAMS)
        histograms = traced["snapshot"]["histograms"]
        for name in REQUIRED_HISTOGRAMS:
            entry = histograms[name]
            assert entry["count"] > 0, name
            assert entry["p50"] is not None and entry["p99"] is not None, name
        # The per-pair rung records its own histogram on a batch=False session.
        graph = barabasi_albert_graph(NODES, 2, seed=5)
        with NedSession(TreeStore.from_graph(graph, K), batch=False) as reference:
            reference.execute_batch(
                [KnnPlan(reference.probe(graph, node), NEIGHBORS)
                 for node in graph.nodes()[:4]]
            )
            entry = reference.metrics_snapshot()["histograms"]["resolver.exact_seconds"]
        assert entry["count"] == reference.stats.exact_evaluations > 0
        assert entry["p50"] is not None and entry["p99"] is not None

    def test_snapshot_names_are_canonical(self, traced):
        assert validate_snapshot_names(traced["snapshot"]) == []

    def test_shard_sidecar_batching_and_serving_series_present(self, traced):
        snapshot = traced["snapshot"]
        assert snapshot["shards"]["loads"] > 0
        assert snapshot["shards"]["evictions"] > 0
        counters = snapshot["counters"]
        for name in ("shards.loads", "shards.evictions", "sidecar.loaded_entries",
                     "sidecar.saved_entries", "batch.deduplicated_plans"):
            assert counters.get(name, 0) > 0, name
        assert "serving.queue_depth" in snapshot["gauges"]

    def test_no_span_per_pair(self, traced):
        cold, warm = traced["cold"], traced["snapshot"]
        blocks = cold["batch_kernel"]["blocks"] + warm["batch_kernel"]["blocks"]
        pairs = (cold["resolution"]["pairs_considered"]
                 + warm["resolution"]["pairs_considered"])
        bound = traced["plans"] + blocks + LIFECYCLE_SPANS
        assert 0 < traced["spans"] <= bound < pairs

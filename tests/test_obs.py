"""Tests for `repro.obs` — tracing, metrics and latency histograms (PR 6).

Covers histogram quantile correctness (degenerate, uniform and bimodal
distributions, zeros, the bounded-relative-error guarantee of log
bucketing), the associativity/commutativity of the cross-process merge
protocol (including a JSON round-trip, the shape worker snapshots really
travel through), tracer span nesting and the JSONL sink, the genuinely
free disabled tracer (shared null span, bit-identical engine results),
and the instrumented engine surfaces: `session.metrics_snapshot()` over a
sharded store, sidecar load/save timings, per-tier resolver histograms,
and the serving-loop gauges/histograms.
"""

import asyncio
import json

import pytest

from repro import obs
from repro.engine import (
    KnnPlan,
    NedSession,
    PairwiseMatrixPlan,
    ShardedTreeStore,
    TopLPlan,
    TreeStore,
    save_sharded,
)
from repro.graph.generators import barabasi_albert_graph
from repro.obs import (
    LatencyHistogram,
    MetricsRegistry,
    NULL_TRACER,
    TRACE_ENV_VAR,
    Tracer,
    coerce_tracer,
    merge_snapshots,
    render_metrics_summary,
    render_trace_summary,
    tracer_from_env,
)
from repro.obs.tracing import _NULL_SPAN
from repro.ted import batch_available


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert_graph(24, 2, seed=11)


@pytest.fixture(scope="module")
def store(graph):
    # k = 4: at k <= 3 the degree tier pins every pair, so the exact-tier
    # histograms and the cache sidecar these tests observe would stay empty.
    return TreeStore.from_graph(graph, k=4)


def _knn_plans(session, graph, nodes, neighbors=4):
    return [KnnPlan(session.probe(graph, node), neighbors) for node in nodes]


# --------------------------------------------------------------------------
# LatencyHistogram quantiles
# --------------------------------------------------------------------------


class TestHistogramQuantiles:
    def test_constant_samples_report_exact_quantiles(self):
        histogram = LatencyHistogram()
        for _ in range(100):
            histogram.observe(0.0042)
        # min/max clamping makes degenerate distributions exact.
        assert histogram.p50 == pytest.approx(0.0042)
        assert histogram.p95 == pytest.approx(0.0042)
        assert histogram.p99 == pytest.approx(0.0042)
        assert histogram.mean == pytest.approx(0.0042)

    def test_quantiles_within_log_bucket_relative_error(self):
        # 1000 samples spread over three decades; each log bucket spans a
        # factor of 10^(1/10) ~ 1.26, and the representative is the
        # geometric midpoint, so any quantile is within a factor of
        # 10^(1/20) ~ 1.122 of the true order statistic.
        samples = [0.0001 * (1.009**i) for i in range(1000)]
        histogram = LatencyHistogram()
        for value in samples:
            histogram.observe(value)
        ordered = sorted(samples)
        tolerance = 10 ** (1.0 / 20)
        for q in (0.5, 0.9, 0.95, 0.99):
            true_value = ordered[max(0, int(q * len(ordered)) - 1)]
            estimate = histogram.quantile(q)
            assert true_value / tolerance <= estimate <= true_value * tolerance

    def test_bimodal_distribution_splits_p50_p99(self):
        histogram = LatencyHistogram()
        for _ in range(90):
            histogram.observe(0.001)
        for _ in range(10):
            histogram.observe(1.0)
        # p50 sits in the fast mode, p95/p99 in the slow one.
        assert histogram.p50 == pytest.approx(0.001, rel=0.15)
        assert histogram.p95 == pytest.approx(1.0, rel=0.15)
        assert histogram.p99 == pytest.approx(1.0, rel=0.15)

    def test_zeros_sort_below_every_bucket(self):
        histogram = LatencyHistogram()
        for _ in range(60):
            histogram.observe(0.0)
        for _ in range(40):
            histogram.observe(0.5)
        assert histogram.zeros == 60
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantile(0.99) == pytest.approx(0.5, rel=0.15)

    def test_negative_samples_clamp_to_zero(self):
        histogram = LatencyHistogram()
        histogram.observe(-1.0)
        assert histogram.zeros == 1
        assert histogram.min == 0.0

    def test_empty_histogram_has_no_quantiles(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) is None
        assert histogram.p99 is None
        assert histogram.mean is None

    def test_quantile_rejects_out_of_range(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError):
            histogram.quantile(0.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_snapshot_round_trip_preserves_quantiles(self):
        histogram = LatencyHistogram()
        for i in range(1, 200):
            histogram.observe(0.0001 * i)
        snapshot = json.loads(json.dumps(histogram.snapshot()))
        rebuilt = LatencyHistogram.from_snapshot(snapshot)
        assert rebuilt.count == histogram.count
        assert rebuilt.p50 == histogram.p50
        assert rebuilt.p99 == histogram.p99
        assert rebuilt.min == histogram.min
        assert rebuilt.max == histogram.max

    def test_merge_rejects_mismatched_resolution(self):
        with pytest.raises(ValueError):
            LatencyHistogram(10).merge(LatencyHistogram(5))


# --------------------------------------------------------------------------
# Cross-process merge: associative, commutative, JSON-safe
# --------------------------------------------------------------------------


def _worker_registry(seed):
    registry = MetricsRegistry()
    for i in range(50):
        registry.observe("executor.chunk_seconds", 0.0005 * ((seed + i) % 17 + 1))
    registry.inc("executor.chunks", 5 + seed)
    registry.set_gauge("serving.queue_depth", float(seed))
    return registry


class TestMergeProtocol:
    def test_merge_is_associative_and_commutative(self):
        snapshots = [_worker_registry(seed).snapshot() for seed in (1, 2, 3)]
        a, b, c = snapshots
        left = MetricsRegistry().merge(a).merge(b).merge(c).snapshot()
        right = MetricsRegistry().merge(c).merge(MetricsRegistry().merge(b).merge(a)).snapshot()
        helper = merge_snapshots([b, c, a])
        assert left == right == helper

    def test_merge_survives_json_round_trip(self):
        # Snapshots travel between processes as plain data; a JSON round
        # trip (string keys, no tuples) must not change the fold.
        snapshots = [_worker_registry(seed).snapshot() for seed in (4, 5)]
        direct = merge_snapshots(snapshots)
        rehydrated = merge_snapshots(
            json.loads(json.dumps(snapshot)) for snapshot in snapshots
        )
        assert direct == rehydrated

    def test_counters_add_and_gauges_keep_max(self):
        folded = MetricsRegistry()
        folded.merge(_worker_registry(1))
        folded.merge(_worker_registry(3))
        assert folded.counter("executor.chunks") == (5 + 1) + (5 + 3)
        assert folded.gauge("serving.queue_depth") == 3.0

    def test_merged_quantiles_match_single_registry(self):
        # Splitting the same samples across workers must not move quantiles
        # (sums only agree up to float addition order).
        single = MetricsRegistry()
        parts = [MetricsRegistry() for _ in range(4)]
        for i in range(400):
            value = 0.0001 * (1.02**(i % 200))
            single.observe("latency", value)
            parts[i % 4].observe("latency", value)
        folded = merge_snapshots(part.snapshot() for part in parts)
        expected = single.snapshot()["histograms"]["latency"]
        actual = folded["histograms"]["latency"]
        for key in ("count", "min", "max", "zeros", "buckets", "p50", "p95", "p99"):
            assert actual[key] == expected[key], key
        assert actual["sum"] == pytest.approx(expected["sum"])


# --------------------------------------------------------------------------
# Tracer: nesting, sinks, env, and the free disabled path
# --------------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_with_depth_and_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner", detail=7):
                    pass
        by_name = {span.name: span for span in tracer.spans}
        assert by_name["outer"].depth == 0 and by_name["outer"].parent is None
        assert by_name["middle"].depth == 1 and by_name["middle"].parent == "outer"
        assert by_name["inner"].depth == 2 and by_name["inner"].parent == "middle"
        assert by_name["inner"].attrs == {"detail": 7}
        # Children finish (and record) before their parents.
        assert [span.name for span in tracer.spans] == ["inner", "middle", "outer"]

    def test_summary_aggregates_per_name(self):
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("tick"):
                pass
        summary = tracer.summary()
        assert summary["tick"]["count"] == 3
        assert summary["tick"]["total"] >= summary["tick"]["max"]
        assert summary["tick"]["mean"] == pytest.approx(
            summary["tick"]["total"] / 3
        )

    def test_jsonl_sink_writes_one_parseable_line_per_span(self, tmp_path):
        sink = tmp_path / "spans.jsonl"
        with Tracer(enabled=True, sink=sink) as tracer:
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
        lines = sink.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [record["name"] for record in records] == ["b", "a"]
        assert all(record["elapsed"] >= 0.0 for record in records)

    def test_disabled_tracer_hands_out_the_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", attr=1)
        assert span is _NULL_SPAN
        assert tracer.span("other") is span  # no per-call allocation
        with span:
            pass
        assert tracer.spans == []

    def test_tracer_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        assert tracer_from_env() is NULL_TRACER
        monkeypatch.setenv(TRACE_ENV_VAR, "0")
        assert tracer_from_env() is NULL_TRACER
        monkeypatch.setenv(TRACE_ENV_VAR, "1")
        assert tracer_from_env().enabled
        sink = tmp_path / "env_spans.jsonl"
        monkeypatch.setenv(TRACE_ENV_VAR, str(sink))
        tracer = tracer_from_env()
        assert tracer.enabled
        with tracer.span("from-env"):
            pass
        tracer.close()
        assert json.loads(sink.read_text().splitlines()[0])["name"] == "from-env"

    def test_coerce_tracer_forms(self, tmp_path):
        assert coerce_tracer(None) is None
        assert coerce_tracer(False) is NULL_TRACER
        assert coerce_tracer(True).enabled
        existing = Tracer(enabled=True)
        assert coerce_tracer(existing) is existing
        assert coerce_tracer(str(tmp_path / "t.jsonl")).enabled
        with pytest.raises(TypeError):
            coerce_tracer(3.14)


# --------------------------------------------------------------------------
# Instrumented engine surfaces
# --------------------------------------------------------------------------


class TestSessionObservability:
    def test_disabled_tracer_results_are_bit_identical(self, graph, store):
        nodes = graph.nodes()[:6]
        with NedSession(store) as plain:
            baseline = plain.execute_batch(_knn_plans(plain, graph, nodes))
            assert plain.tracer.span("x") is _NULL_SPAN
        with NedSession(store, trace=True) as traced:
            answers = traced.execute_batch(_knn_plans(traced, graph, nodes))
            assert traced.tracer.spans  # actually recorded something
        assert answers == baseline

    def test_closed_form_traced_results_and_survey_histogram(self, graph):
        # At k = 3 matrices and exact scans are answered from the bound
        # survey: tracing leaves the answers alone, and the survey is timed.
        shallow = TreeStore.from_graph(graph, k=3)
        plans = [
            TopLPlan(shallow.entries()[0], 5, mode="exact"),
            PairwiseMatrixPlan(mode="exact"),
        ]
        answers = []
        for trace in (False, True):
            with NedSession(shallow, trace=trace) as session:
                top, matrix = session.execute_batch(plans)
                answers.append((top, matrix.values))
                snapshot = session.metrics_snapshot()
        assert answers[0] == answers[1]
        if batch_available():
            assert snapshot["histograms"]["resolver.survey_seconds"]["count"] > 0
            assert snapshot["resolution"]["exact_evaluations"] == 0

    def test_metrics_snapshot_shards_section_and_histograms(
        self, graph, store, tmp_path
    ):
        store_dir = tmp_path / "shards"
        save_sharded(store, store_dir, shards=4)
        sharded = ShardedTreeStore.load(store_dir, max_resident=1)
        with NedSession(sharded) as session:
            plans = _knn_plans(session, graph, graph.nodes()[:6])
            session.execute_batch(plans)
            snapshot = session.metrics_snapshot()
        shards = snapshot["shards"]
        assert shards["shard_count"] == 4
        assert shards["loads"] > 0
        assert shards["evictions"] > 0  # max_resident=1 forces churn
        assert shards["resident"] == 1
        histograms = snapshot["histograms"]
        assert histograms["shards.load_seconds"]["count"] == shards["loads"]
        # Exact pairs run as kernel blocks with the kernel, else on the
        # per-pair rung; each route records its own histogram.
        exact_tier = (
            "resolver.exact_batch_seconds" if batch_available()
            else "resolver.exact_seconds"
        )
        for name in (
            "resolver.survey_seconds",
            exact_tier,
            "session.execute_batch_seconds",
            "search.query_seconds",
        ):
            assert histograms[name]["count"] > 0, name
            assert histograms[name]["p99"] is not None, name
        # One store survey per distinct bound-pruned kNN plan.
        distinct = len(plans) - snapshot["batching"]["deduplicated_plans"]
        assert histograms["resolver.survey_seconds"]["count"] == distinct
        assert snapshot["resolution"]["exact_evaluations"] > 0
        assert snapshot["batching"]["batches_executed"] == 1

    def test_sidecar_load_save_timings(self, graph, store, tmp_path):
        sidecar = tmp_path / "cache.ned"
        registry = MetricsRegistry()
        with NedSession(store, cache_file=sidecar, metrics=registry) as session:
            session.knn(session.probe(graph, 0), 4)
        cold = registry.snapshot()
        assert cold["histograms"]["sidecar.save_seconds"]["count"] == 1
        assert cold["counters"]["sidecar.saved_entries"] > 0
        warm_registry = MetricsRegistry()
        with NedSession(store, cache_file=sidecar, metrics=warm_registry) as session:
            session.knn(session.probe(graph, 0), 4)
            warm = session.metrics_snapshot()
        assert warm["histograms"]["sidecar.load_seconds"]["count"] == 1
        assert (
            warm["counters"]["sidecar.loaded_entries"]
            == cold["counters"]["sidecar.saved_entries"]
        )

    def test_execute_records_per_plan_kind_histograms(self, graph, store, tmp_path):
        sidecar = tmp_path / "cache.ned"
        with NedSession(store, cache_file=sidecar) as session:
            session.knn(session.probe(graph, 0), 3)  # seed the sidecar
        with NedSession(store, cache_file=sidecar, trace=True) as session:
            probe = session.probe(graph, 0)
            session.execute(KnnPlan(probe, 3))
            snapshot = session.metrics_snapshot()
            assert snapshot["histograms"]["session.execute_seconds.knn"]["count"] == 1
            tracer = session.tracer
        names = [span.name for span in tracer.spans]
        assert "execute.knn" in names
        assert "session.warm" in names  # sidecar existed, so warm was traced
        assert "session.close" in names

    def test_serving_metrics(self, graph, store):
        async def drive():
            with NedSession(store) as session:
                plans = _knn_plans(session, graph, graph.nodes()[:6])
                async with session.serve(max_batch=3) as server:
                    await server.map(plans)
                return session.metrics_snapshot()

        snapshot = asyncio.run(drive())
        assert snapshot["histograms"]["serving.batch_size"]["count"] > 0
        assert snapshot["histograms"]["serving.batch_size"]["max"] <= 3
        assert snapshot["histograms"]["serving.tick_seconds"]["count"] > 0
        assert "serving.queue_depth" in snapshot["gauges"]

    def test_configured_defaults_cover_sessions(self, graph, store):
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        obs.configure(tracer=tracer, metrics=registry)
        try:
            with NedSession(store) as session:
                assert session.tracer is tracer
                assert session.metrics is registry
                session.knn(session.probe(graph, 0), 3)
        finally:
            obs.configure()
        assert tracer.spans
        assert registry.snapshot()["histograms"]["session.execute_seconds.knn"]["count"] == 1
        # Reset really clears the defaults.
        with NedSession(store) as session:
            assert session.tracer is not tracer
            assert session.metrics is not registry


# --------------------------------------------------------------------------
# Renderers
# --------------------------------------------------------------------------


class TestRenderers:
    def test_render_trace_summary(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        text = render_trace_summary(tracer)
        assert "outer" in text and "inner" in text

    def test_render_metrics_summary(self, graph, store):
        # batch=False: the per-pair rung records resolver.exact_seconds.
        with NedSession(store, batch=False) as session:
            session.knn(session.probe(graph, 0), 3)
            snapshot = session.metrics_snapshot()
        text = render_metrics_summary(snapshot)
        assert "p50" in text
        assert "resolver.exact_seconds" in text

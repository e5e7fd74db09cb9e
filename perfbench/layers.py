"""Per-layer metrics of the traced run, and how each is derived.

Every workload reports every name in :data:`PER_LAYER`; a layer the workload
does not exercise reads 0.  Times are summed over the traced timed phase.
Sources: spans recorded around public boundaries (:mod:`spans`), the
session's ``metrics_snapshot()`` in-process, ``GET /v1/telemetry`` deltas
for the server, and the load generator's own records.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from common import histogram_count, histogram_sum, percentile
from spans import Span, layer_times, root_coverage

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("ted.batch.pairs", "count"),
    ("ted.batch.blocks", "count"),
    ("ted.batch.busy_s", "s"),
    ("ted.batch.pairs_per_busy_s", "1/s"),
    ("ted.batch.fallback_pairs", "count"),
    ("ted.resolver.level_size_s", "s"),
    ("ted.resolver.degree_s", "s"),
    ("ted.resolver.bound_evaluations", "count"),
    ("ted.resolver.pruning_ratio", "ratio"),
    ("ted.resolver.cache_hit_rate", "ratio"),
    ("ted.resolver.exact_evaluations", "count"),
    ("ted.resolver.exact_many_self_s", "s"),
    ("engine.matrix.build_s", "s"),
    ("engine.matrix.self_s", "s"),
    ("engine.matrix.chunks", "count"),
    ("engine.search.query_s", "s"),
    ("engine.search.self_s", "s"),
    ("engine.session.execute_s", "s"),
    ("engine.session.dedup_share", "ratio"),
    ("engine.tree_store.build_s", "s"),
    ("engine.tree_store.probe_s", "s"),
    ("serving.protocol.client_s", "s"),
    ("serving.protocol.server_s", "s"),
    ("serving.server.request_s", "s"),
    ("serving.server.tick_s", "s"),
    ("serving.server.queue_wait_s", "s"),
    ("serving.server.batch_size_mean", "count"),
    ("serving.server.tick_limit", "count"),
    ("serving.server.wire_s", "s"),
    ("serving.workers.dispatch_blocks", "count"),
    ("serving.workers.dispatch_s", "s"),
    ("serving.workers.block_s", "s"),
    ("serving.workers.ipc_s", "s"),
    ("serving.workers.fallbacks", "count"),
    ("loadgen.late_ms_p95", "ms"),
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.attempted", "count"),
    ("loadgen.failed", "count"),
    ("wall_s", "s"),
    ("unattributed_s", "s"),
    ("tracing.overhead_latency_ms", "ms"),
    ("tracing.overhead_p95_latency_ms", "ms"),
    ("tracing.overhead_pairs_per_s", "1/s"),
    ("host.loop_before_s", "s"),
    ("host.loop_after_s", "s"),
)

#: Resolver tiers timed per pair by the program's own histograms.
TIER_HISTOGRAMS = (
    "resolver.level_size_seconds",
    "resolver.degree_seconds",
    "resolver.cache_lookup_seconds",
    "resolver.exact_seconds",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _span_layers(
    window: Sequence[Span], all_spans: Sequence[Span], tier_seconds: float = 0.0
) -> Dict[str, float]:
    """The metrics every span-traced process contributes.

    ``tier_seconds`` is the per-pair resolver tier time (from histograms)
    spent inside search queries; the search loop's self time excludes it.
    """
    table = layer_times(window, all_spans)

    def get(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0.0)

    # Chunks: exact blocks issued by a matrix build (direct children).
    builds = {index for index, span in enumerate(all_spans) if span.name == "engine.matrix.build"}
    chunks = sum(
        1 for span in window
        if span.name == "ted.resolver.exact_many" and span.parent in builds
    )
    return {
        "ted.batch.pairs": get("ted.batch", "pairs"),
        "ted.batch.blocks": get("ted.batch", "count"),
        "ted.batch.busy_s": get("ted.batch", "total"),
        "ted.batch.pairs_per_busy_s": _ratio(get("ted.batch", "pairs"), get("ted.batch", "total")),
        "ted.resolver.exact_many_self_s": get("ted.resolver.exact_many", "self"),
        "engine.matrix.build_s": get("engine.matrix.build", "total"),
        "engine.matrix.self_s": get("engine.matrix.build", "self"),
        "engine.matrix.chunks": chunks,
        "engine.search.query_s": get("engine.search.query", "total"),
        "engine.search.self_s": max(0.0, get("engine.search.query", "self") - tier_seconds)
        if "engine.search.query" in table else 0.0,
        "engine.session.execute_s": get("engine.session.execute", "total"),
        "engine.tree_store.build_s": get("engine.tree_store.build", "total")
        + get("engine.tree_store.save", "total"),
        "engine.tree_store.probe_s": get("engine.tree_store.probe", "total"),
    }


def empty() -> Dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


def in_process(
    window: Sequence[Span],
    setup_window: Sequence[Span],
    all_spans: Sequence[Span],
    snapshots: Sequence[Dict[str, Any]],
    wall: float,
) -> Dict[str, float]:
    """Per-layer metrics of a traced in-process phase.

    ``snapshots`` are the ``metrics_snapshot()`` of every pass's session.
    """
    tiers = {name: sum(histogram_sum(s, name) for s in snapshots) for name in TIER_HISTOGRAMS}
    out = empty()
    out.update(_span_layers(window, all_spans, sum(tiers.values())))
    setup = _span_layers(setup_window, all_spans)
    out["engine.tree_store.build_s"] = setup["engine.tree_store.build_s"]
    out["engine.tree_store.probe_s"] = setup["engine.tree_store.probe_s"]
    resolution = [s["resolution"] for s in snapshots]
    considered = sum(r["pairs_considered"] for r in resolution)
    hits = sum(r["cache_hits"] for r in resolution)
    lookups = hits + sum(r["cache_misses"] for r in resolution)
    out.update({
        "ted.batch.fallback_pairs": sum(
            s.get("batch_kernel", {}).get("fallback_pairs", 0) for s in snapshots
        ),
        "ted.resolver.level_size_s": tiers["resolver.level_size_seconds"],
        "ted.resolver.degree_s": tiers["resolver.degree_seconds"],
        "ted.resolver.bound_evaluations": sum(r["bound_evaluations"] for r in resolution),
        "ted.resolver.pruning_ratio": _ratio(
            sum(r["exact_evaluations_avoided"] for r in resolution), considered
        ),
        "ted.resolver.cache_hit_rate": _ratio(hits, lookups),
        "ted.resolver.exact_evaluations": sum(r["exact_evaluations"] for r in resolution),
        "engine.session.dedup_share": _ratio(
            sum(s["batching"]["deduplicated_plans"] for s in snapshots),
            sum(s["batching"]["batched_plans"] for s in snapshots),
        ),
    })
    out["wall_s"] = wall
    out["unattributed_s"] = wall - root_coverage(window)
    return out


def served(
    client_window: Sequence[Span],
    setup_window: Sequence[Span],
    client_spans: Sequence[Span],
    server_window: Sequence[Span],
    server_spans: Sequence[Span],
    telemetry: Dict[str, Any],
    records: Sequence[Any],
    store_size: int,
    plans_per_request: int,
    wall: float,
) -> Dict[str, float]:
    """Per-layer metrics of a traced served phase.

    ``setup_window`` holds the client-side spans of a traced set-up (store
    build and save, probes); ``telemetry`` is the ``/v1/telemetry`` merged
    delta over the phase;
    ``records`` are the load generator's; ``wall`` is first due time to
    last reply.  ``serving.server.wire_s`` is client request time minus the
    client's protocol work and the server's request time: HTTP and sockets.
    """
    tiers = {name: histogram_sum(telemetry, name) for name in TIER_HISTOGRAMS}
    out = empty()
    out.update(_span_layers(server_window, server_spans, sum(tiers.values())))
    setup = _span_layers(setup_window, client_spans)
    out["engine.tree_store.build_s"] = setup["engine.tree_store.build_s"]
    out["engine.tree_store.probe_s"] = setup["engine.tree_store.probe_s"]
    client = layer_times(client_window, client_spans)
    server = layer_times(server_window, server_spans)
    counters = telemetry["counters"]
    exact = histogram_count(telemetry, "resolver.exact_seconds") + sum(
        span.pairs for span in server_window if span.name == "ted.resolver.exact_many"
    )
    lookups = histogram_count(telemetry, "resolver.cache_lookup_seconds")
    considered = len(records) * plans_per_request * store_size
    request_s = server.get("serving.server.request", {}).get("total", 0.0)
    client_request_s = client.get("client.request", {}).get("total", 0.0)
    client_protocol_s = client.get("serving.protocol.client", {}).get("total", 0.0)
    dispatch_s = histogram_sum(telemetry, "serving.dispatch_seconds")
    block_s = histogram_sum(telemetry, "serving.worker_block_seconds")
    late_ms = [record.late * 1000.0 for record in records]
    out.update({
        "ted.resolver.level_size_s": tiers["resolver.level_size_seconds"],
        "ted.resolver.degree_s": tiers["resolver.degree_seconds"],
        "ted.resolver.bound_evaluations": histogram_count(telemetry, "resolver.level_size_seconds")
        + histogram_count(telemetry, "resolver.degree_seconds"),
        "ted.resolver.pruning_ratio": _ratio(considered - exact, considered),
        "ted.resolver.cache_hit_rate": _ratio(max(0, lookups - exact), lookups),
        "ted.resolver.exact_evaluations": exact,
        "engine.session.dedup_share": _ratio(
            counters.get("batch.deduplicated_plans", 0), counters.get("batch.plans", 0)
        ),
        "serving.protocol.client_s": client_protocol_s,
        "serving.protocol.server_s": server.get("serving.protocol.server", {}).get("total", 0.0),
        "serving.server.request_s": request_s,
        "serving.server.tick_s": histogram_sum(telemetry, "serving.tick_seconds"),
        "serving.server.queue_wait_s": server.get("serving.server.queue_wait", {}).get(
            "total", 0.0
        ),
        "serving.server.batch_size_mean": _ratio(
            histogram_sum(telemetry, "serving.batch_size"),
            histogram_count(telemetry, "serving.batch_size"),
        ),
        "serving.server.tick_limit": telemetry["gauges"].get("serving.tick_limit", 0.0),
        "serving.server.wire_s": client_request_s - client_protocol_s - request_s,
        "serving.workers.dispatch_blocks": counters.get("serving.dispatch_blocks", 0),
        "serving.workers.dispatch_s": dispatch_s,
        "serving.workers.block_s": block_s,
        "serving.workers.ipc_s": dispatch_s - block_s,
        "serving.workers.fallbacks": counters.get("serving.dispatch_fallbacks", 0),
        "loadgen.late_ms_p95": percentile(late_ms, 95),
        "loadgen.late_ms_max": max(late_ms),
        "loadgen.attempted": len(records),
        "loadgen.failed": sum(1 for record in records if not record.ok),
        "wall_s": wall,
    })
    # The client side is whole by construction (wire_s is its remainder).  On
    # the server, each request's children are its protocol work and, per
    # plan, its queue wait and the tick that ran it; the part of the request
    # they do not cover (thread hand-offs, the loop's scheduling) is its self
    # time, summed over requests.
    out["unattributed_s"] = server.get("serving.server.request", {}).get("self", 0.0)
    return out

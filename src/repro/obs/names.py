"""The canonical metric-name registry — one table, consumed everywhere.

Every counter, gauge and histogram the engine writes is named here, either
exactly (:data:`METRIC_NAMES`) or as a dotted dynamic family
(:data:`METRIC_PREFIXES`, e.g. ``resilience.retries.<site>``).  Runtime
code asserts its instrument names against this table (the observability
benchmark validates whole snapshots with :func:`validate_snapshot_names`),
and the static analyzer (``ned-lint`` rule ``NED-REG02``) cross-checks
every metric-name literal in the source tree against it — so a typo cannot
silently mint a phantom series that dashboards and assertions then miss.

Adding a metric is a two-line change: write the instrument call and add the
name (or its family prefix) here; ``ned-lint`` fails the build until both
halves agree.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

#: Exact instrument names in use (counters, gauges and histograms alike).
METRIC_NAMES = frozenset(
    {
        # batching (NedSession.execute_batch)
        "batch.deduplicated_plans",
        "batch.plans",
        "batch.ticks",
        # matrix executors
        "executor.chunk_seconds",
        "executor.chunks",
        "executor.pool_restarts",
        "executor.serial_fallbacks",
        # resilience layer
        "resilience.breaker_reopens",
        "resilience.breaker_trips",
        "resilience.deadline_exceeded",
        "resilience.degrades",
        "resilience.retries.executor.dispatch",
        "resilience.retry_attempt_seconds",
        "resilience.retry_backoff_seconds",
        "resilience.shed_requests",
        "resilience.sidecar_cold_starts",
        "resilience.sidecar_save_failures",
        # resolver tiers
        "resolver.cache_lookup_seconds",
        "resolver.degree_seconds",
        "resolver.exact_batch_seconds",
        "resolver.exact_seconds",
        "resolver.level_size_seconds",
        "resolver.survey_seconds",
        # search / serving / session
        "search.query_seconds",
        "serving.batch_size",
        "serving.dispatch_blocks",
        "serving.dispatch_fallbacks",
        "serving.dispatch_pairs",
        "serving.dispatch_seconds",
        "serving.queue_depth",
        "serving.queue_depth_hwm",
        "serving.request_plans",
        "serving.request_seconds",
        "serving.requests",
        "serving.shm_export_bytes",
        "serving.shm_exports",
        "serving.tick_limit",
        "serving.tick_seconds",
        "serving.worker_block_seconds",
        "session.execute_batch_seconds",
        # sharded store
        "shards.evictions",
        "shards.load_seconds",
        "shards.loads",
        "shards.resident",
        "shards.stream_decodes",
        # cache sidecar
        "sidecar.load_seconds",
        "sidecar.loaded_entries",
        "sidecar.save_seconds",
        "sidecar.saved_entries",
    }
)

#: Dynamic name families: any name starting with one of these prefixes is
#: canonical (the suffix carries a runtime dimension — a site, a worker pid,
#: a plan kind, a breaker name, a degradation rung).
METRIC_PREFIXES = (
    "executor.worker.",
    "resilience.breaker_state.",
    "resilience.degrades.",
    "resilience.faults_injected.",
    "resilience.retries.",
    "resilience.retry_exhausted.",
    "serving.worker.",
    "session.execute_seconds.",
)


def is_known_metric(name: str) -> bool:
    """True when ``name`` is an exact canonical name or in a known family."""
    if name in METRIC_NAMES:
        return True
    return any(name.startswith(prefix) for prefix in METRIC_PREFIXES)


def unknown_metric_names(names: Iterable[str]) -> List[str]:
    """The subset of ``names`` the registry does not know, sorted."""
    return sorted(name for name in names if not is_known_metric(name))


def validate_snapshot_names(snapshot: Dict[str, object]) -> List[str]:
    """Cross-check a ``MetricsRegistry.snapshot()`` against the registry.

    Returns the sorted list of counter/gauge/histogram names present in the
    snapshot but absent from :data:`METRIC_NAMES`/:data:`METRIC_PREFIXES` —
    empty when every series the process actually minted is canonical.  The
    observability benchmark asserts this comes back empty, closing the loop
    the static rule opens: the linter proves the *literals* are canonical,
    this proves the *runtime series* are.
    """
    seen: List[str] = []
    for section in ("counters", "gauges", "histograms"):
        table = snapshot.get(section)
        if isinstance(table, dict):
            seen.extend(table.keys())
    return unknown_metric_names(seen)

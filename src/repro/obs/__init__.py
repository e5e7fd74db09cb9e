"""``repro.obs`` — tracing, metrics and latency histograms for the engine.

The engine's counters (:class:`repro.engine.stats.EngineStats`) say *what*
was resolved per tier; this package says *where the time went* and *how it
was distributed*:

* :mod:`repro.obs.tracing` — :class:`Tracer`, nested wall-clock spans over
  session lifecycle, plan execution, matrix passes and serving ticks.
  Disabled by default and genuinely free when disabled (one shared null
  context manager, no clock reads); enable per session
  (``NedSession(trace=...)``), process-wide (:func:`configure`) or from the
  environment (``REPRO_TRACE=1`` or ``REPRO_TRACE=spans.jsonl``).
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters, gauges
  and log-bucketed :class:`LatencyHistogram` s (p50/p95/p99 with no
  dependencies).  Always on and cheap; every session owns one and the
  resolver tiers, sharded store, matrix executors and serving loop write
  into it.  Snapshots are plain dicts; :meth:`MetricsRegistry.merge` /
  :func:`merge_snapshots` fold worker exports into parent totals — the same
  workers-export/parent-folds shape as
  :func:`repro.ted.cache.merge_sidecars`.
* :mod:`repro.obs.render` — text renderers for span summaries and metrics
  snapshots (``ned-experiments --trace`` prints them).

Reading a session's telemetry::

    with NedSession(store, trace=True) as session:
        session.execute_batch(plans)
        snapshot = session.metrics_snapshot()   # histograms + tiers + shards
    print(render_metrics_summary(snapshot))
    print(render_trace_summary(session.tracer))

Everything here uses :data:`repro.utils.timer.clock` (``perf_counter``), so
span durations, histogram samples and benchmark timings are one currency.
"""

from typing import Optional

from repro.obs.metrics import (
    DEFAULT_BUCKETS_PER_DECADE,
    LatencyHistogram,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.names import (
    METRIC_NAMES,
    METRIC_PREFIXES,
    is_known_metric,
    unknown_metric_names,
    validate_snapshot_names,
)
from repro.obs.render import render_metrics_summary, render_trace_summary
from repro.obs.tracing import (
    NULL_TRACER,
    TRACE_ENV_VAR,
    SpanRecord,
    Tracer,
    coerce_tracer,
    tracer_from_env,
)

__all__ = [
    "Tracer",
    "SpanRecord",
    "NULL_TRACER",
    "TRACE_ENV_VAR",
    "tracer_from_env",
    "coerce_tracer",
    "LatencyHistogram",
    "MetricsRegistry",
    "merge_snapshots",
    "DEFAULT_BUCKETS_PER_DECADE",
    "METRIC_NAMES",
    "METRIC_PREFIXES",
    "is_known_metric",
    "unknown_metric_names",
    "validate_snapshot_names",
    "render_trace_summary",
    "render_metrics_summary",
    "configure",
    "default_tracer",
    "default_metrics",
    "resolve_tracer",
]

# Process-wide defaults, set by `configure` (the CLI's --trace/--metrics-out
# use this to observe every session an experiment run opens without
# threading parameters through each driver).  None means "not configured".
_DEFAULT_TRACER: Optional[Tracer] = None
_DEFAULT_METRICS: Optional[MetricsRegistry] = None


def configure(
    tracer: Optional[Tracer] = None, metrics: Optional[MetricsRegistry] = None
) -> None:
    """Install process-wide observability defaults (``None`` clears one).

    Every :class:`repro.engine.session.NedSession` constructed without an
    explicit ``trace=`` / ``metrics=`` picks these up, so one call makes a
    whole experiment run traced and folds every session's metrics into one
    shared registry.  Call ``configure()`` with no arguments to reset.
    """
    global _DEFAULT_TRACER, _DEFAULT_METRICS
    _DEFAULT_TRACER = tracer
    _DEFAULT_METRICS = metrics


def default_tracer() -> Optional[Tracer]:
    """The process-wide tracer installed by :func:`configure`, if any."""
    return _DEFAULT_TRACER


def default_metrics() -> Optional[MetricsRegistry]:
    """The process-wide registry installed by :func:`configure`, if any."""
    return _DEFAULT_METRICS


def resolve_tracer(trace: object) -> Tracer:
    """Resolve a session's ``trace=`` argument to a concrete tracer.

    Precedence: an explicit value (tracer / bool / sink path) wins; then the
    process-wide default from :func:`configure`; then the ``REPRO_TRACE``
    environment variable; finally the shared disabled tracer.
    """
    explicit = coerce_tracer(trace)
    if explicit is not None:
        return explicit
    if _DEFAULT_TRACER is not None:
        return _DEFAULT_TRACER
    return tracer_from_env()

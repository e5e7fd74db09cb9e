"""Counters, gauges and log-bucketed latency histograms — no dependencies.

A :class:`MetricsRegistry` is the numeric half of :mod:`repro.obs` (the
:mod:`~repro.obs.tracing` half answers *where* time went on one run; this
module answers *how it is distributed* across many).  Three instrument
kinds, all snapshotting to plain dicts:

* **counters** — monotonically increasing totals (``inc``);
* **gauges** — last-written level readings (``set_gauge``), e.g. the serving
  queue depth or the resident-shard count;
* **latency histograms** — :class:`LatencyHistogram`, log-bucketed
  (fixed buckets per decade of seconds), so p50/p95/p99 come out of a few
  dozen integer cells instead of a stored sample list, with bounded
  relative error and O(1) ``observe``.

Cross-process folding mirrors the distance-cache sidecar discipline
(:func:`repro.ted.cache.merge_sidecars`): a worker *exports*
``registry.snapshot()`` — a plain, picklable dict — and the parent *folds*
it with :meth:`MetricsRegistry.merge` (or many at once with
:func:`merge_snapshots`).  Merging is associative and commutative (counters
and histogram buckets add, gauges keep the maximum, quantiles are recomputed
from the merged buckets), so fold order never changes the result — the
property the obs test suite asserts.

Timing goes through :meth:`MetricsRegistry.time`, which returns a
:class:`repro.utils.timer.Timer` wired to ``observe`` — one
``perf_counter`` clock for every recorded number in the repository.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Union

from repro.utils.timer import Timer

#: Default histogram resolution: 10 buckets per decade gives a relative
#: bucket width of 10^0.1 ~ 1.26, i.e. quantiles within ~12% of the true
#: value — plenty for latency work, and a whole trace fits in ~80 cells.
DEFAULT_BUCKETS_PER_DECADE = 10

Snapshot = Dict[str, object]


class LatencyHistogram:
    """A log-bucketed histogram of non-negative samples (usually seconds).

    Positive samples land in bucket ``floor(log10(value) * buckets_per
    decade)``; zeros (a clock that did not tick) are counted separately and
    sort below every bucket.  Exact ``count``/``sum``/``min``/``max`` are
    kept alongside, and quantiles are answered from the bucket cells: the
    representative of a bucket is its geometric midpoint, clamped into
    ``[min, max]`` so degenerate distributions (all samples equal) report
    exact quantiles.

    Example
    -------
    >>> histogram = LatencyHistogram()
    >>> for value in (0.001, 0.002, 0.004, 0.8):
    ...     histogram.observe(value)
    >>> histogram.count
    4
    >>> histogram.quantile(0.99) > 0.5
    True
    """

    __slots__ = ("buckets_per_decade", "count", "sum", "min", "max", "zeros", "buckets")

    def __init__(self, buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE) -> None:
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}"
            )
        self.buckets_per_decade = buckets_per_decade
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.zeros = 0
        # bucket index -> sample count; sparse, only touched cells exist.
        self.buckets: Dict[int, int] = {}

    # --------------------------------------------------------------- recording
    def observe(self, value: float) -> None:
        """Record one sample (negative values clamp to 0)."""
        if value < 0.0:
            value = 0.0
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value == 0.0:
            self.zeros += 1
            return
        index = math.floor(math.log10(value) * self.buckets_per_decade)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    # --------------------------------------------------------------- quantiles
    def _bucket_value(self, index: int) -> float:
        """Geometric midpoint of one bucket, clamped into [min, max]."""
        value = 10.0 ** ((index + 0.5) / self.buckets_per_decade)
        if self.min is not None and value < self.min:
            value = self.min
        if self.max is not None and value > self.max:
            value = self.max
        return value

    def quantile(self, q: float) -> Optional[float]:
        """Return the ``q``-quantile (0 < q <= 1), or ``None`` when empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if not self.count:
            return None
        rank = max(1, math.ceil(q * self.count))
        cumulative = self.zeros
        if rank <= cumulative:
            return 0.0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if rank <= cumulative:
                return self._bucket_value(index)
        return self.max

    @property
    def p50(self) -> Optional[float]:
        return self.quantile(0.50)

    @property
    def p95(self) -> Optional[float]:
        return self.quantile(0.95)

    @property
    def p99(self) -> Optional[float]:
        return self.quantile(0.99)

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    # ----------------------------------------------------------- export / fold
    def snapshot(self) -> Snapshot:
        """Plain-dict export (JSON/pickle-safe; bucket keys are strings)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "zeros": self.zeros,
            "buckets_per_decade": self.buckets_per_decade,
            "buckets": {str(index): count for index, count in sorted(self.buckets.items())},
        }

    @classmethod
    def from_snapshot(cls, snapshot: Snapshot) -> "LatencyHistogram":
        """Rebuild a histogram from a :meth:`snapshot` dict."""
        histogram = cls(int(snapshot["buckets_per_decade"]))
        histogram.merge(snapshot)
        return histogram

    def merge(self, other: "Union[LatencyHistogram, Snapshot]") -> "LatencyHistogram":
        """Fold another histogram (or its snapshot) into this one.

        Counts, sums and buckets add; min/max widen; quantiles are
        recomputed from the merged buckets on demand — so merging is
        associative and commutative, like summing sidecar hit counts.
        """
        if isinstance(other, LatencyHistogram):
            other = other.snapshot()
        if int(other["buckets_per_decade"]) != self.buckets_per_decade:
            raise ValueError(
                f"cannot merge histograms with different resolutions "
                f"({other['buckets_per_decade']} vs {self.buckets_per_decade} "
                f"buckets per decade)"
            )
        self.count += int(other["count"])
        self.sum += float(other["sum"])
        for edge, pick in (("min", min), ("max", max)):
            theirs = other[edge]
            if theirs is not None:
                mine = getattr(self, edge)
                setattr(
                    self, edge,
                    float(theirs) if mine is None else pick(mine, float(theirs)),
                )
        self.zeros += int(other["zeros"])
        for key, count in dict(other["buckets"]).items():
            index = int(key)
            self.buckets[index] = self.buckets.get(index, 0) + int(count)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram(count={self.count}, p50={self.p50}, "
            f"p99={self.p99})"
        )


class MetricsRegistry:
    """One process-local sink of counters, gauges and latency histograms.

    Every :class:`repro.engine.session.NedSession` owns (or is handed) one;
    the resolver, the sharded store, the matrix executor and the serving
    loop all write into it through plain names (``resolver.exact_batch_seconds``,
    ``shards.load_seconds``, ``serving.tick_seconds``, ...).  Registries are
    cheap — recording is a dict update — and always on; the spans of
    :mod:`repro.obs.tracing` are the opt-in layer.

    Example
    -------
    >>> registry = MetricsRegistry()
    >>> registry.inc("requests")
    >>> with registry.time("step_seconds"):
    ...     _ = sum(range(100))
    >>> snapshot = registry.snapshot()
    >>> snapshot["counters"]["requests"], snapshot["histograms"]["step_seconds"]["count"]
    (1, 1)
    """

    def __init__(self, buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE) -> None:
        self.buckets_per_decade = buckets_per_decade
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------- instruments
    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to a level reading (last write wins)."""
        self._gauges[name] = value

    def gauge(self, name: str) -> Optional[float]:
        """Current value of gauge ``name`` (``None`` when never set)."""
        return self._gauges.get(name)

    def histogram(self, name: str) -> LatencyHistogram:
        """Return (creating if needed) the histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = LatencyHistogram(self.buckets_per_decade)
            self._histograms[name] = histogram
        return histogram

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram ``name``."""
        self.histogram(name).observe(value)

    def time(self, name: str) -> Timer:
        """Context manager timing its body into the histogram ``name``.

        Returns a :class:`repro.utils.timer.Timer` whose exit hook feeds
        ``observe`` — the one ``perf_counter`` clock everywhere.
        """
        return Timer(into=self.histogram(name).observe)

    # ----------------------------------------------------------- export / fold
    def snapshot(self) -> Snapshot:
        """Plain-dict export of every instrument (JSON/pickle-safe)."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def merge(self, other: "Union[MetricsRegistry, Snapshot]") -> "MetricsRegistry":
        """Fold another registry (or an exported snapshot) into this one.

        Counters and histogram buckets add; gauges keep the maximum (a level
        reading's fold must not depend on arrival order — the peak is the
        one order-free summary).  This is the parent side of the
        workers-export/parent-folds protocol; it is associative and
        commutative, so any fold tree over the same snapshots agrees.
        """
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        for name, amount in dict(other.get("counters", {})).items():
            self.inc(name, amount)
        for name, value in dict(other.get("gauges", {})).items():
            mine = self._gauges.get(name)
            self._gauges[name] = value if mine is None else max(mine, value)
        for name, snapshot in dict(other.get("histograms", {})).items():
            self.histogram(name).merge(snapshot)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


def merge_snapshots(snapshots: Iterable[Snapshot]) -> Snapshot:
    """Fold many exported snapshots into one (the reduce step of a sweep).

    The metrics analogue of :func:`repro.ted.cache.merge_sidecars`:
    each worker exports ``registry.snapshot()``, the parent folds them all
    and reads one set of totals and quantiles.  Associative and
    commutative, like :meth:`MetricsRegistry.merge`.
    """
    folded = MetricsRegistry()
    for snapshot in snapshots:
        folded.merge(snapshot)
    return folded.snapshot()

"""Nested spans over the engine's execution — a no-op unless switched on.

A :class:`Tracer` answers *where one run's time went*: every instrumented
layer (session open/warm/close, plan execution, matrix passes, serving
ticks) wraps its work in ``with tracer.span(name, **attrs):`` and the
finished spans — name, start, elapsed, nesting depth, parent — accumulate on
the tracer (and stream to a JSONL sink when one is configured).  Spans nest
per thread, so a serving tick running ``execute_batch`` in a worker thread
gets its own well-formed stack.

The disabled tracer is the default and is genuinely free: ``span()`` returns
one shared null context manager — no object per call, no clock reads, no
record — which is what lets every session carry a tracer unconditionally
while the untraced path stays bit-identical *and* speed-identical to the
pre-obs engine.

Enabling
--------
* explicitly: ``NedSession(..., trace=True)`` / ``trace=Tracer(...)`` /
  ``trace="spans.jsonl"`` (a path enables the JSONL sink);
* process-wide: :func:`repro.obs.configure`;
* from the environment: ``REPRO_TRACE=1`` turns tracing on,
  ``REPRO_TRACE=/path/to/spans.jsonl`` also streams the spans there, and
  unset/``0``/``off`` leaves it disabled.  :func:`tracer_from_env` is read
  lazily at session construction, so tests can flip it per process.

Clock: spans use :data:`repro.utils.timer.clock` (``perf_counter``) — the
same monotonic source as :class:`repro.utils.timer.Timer` and the latency
histograms, so span durations and histogram samples are comparable.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.utils.timer import clock

#: Environment variable consulted when no tracer is configured explicitly.
TRACE_ENV_VAR = "REPRO_TRACE"

_FALSEY = ("", "0", "false", "off", "no")
_TRUTHY = ("1", "true", "on", "yes")


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: what ran, when, for how long, and under what."""

    name: str
    start: float
    elapsed: float
    depth: int
    parent: Optional[str]
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict export (one JSONL line)."""
        return {
            "name": self.name,
            "start": self.start,
            "elapsed": self.elapsed,
            "depth": self.depth,
            "parent": self.parent,
            "attrs": self.attrs,
        }


class _NullSpan:
    """The shared do-nothing context manager of a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """One live span of an enabled tracer (context manager)."""

    __slots__ = ("_tracer", "name", "attrs", "start", "_parent", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self.name)
        self.start = clock()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        elapsed = clock() - self.start
        self._tracer._stack().pop()
        self._tracer._record(
            SpanRecord(
                name=self.name,
                start=self.start,
                elapsed=elapsed,
                depth=self._depth,
                parent=self._parent,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Collects nested :class:`SpanRecord` spans; free when disabled.

    Parameters
    ----------
    enabled:
        When false (the default), :meth:`span` returns a shared null context
        manager and nothing is ever recorded.
    sink:
        Optional JSONL destination: a path (each finished span is appended
        as one JSON line; :meth:`close` flushes and closes the file) or a
        callable receiving each :class:`SpanRecord`.

    Example
    -------
    >>> tracer = Tracer(enabled=True)
    >>> with tracer.span("outer"):
    ...     with tracer.span("inner", detail=1):
    ...         pass
    >>> [(s.name, s.depth, s.parent) for s in tracer.spans]
    [('inner', 1, 'outer'), ('outer', 0, None)]
    """

    def __init__(
        self,
        enabled: bool = False,
        sink: "Optional[Union[str, Path, callable]]" = None,
    ) -> None:
        self.enabled = enabled
        self.spans: List[SpanRecord] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sink_callable = sink if callable(sink) else None
        self._sink_path = Path(sink) if (sink is not None and not callable(sink)) else None
        self._sink_file = None

    # ----------------------------------------------------------------- spans
    def span(self, name: str, **attrs: object):
        """Return a context manager tracing ``name`` (null when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, attrs)

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)
            if self._sink_callable is not None:
                self._sink_callable(record)
            elif self._sink_path is not None:
                if self._sink_file is None:
                    self._sink_path.parent.mkdir(parents=True, exist_ok=True)
                    self._sink_file = self._sink_path.open("a", encoding="utf-8")
                self._sink_file.write(json.dumps(record.as_dict()) + "\n")

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Flush and close the JSONL sink (if one was opened)."""
        with self._lock:
            if self._sink_file is not None:
                self._sink_file.close()
                self._sink_file = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --------------------------------------------------------------- reading
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate finished spans per name: count, total/mean/min/max."""
        result: Dict[str, Dict[str, float]] = {}
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            entry = result.get(span.name)
            if entry is None:
                result[span.name] = {
                    "count": 1,
                    "total": span.elapsed,
                    "min": span.elapsed,
                    "max": span.elapsed,
                }
            else:
                entry["count"] += 1
                entry["total"] += span.elapsed
                entry["min"] = min(entry["min"], span.elapsed)
                entry["max"] = max(entry["max"], span.elapsed)
        for entry in result.values():
            entry["mean"] = entry["total"] / entry["count"]
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(enabled={self.enabled}, spans={len(self.spans)})"


#: The shared disabled tracer handed to everything not explicitly traced.
NULL_TRACER = Tracer(enabled=False)


def tracer_from_env(environ: Optional[Dict[str, str]] = None) -> Tracer:
    """Build a tracer from ``REPRO_TRACE`` (disabled when unset/falsey).

    Truthy values (``1``/``true``/``on``/``yes``) enable in-memory tracing;
    anything else is treated as a JSONL sink path.
    """
    environ = os.environ if environ is None else environ
    value = environ.get(TRACE_ENV_VAR, "").strip()
    if value.lower() in _FALSEY:
        return NULL_TRACER
    if value.lower() in _TRUTHY:
        return Tracer(enabled=True)
    return Tracer(enabled=True, sink=value)


def coerce_tracer(trace: object) -> Optional[Tracer]:
    """Normalise a user-facing ``trace=`` value to a tracer (or ``None``).

    ``None`` means "no explicit choice" — the caller should fall back to the
    configured default and then the environment; ``True``/``False`` build an
    enabled/disabled tracer; a string or path enables the JSONL sink there.
    """
    if trace is None:
        return None
    if isinstance(trace, Tracer):
        return trace
    if trace is True:
        return Tracer(enabled=True)
    if trace is False:
        return NULL_TRACER
    if isinstance(trace, (str, Path)):
        return Tracer(enabled=True, sink=trace)
    raise TypeError(
        f"trace must be a Tracer, bool, path or None, got {type(trace).__name__}"
    )

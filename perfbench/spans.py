"""Spans around the program's public boundaries, recorded from outside.

The traced run patches a fixed set of public functions and methods with thin
wrappers that record one span per call: name, start, end, parent span and
request id.  Spans stay in memory until the run ends.  Nothing inside
``src/`` changes; the untraced run installs no wrapper at all.

Per-pair work (the resolver's bound tiers, hundreds of thousands of calls in
a ``served_mix`` run) is deliberately *not* wrapped: its cost is read from the
program's own always-on latency histograms instead.
"""

from __future__ import annotations

import functools
import importlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from common import clock


#: Spans around calls whose last argument is a pair block; they record its size.
BLOCK_SPANS = ("ted.batch", "ted.resolver.exact_many")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for a root
    request: Optional[int]
    pairs: int = 0


class SpanRecorder:
    """In-memory span sink with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._guard = threading.Lock()

    # ----------------------------------------------------------- recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: Optional[int]) -> None:
        """Tag every span this thread opens from now on with ``request``."""
        self._local.request = request

    @contextmanager
    def span(self, name: str, pairs: int = 0) -> Iterator[None]:
        stack = self._stack()
        record = Span(
            name, clock(), 0.0, stack[-1] if stack else -1,
            getattr(self._local, "request", None), pairs,
        )
        with self._guard:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record.end = clock()
            stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> None:
        """Record a finished span under ``parent``, opened on another thread."""
        with self._guard:
            self.spans.append(Span(name, start, end, parent, self.spans[parent].request))

    def enclosing(self, name: str) -> int:
        """Index of the innermost span called ``name`` open on this thread."""
        for index in reversed(self._stack()):
            if self.spans[index].name == name:
                return index
        raise LookupError(f"no open {name!r} span on this thread")

    # ------------------------------------------------------------- patching
    def wrapper(self, name: str, func, count_pairs: bool = False):
        """A span-recording stand-in for the synchronous ``func``."""
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            pairs = len(args[-1]) if count_pairs and args else 0
            with recorder.span(name, pairs):
                return func(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self, targets: Sequence[Tuple[str, str, str]]) -> Iterator[None]:
        """Patch every ``(module:Owner, attribute, span name)`` while active.

        ``module:Owner`` names a class to patch a method on; a bare module
        path patches a module-level function (the name callers look up).
        Patched attributes are restored on exit, even after an error.
        """
        saved = []
        try:
            for owner_path, attribute, span_name in targets:
                owner = resolve_owner(owner_path)
                original = owner.__dict__[attribute]
                saved.append((owner, attribute, original))
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrapper(span_name, original.__func__))
                else:
                    patched = self.wrapper(
                        span_name, original, count_pairs=span_name in BLOCK_SPANS
                    )
                setattr(owner, attribute, patched)
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------- analysis
    def window(self, start: float, end: float) -> List[Span]:
        """Spans that started inside ``[start, end]``."""
        return [span for span in self.spans if start <= span.start <= end]


def resolve_owner(path: str):
    module_path, _, owner = path.partition(":")
    module = importlib.import_module(module_path)
    return getattr(module, owner) if owner else module


# ----------------------------------------------------------------- self time
def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def layer_times(spans: Sequence[Span], all_spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, ``total`` duration, ``self`` time, ``pairs``.

    Self time is duration minus the part of it covered by the span's own
    children.  ``all_spans`` is the recorder's full list (parents index it).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in all_spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    index_of = {id(span): index for index, span in enumerate(all_spans)}
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = table.setdefault(span.name, {"count": 0, "total": 0.0, "self": 0.0, "pairs": 0})
        duration = span.end - span.start
        covered = _union(children.get(index_of[id(span)], ()))
        entry["count"] += 1
        entry["total"] += duration
        entry["self"] += duration - covered
        entry["pairs"] += span.pairs
    return table


def root_coverage(spans: Sequence[Span]) -> float:
    """Wall time covered by root spans (the part the trace attributes)."""
    return _union((span.start, span.end) for span in spans if span.parent < 0)


# ------------------------------------------------------------------ targets
#: The engine's public boundaries, outermost first: ``(owner, attribute,
#: span name)``.  Each is one coarse call per plan, per block or per build.
ENGINE_TARGETS = (
    ("repro.engine.session:NedSession", "execute_batch", "engine.session.execute_batch"),
    ("repro.engine.session:NedSession", "execute", "engine.session.execute"),
    ("repro.engine.session:NedSession", "probe", "engine.tree_store.probe"),
    ("repro.engine.search:NedSearchEngine", "knn", "engine.search.query"),
    ("repro.engine.search:NedSearchEngine", "top_l_candidates", "engine.search.query"),
    ("repro.engine.matrix", "build_matrix_with_resolver", "engine.matrix.build"),
    ("repro.ted.resolver:BoundedNedDistance", "exact_many", "ted.resolver.exact_many"),
    ("repro.ted.batch:BatchTedKernel", "ted_star_block", "ted.batch"),
    ("repro.engine.tree_store:TreeStore", "from_graph", "engine.tree_store.build"),
    ("repro.engine.tree_store:TreeStore", "save", "engine.tree_store.save"),
)
#: The client's half of the wire protocol (names as the client module binds them).
CLIENT_TARGETS = (
    ("repro.serving.client", "encode_request", "serving.protocol.client"),
    ("repro.serving.client", "decode_response", "serving.protocol.client"),
)
#: The server process: its half of the protocol, request handling, worker
#: dispatch, and the engine underneath.
SERVER_TARGETS = (
    ("repro.serving.server", "decode_request", "serving.protocol.server"),
    ("repro.serving.server", "encode_result", "serving.protocol.server"),
    ("repro.serving.server:NedServiceServer", "handle_plans", "serving.server.request"),
    ("repro.serving.workers:SharedWorkerPool", "__call__", "serving.workers.dispatch"),
) + ENGINE_TARGETS

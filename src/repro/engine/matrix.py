"""Chunked NED distance-matrix computation over tree stores.

Builds full pairwise (one store) or cross (two stores) distance matrices —
the workhorse behind kNN-for-every-node sweeps and de-anonymization runs.
Every build takes the route point queries take: the bound survey settles
what it can, and the open cells go through one
:meth:`~repro.ted.resolver.BoundedNedDistance.resolve_many` call — cache
lookups, within-build dedup, then exact TED* in
:meth:`~repro.ted.resolver.BoundedNedDistance.exact_many` blocks of
``chunk_size`` pairs, each offered to the resolver's attached block
dispatcher, else the batch kernel, else per-pair ``ted_star``.  Three
orthogonal knobs:

* ``executor`` — where the exact blocks run.  ``"serial"`` evaluates them
  in process.  ``"process"`` attaches, for the build's duration, a
  :class:`repro.serving.workers.SharedWorkerPool` of ``max_workers``
  processes (default ``os.cpu_count()``) over the row store exported once
  into shared memory — or reuses the dispatcher a served session already
  has.  The pool restarts itself after a worker death while the session's
  retry budget lasts (``executor.pool_restarts``); past that, or when it
  cannot start at all (restricted sandboxes), it declines every later
  block, the resolver evaluates those locally, and ``executor_used``
  records the fallback.  Only blocks not yet returned are recomputed.
* ``mode`` — ``"exact"`` evaluates every pair; ``"bound-prune"`` first
  bounds each pair with the :class:`repro.ted.resolver.BoundedNedDistance`
  cascade (signature → level-size → degree-multiset), run as one numpy
  :meth:`~repro.ted.resolver.BoundedNedDistance.survey` per row (or
  column): a tier that pins the distance forces it outright, and (when a
  ``threshold`` is given) a lower bound above the threshold marks the pair
  ``inf`` without ever computing it — the data-skipping move: answer from
  the summary, touch the expensive evaluation only when forced.  The
  session's ``tiers`` restrict the cascade for ablations (e.g. level-size
  only).  With the batch kernel active, ``"exact"`` builds take the survey
  too where it pins every pair (k ≤ 3 with the degree tier on, see
  :attr:`~repro.ted.resolver.BoundedNedDistance.closed_form`): those builds
  never reach the cache, the kernel or the executor.  ``batch=False``
  sessions evaluate every exact-mode pair with per-pair TED*.
* ``cache_size`` — a session setting: capacity of the signature-keyed
  distance cache (0 disables every signature-based shortcut, including
  within-build dedup).  TED* depends only on the isomorphism classes of the
  two trees, so duplicate signature pairs within one build are computed once
  and fanned out, however small the cache.

All distance resolution runs through a :class:`repro.engine.session.NedSession`,
the one place the resolver is configured: the module-level functions open a
default session per build, and long-lived callers open one session
themselves and run :class:`~repro.engine.session.PairwiseMatrixPlan` /
:class:`~repro.engine.session.CrossMatrixPlan` through it, sharing the warm
resolver (and its sidecar lifecycle) across builds and search queries alike.

All modes and executors return identical values for every finite entry;
they only differ in how many exact TED* computations are paid for (reported
per tier in ``stats``) and where those computations run.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import DistanceError
from repro.engine.shards import ShardedTreeStore
from repro.engine.stats import EngineStats
from repro.engine.tree_store import TreeStore
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.ted.resolver import BoundedNedDistance
from repro.utils.timer import clock

Node = Hashable

#: Either store flavour works: the builders only touch the shared surface
#: (``k``, ``entries()``, ``packed_parent_arrays()``).
StoreLike = Union[TreeStore, ShardedTreeStore]

MODES = ("exact", "bound-prune")
EXECUTORS = ("serial", "process")


@dataclass
class MatrixResult:
    """A computed distance matrix plus how it was computed.

    ``values[i][j]`` is the NED distance between ``row_nodes[i]`` and
    ``col_nodes[j]`` (``inf`` for pairs pruned by a ``threshold``).
    ``row_index`` / ``col_index`` map nodes back to their positions, so
    per-pair lookups (:meth:`value`) and per-row rankings are O(1)/O(n)
    instead of the O(n) / O(n²) a ``list.index`` scan would cost.  Each is
    built on first use: most results are read by position and never need
    them.
    """

    row_nodes: List[Node]
    col_nodes: List[Node]
    values: List[List[float]]
    mode: str
    executor: str
    executor_used: str
    stats: EngineStats = field(default_factory=EngineStats)

    @cached_property
    def row_index(self) -> Dict[Node, int]:
        """Each row node's position."""
        return {node: i for i, node in enumerate(self.row_nodes)}

    @cached_property
    def col_index(self) -> Dict[Node, int]:
        """Each column node's position."""
        return {node: j for j, node in enumerate(self.col_nodes)}

    def value(self, row_node: Node, col_node: Node) -> float:
        """Return the entry for a (row node, column node) pair in O(1)."""
        return self.values[self.row_index[row_node]][self.col_index[col_node]]

    def row(self, row_node: Node) -> List[float]:
        """Return the full row of distances of ``row_node``."""
        return self.values[self.row_index[row_node]]


def pairwise_distance_matrix(
    store: StoreLike,
    mode: str = "exact",
    executor: str = "serial",
    chunk_size: int = 64,
    max_workers: Optional[int] = None,
    threshold: Optional[float] = None,
) -> MatrixResult:
    """Return the symmetric all-pairs NED matrix of one store.

    Only the upper triangle is evaluated (NED is symmetric); the diagonal is
    0 by the identity property, both for free.  The build runs through a
    default :class:`repro.engine.session.NedSession` opened for it; open a
    session yourself (:meth:`~repro.engine.session.NedSession.pairwise_matrix`)
    to configure the resolver or share warm state across builds and
    processes.  ``store`` may be a dense :class:`TreeStore` or a
    :class:`repro.engine.shards.ShardedTreeStore`.
    """
    from repro.engine.session import NedSession, PairwiseMatrixPlan

    plan = PairwiseMatrixPlan(mode=mode, threshold=threshold, chunk_size=chunk_size)
    with NedSession(store, executor=executor, max_workers=max_workers) as session:
        return session.execute(plan)


def cross_distance_matrix(
    row_store: StoreLike,
    col_store: StoreLike,
    mode: str = "exact",
    executor: str = "serial",
    chunk_size: int = 64,
    max_workers: Optional[int] = None,
    threshold: Optional[float] = None,
) -> MatrixResult:
    """Return the rows × columns NED matrix between two stores.

    This is the de-anonymization shape — one store of training candidates,
    one of anonymised nodes, every pair evaluated.  The matrix takes
    whatever orientation the argument order gives it; the matrix-driven
    sweep (:func:`repro.anonymize.deanonymize.top_l_from_matrix`) expects
    training candidates in *rows* and anonymised nodes in *columns*, i.e.
    ``cross_distance_matrix(training_store, anon_store)``.  Like
    :func:`pairwise_distance_matrix`, it opens a default session.
    """
    from repro.engine.session import CrossMatrixPlan, NedSession

    plan = CrossMatrixPlan(
        col_store=col_store, mode=mode, threshold=threshold, chunk_size=chunk_size
    )
    with NedSession(row_store, executor=executor, max_workers=max_workers) as session:
        return session.execute(plan)


def build_matrix_with_resolver(
    row_store: StoreLike,
    col_store: StoreLike,
    symmetric: bool,
    mode: str,
    executor: str,
    chunk_size: int,
    max_workers: Optional[int],
    threshold: Optional[float],
    resolver: BoundedNedDistance,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    faults=None,
    retry=None,
) -> MatrixResult:
    """Build one matrix against an already-constructed (warm) resolver.

    This is the execution core behind
    :class:`repro.engine.session.PairwiseMatrixPlan` /
    :class:`~repro.engine.session.CrossMatrixPlan`; the resolver supplies the
    bound tiers, the distance cache and the matching backend, and keeps its
    own running counters — only this build's counter deltas land in the
    result's ``stats``.

    ``tracer`` adds ``matrix.survey`` / ``matrix.exact`` spans around the
    two passes; ``metrics`` collects per-block timings
    (``executor.chunk_seconds`` / ``executor.chunks``) and, under
    ``executor="process"``, the worker pool's dispatch counters.

    ``faults`` (a :class:`repro.resilience.FaultPlan`) activates the
    ``"executor.dispatch"`` site in the worker pool a ``"process"`` build
    starts; ``retry`` (a :class:`repro.resilience.RetryPolicy`) gives that
    pool its restart budget (``executor.pool_restarts``) before it falls
    back to local evaluation (``serving.dispatch_fallbacks``).  Both warn
    with the original error; values are identical on every path.
    """
    if mode not in MODES:
        raise DistanceError(f"unknown matrix mode {mode!r}; expected one of {MODES}")
    if executor not in EXECUTORS:
        raise DistanceError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    if chunk_size < 1:
        raise DistanceError(f"chunk_size must be >= 1, got {chunk_size}")
    if threshold is not None and threshold < 0:
        raise DistanceError(f"threshold must be non-negative, got {threshold}")
    tracer = NULL_TRACER if tracer is None else tracer

    rows = row_store.entries()
    cols = col_store.entries()
    stats = EngineStats()
    counter_snapshot = resolver.counters.copy()

    with tracer.span("matrix.survey", rows=len(rows), cols=len(cols)):
        if mode == "bound-prune" or (resolver.batch_active and resolver.closed_form):
            # The bound tiers for a whole row (or column) per array pass;
            # only the pairs the survey leaves open reach resolve_many.
            values, cells = _survey_cells(
                resolver, row_store, col_store, rows, cols, symmetric,
                threshold if mode == "bound-prune" else None,
            )
        else:
            values = [[0.0] * len(cols) for _ in rows]
            cells = [
                (i, j)
                for i in range(len(rows))
                for j in range(i + 1 if symmetric else 0, len(cols))
            ]
    stats.pairs_considered = (
        len(rows) * (len(rows) - 1) // 2 if symmetric else len(rows) * len(cols)
    )

    def evaluate(block):
        # One exact block of the build; timed as an executor chunk.
        if metrics is None:
            return resolver.exact_many(block)
        started = clock()
        block_values = resolver.exact_many(block)
        metrics.observe("executor.chunk_seconds", clock() - started)
        metrics.inc("executor.chunks")
        return block_values

    # Open cells: the cache with within-build dedup, then exact blocks
    # through the attached dispatcher.
    with _dispatcher(
        executor, row_store, resolver, max_workers, metrics, faults, retry
    ) as dispatcher:
        with tracer.span("matrix.exact", pairs=len(cells)):
            resolved = resolver.resolve_many(
                [(rows[i], cols[j]) for i, j in cells],
                block_size=chunk_size,
                evaluate=evaluate,
            )
    for (i, j), (value, _) in zip(cells, resolved):
        values[i][j] = value

    # Fold only this build's counter deltas into the result's stats (the
    # resolver keeps its own session-lifetime totals).
    stats.merge(resolver.counters.since(counter_snapshot))

    executor_used = executor
    failure = getattr(dispatcher, "failure", None)
    if failure is not None:
        executor_used = f"serial (fallback: {type(failure).__name__})"
    elif executor == "serial" and resolver.batch_active and stats.exact_evaluations:
        executor_used = "serial[batch]"

    if symmetric:
        for i in range(len(rows)):
            for j in range(i + 1, len(cols)):
                values[j][i] = values[i][j]

    return MatrixResult(
        row_nodes=row_store.nodes(),
        col_nodes=col_store.nodes(),
        values=values,
        mode=mode,
        executor=executor,
        executor_used=executor_used,
        stats=stats,
    )


@contextmanager
def _dispatcher(
    executor: str,
    row_store: StoreLike,
    resolver: BoundedNedDistance,
    max_workers: Optional[int],
    metrics: Optional[MetricsRegistry],
    faults,
    retry,
) -> Iterator[Any]:
    """The worker pool a ``"process"`` build runs under (``None`` if serial).

    Serial builds leave the resolver as it is (a served session's pool
    still takes their blocks).  Process builds reuse a dispatcher the
    resolver already has; otherwise they attach a
    :class:`~repro.serving.workers.SharedWorkerPool` over the row store for
    the build's duration.  The pool exports and forks at its first block,
    so builds the survey or the cache settle never start a process.
    """
    if executor == "serial":
        yield None
        return
    attached = resolver.block_dispatcher
    if attached is not None:
        yield attached
        return
    from repro.serving.workers import SharedWorkerPool

    pool = SharedWorkerPool(
        None,
        row_store,
        workers=max_workers or os.cpu_count() or 1,
        backend=resolver.matching_backend,
        metrics=metrics,
        min_pairs=1,
        restarts=0 if retry is None else retry.attempts_for("executor.dispatch") - 1,
        faults=faults,
    )
    resolver.attach_block_dispatcher(pool)
    try:
        yield pool
    finally:
        resolver.attach_block_dispatcher(None)
        pool.close()


def _survey_cells(
    resolver: BoundedNedDistance,
    row_store: StoreLike,
    col_store: StoreLike,
    rows: Sequence,
    cols: Sequence,
    symmetric: bool,
    threshold: Optional[float],
) -> Tuple[List[List[float]], List[Tuple[int, int]]]:
    """Fill a matrix from bound surveys; return it and the open cells.

    One :meth:`BoundedNedDistance.survey` per row against the columns (the
    upper triangle for a symmetric build), or per column against the rows
    when there are fewer columns, so each survey covers the longer side.
    Bounds are symmetric, so the orientation changes neither intervals nor
    counters.  Cells beyond ``threshold`` become ``inf`` (credited as
    pruned) and closed cells take their value (credited as decided); the
    open cells come back in row-major order for the cache and exact tiers.
    """
    import numpy as np

    grid = np.zeros((len(rows), len(cols)))
    opened: List[Tuple[int, int]] = []
    transposed = not symmetric and len(cols) < len(rows)
    probes, candidates, store = (
        (cols, rows, row_store) if transposed else (rows, cols, col_store)
    )
    for index, probe in enumerate(probes):
        start = index + 1 if symmetric else 0
        if start == len(candidates):
            break  # the last row of a symmetric build has no upper triangle
        survey = resolver.survey(probe, store, start=start)
        if threshold is None:
            pruned = np.zeros(len(survey), dtype=bool)
        else:
            pruned = survey.lower > threshold
        closed = survey.closed & ~pruned
        resolver.record_pruned_many(survey, pruned)
        resolver.record_decided_many(survey, closed)
        line = np.where(pruned, math.inf, survey.lower)
        others = (np.flatnonzero(~(pruned | closed)) + start).tolist()
        if transposed:
            grid[:, index] = line
            opened.extend((other, index) for other in others)
        else:
            grid[index, start:] = line
            opened.extend((index, other) for other in others)
    if transposed:
        opened.sort()
    return grid.tolist(), opened


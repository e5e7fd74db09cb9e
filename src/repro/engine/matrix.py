"""Chunked NED distance-matrix computation over tree stores.

Builds full pairwise (one store) or cross (two stores) distance matrices —
the workhorse behind kNN-for-every-node sweeps and de-anonymization runs —
with three orthogonal knobs:

* ``executor`` — how exact TED* evaluations run.  ``"serial"`` computes in
  process straight from the store entries.  ``"process"`` runs a
  :class:`concurrent.futures.ProcessPoolExecutor` whose *worker initializer*
  materializes the two stores once per worker (the packed parent arrays
  cross the process boundary a single time, via ``initargs``); after that,
  chunks are plain ``(i, j)`` index pairs, so per-chunk serialization is a
  few integers instead of whole trees.  A callable
  ``executor(chunks) -> iterable of result lists`` plugs in custom
  strategies (those receive the legacy self-contained chunks carrying
  parent arrays).  When a process pool cannot be created or breaks mid-run
  (restricted sandboxes, killed workers), the build degrades to serial for
  *only the chunks that have not yet yielded* and records that in
  ``executor_used``.
* ``mode`` — ``"exact"`` evaluates every pair; ``"bound-prune"`` first runs
  each pair through the :class:`repro.ted.resolver.BoundedNedDistance`
  cascade (signature → level-size → degree-multiset): a tier that pins the
  distance forces it outright, and (when a ``threshold`` is given) a lower
  bound above the threshold marks the pair ``inf`` without ever computing
  it — the data-skipping move: answer from the summary, touch the expensive
  evaluation only when forced.  ``tiers`` restricts the cascade for
  ablations (e.g. level-size only).  With the batch kernel active, the
  cascade runs as one :meth:`~repro.ted.resolver.BoundedNedDistance.survey`
  per row (or column) instead of per cell, and ``"exact"`` builds take the
  survey too where it pins every pair (k ≤ 3 with the degree tier on, see
  :attr:`~repro.ted.resolver.BoundedNedDistance.closed_form`): those builds
  never reach the cache, the kernel or the executor.  ``batch=False``
  sessions keep the per-cell loop and per-pair TED*, the reference path.
* ``cache_size`` — capacity of the signature-keyed distance cache (the
  session default, :data:`repro.ted.resolver.DEFAULT_CACHE_SIZE`, unless
  overridden; 0 disables every signature-based shortcut, including
  within-build dedup).  TED* depends only on the isomorphism classes of the
  two trees, so duplicate signature pairs within one build are computed once
  and fanned out.

All distance resolution runs through a :class:`repro.engine.session.NedSession`:
the module-level functions open an ephemeral session per build, and
long-lived callers open one session themselves and run
:class:`~repro.engine.session.PairwiseMatrixPlan` /
:class:`~repro.engine.session.CrossMatrixPlan` through it, sharing the warm
resolver (and its sidecar lifecycle) across builds and search queries alike.
The ``backend`` / ``tiers`` / ``cache_size`` / ``cache_file`` parameters
here configure the ephemeral session and are deprecated in favour of
session-level configuration; ``resolver=`` shares an externally owned
resolver directly (its configuration wins).

All modes and executors return identical values for every finite entry;
they only differ in how many exact TED* computations are paid for (reported
per tier in ``stats``) and where those computations run.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import DistanceError
from repro.engine.shards import ShardedTreeStore
from repro.engine.stats import EngineStats
from repro.engine.tree_store import TreeStore
from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
from repro.resilience.faults import ResilienceWarning
from repro.ted.resolver import BoundedNedDistance
from repro.ted.ted_star import ted_star
from repro.trees.tree import Tree
from repro.utils.timer import clock

Node = Hashable

#: Either store flavour works: the builders only touch the shared surface
#: (``k``, ``entries()``, ``packed_parent_arrays()``).
StoreLike = Union[TreeStore, ShardedTreeStore]
PathLike = Union[str, Path]

MODES = ("exact", "bound-prune")
#: Shortest row (or column) a matrix build bounds with one store survey; a
#: survey costs about as much as four per-pair ``bounds()`` calls whatever
#: its length, so shorter lines run the per-pair cascade.
MIN_SURVEY_LINE = 4
EXECUTORS = ("serial", "process")

# One legacy chunk of exact work, self-contained for custom executors:
# (k, backend, [(parent_array_a, parent_array_b), ...]).
Chunk = Tuple[int, str, List[Tuple[List[int], List[int]]]]
ExecutorFn = Callable[[List[Chunk]], Iterable[List[float]]]

# One index chunk of exact work for the built-in executors: [(i, j), ...].
IndexChunk = List[Tuple[int, int]]


@dataclass
class MatrixResult:
    """A computed distance matrix plus how it was computed.

    ``values[i][j]`` is the NED distance between ``row_nodes[i]`` and
    ``col_nodes[j]`` (``inf`` for pairs pruned by a ``threshold``).
    ``row_index`` / ``col_index`` map nodes back to their positions, so
    per-pair lookups (:meth:`value`) and per-row rankings are O(1)/O(n)
    instead of the O(n) / O(n²) a ``list.index`` scan would cost.
    """

    row_nodes: List[Node]
    col_nodes: List[Node]
    values: List[List[float]]
    mode: str
    executor: str
    executor_used: str
    stats: EngineStats = field(default_factory=EngineStats)
    row_index: Dict[Node, int] = field(init=False, repr=False)
    col_index: Dict[Node, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.row_index = {node: i for i, node in enumerate(self.row_nodes)}
        self.col_index = {node: j for j, node in enumerate(self.col_nodes)}

    def value(self, row_node: Node, col_node: Node) -> float:
        """Return the entry for a (row node, column node) pair in O(1)."""
        return self.values[self.row_index[row_node]][self.col_index[col_node]]

    def row(self, row_node: Node) -> List[float]:
        """Return the full row of distances of ``row_node``."""
        return self.values[self.row_index[row_node]]


def _compute_chunk(chunk: Chunk) -> List[float]:
    """Evaluate one legacy self-contained chunk (for custom executors)."""
    k, backend, pairs = chunk
    return [
        ted_star(Tree(parents_a), Tree(parents_b), k=k, backend=backend)
        for parents_a, parents_b in pairs
    ]


# Per-worker state installed by _init_worker; module-global because process
# pool initializers cannot return values to the tasks they precede.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    row_parents: List[List[int]],
    col_parents: Optional[List[List[int]]],
    k: int,
    backend: str,
) -> None:
    """Materialize the two stores once per worker process.

    ``col_parents is None`` means rows and columns come from the same store
    (the symmetric pairwise build), so the trees are shared instead of
    rebuilt.
    """
    rows = [Tree(parents) for parents in row_parents]
    cols = rows if col_parents is None else [Tree(parents) for parents in col_parents]
    _WORKER_STATE["rows"] = rows
    _WORKER_STATE["cols"] = cols
    _WORKER_STATE["k"] = k
    _WORKER_STATE["backend"] = backend


def _compute_index_chunk(pairs: IndexChunk) -> List[float]:
    """Evaluate one chunk of (i, j) pairs against the worker-side stores."""
    rows: List[Tree] = _WORKER_STATE["rows"]  # type: ignore[assignment]
    cols: List[Tree] = _WORKER_STATE["cols"]  # type: ignore[assignment]
    k: int = _WORKER_STATE["k"]  # type: ignore[assignment]
    backend: str = _WORKER_STATE["backend"]  # type: ignore[assignment]
    return [ted_star(rows[i], cols[j], k=k, backend=backend) for i, j in pairs]


def _compute_index_chunk_obs(pairs: IndexChunk) -> Tuple[List[float], Dict[str, object]]:
    """Like :func:`_compute_index_chunk`, plus a worker metrics export.

    Runs in the worker process: times the chunk into a throwaway registry,
    tags it with the worker's pid, and ships ``(values, snapshot)`` back —
    the parent folds the snapshot into its own registry
    (:meth:`MetricsRegistry.merge`), the same workers-export/parent-folds
    protocol the distance-cache sidecars use.
    """
    registry = MetricsRegistry()
    with registry.time("executor.chunk_seconds"):
        values = _compute_index_chunk(pairs)
    registry.inc("executor.chunks")
    registry.inc(f"executor.worker.{os.getpid()}.chunks")
    return values, registry.snapshot()


def _timed_chunk(
    metrics: Optional[MetricsRegistry],
    tree_pairs: List[Tuple[Tree, Tree]],
    k: int,
    backend: str,
) -> List[float]:
    """Evaluate one in-process chunk, timing it when a registry is attached."""
    if metrics is None:
        return [ted_star(a, b, k=k, backend=backend) for a, b in tree_pairs]
    started = clock()
    block = [ted_star(a, b, k=k, backend=backend) for a, b in tree_pairs]
    metrics.observe("executor.chunk_seconds", clock() - started)
    metrics.inc("executor.chunks")
    return block


def pairwise_distance_matrix(
    store: StoreLike,
    mode: str = "exact",
    executor: "str | ExecutorFn" = "serial",
    backend: str = "auto",
    chunk_size: int = 64,
    max_workers: Optional[int] = None,
    threshold: Optional[float] = None,
    tiers: Optional[Sequence[str]] = None,
    cache_size: Optional[int] = None,
    resolver: Optional[BoundedNedDistance] = None,
    cache_file: Optional[PathLike] = None,
) -> MatrixResult:
    """Return the symmetric all-pairs NED matrix of one store.

    Only the upper triangle is evaluated (NED is symmetric); the diagonal is
    0 by the identity property, both for free.  Without a ``resolver`` the
    build opens an ephemeral :class:`repro.engine.session.NedSession`
    configured by ``backend``/``tiers``/``cache_size``/``cache_file`` (all
    deprecated here — open a session yourself to share warm state across
    builds); ``cache_size=None`` means the session default (cache on).  Pass
    an externally owned ``resolver`` (its ``k`` must match the store's) to
    share its distance cache across builds — repeated sweeps over
    overlapping stores then pay for each distinct signature pair once.
    ``store`` may be a dense :class:`TreeStore` or a
    :class:`repro.engine.shards.ShardedTreeStore`.

    ``cache_file`` persists the exact-distance cache across *processes*: if
    the sidecar exists it warms the resolver before the build (pairs a
    previous run already computed cost nothing), and the cache is saved back
    on completion.
    """
    return _matrix_entry(
        store, store, symmetric=True, mode=mode, executor=executor, backend=backend,
        chunk_size=chunk_size, max_workers=max_workers, threshold=threshold,
        tiers=tiers, cache_size=cache_size, resolver=resolver, cache_file=cache_file,
    )


def cross_distance_matrix(
    row_store: StoreLike,
    col_store: StoreLike,
    mode: str = "exact",
    executor: "str | ExecutorFn" = "serial",
    backend: str = "auto",
    chunk_size: int = 64,
    max_workers: Optional[int] = None,
    threshold: Optional[float] = None,
    tiers: Optional[Sequence[str]] = None,
    cache_size: Optional[int] = None,
    resolver: Optional[BoundedNedDistance] = None,
    cache_file: Optional[PathLike] = None,
) -> MatrixResult:
    """Return the rows × columns NED matrix between two stores.

    This is the de-anonymization shape — one store of training candidates,
    one of anonymised nodes, every pair evaluated.  The matrix takes
    whatever orientation the argument order gives it; the matrix-driven
    sweep (:func:`repro.anonymize.deanonymize.top_l_from_matrix`) expects
    training candidates in *rows* and anonymised nodes in *columns*, i.e.
    ``cross_distance_matrix(training_store, anon_store)``.  ``resolver``
    shares a distance cache across builds and ``cache_file`` persists it
    across processes, as in :func:`pairwise_distance_matrix`.
    """
    if row_store.k != col_store.k:
        raise DistanceError(
            f"stores disagree on k ({row_store.k} vs {col_store.k}); "
            "NED values would not be comparable"
        )
    return _matrix_entry(
        row_store, col_store, symmetric=False, mode=mode, executor=executor,
        backend=backend, chunk_size=chunk_size, max_workers=max_workers,
        threshold=threshold, tiers=tiers, cache_size=cache_size, resolver=resolver,
        cache_file=cache_file,
    )


def _matrix_entry(
    row_store: StoreLike,
    col_store: StoreLike,
    symmetric: bool,
    mode: str,
    executor: "str | ExecutorFn",
    backend: str,
    chunk_size: int,
    max_workers: Optional[int],
    threshold: Optional[float],
    tiers: Optional[Sequence[str]],
    cache_size: Optional[int],
    resolver: Optional[BoundedNedDistance],
    cache_file: Optional[PathLike],
) -> MatrixResult:
    """Route one module-level build through a session or a shared resolver."""
    if resolver is not None:
        # Shared-resolver path: the caller owns the warm state (and its
        # configuration), so the session cannot manage the sidecar for it.
        # The inline lifecycle here is deliberately narrower than the
        # session's: warm_from (merge into possibly non-empty cache, hits
        # arrive cold) instead of load_cache (adopt), and save only on
        # successful completion — a caller-owned resolver's partial state is
        # the caller's to persist.  Callers who want the session lifecycle
        # open a NedSession and share it instead of a bare resolver.
        if resolver.k != row_store.k:
            raise DistanceError(
                f"shared resolver was built with k={resolver.k}, "
                f"expected k={row_store.k}"
            )
        if cache_file is not None and resolver.cache_size == 0:
            raise DistanceError(
                "cache_file needs the distance cache: pass a cache_size > 0 "
                "(or a resolver whose cache is enabled)"
            )
        if cache_file is not None and Path(cache_file).exists():
            resolver.warm_from(cache_file)
        result = build_matrix_with_resolver(
            row_store, col_store, symmetric=symmetric, mode=mode,
            executor=executor, chunk_size=chunk_size, max_workers=max_workers,
            threshold=threshold, resolver=resolver,
        )
        if cache_file is not None:
            resolver.save_cache(cache_file)
        return result

    from repro.engine.session import CrossMatrixPlan, NedSession, PairwiseMatrixPlan

    # cache_file + cache_size=0 is rejected by the session constructor (the
    # resolver branch above enforces the analogous rule for externally owned
    # resolvers, whose cache configuration the session never sees).
    session = NedSession(
        row_store, backend=backend, tiers=tiers, cache_size=cache_size,
        cache_file=cache_file, executor=executor, max_workers=max_workers,
    )
    with session:
        if symmetric:
            plan = PairwiseMatrixPlan(
                mode=mode, threshold=threshold, chunk_size=chunk_size
            )
        else:
            plan = CrossMatrixPlan(
                col_store=col_store, mode=mode, threshold=threshold,
                chunk_size=chunk_size,
            )
        return session.execute(plan)


def build_matrix_with_resolver(
    row_store: StoreLike,
    col_store: StoreLike,
    symmetric: bool,
    mode: str,
    executor: "str | ExecutorFn",
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
    two passes; ``metrics`` collects per-chunk executor timings
    (``executor.chunk_seconds``) — the process executor's workers export
    their own measurements and this build folds them in.

    ``faults`` (a :class:`repro.resilience.FaultPlan`) activates the
    ``"executor.dispatch"`` site inside the built-in process dispatch;
    ``retry`` (a :class:`repro.resilience.RetryPolicy`) lets a broken
    process pool be *restarted* for the remaining chunks
    (``executor.pool_restarts``) before the serial fallback
    (``executor.serial_fallbacks``) takes over.  Both fallbacks warn with
    the original error; values are identical on every path.
    """
    if mode not in MODES:
        raise DistanceError(f"unknown matrix mode {mode!r}; expected one of {MODES}")
    if chunk_size < 1:
        raise DistanceError(f"chunk_size must be >= 1, got {chunk_size}")
    if threshold is not None and threshold < 0:
        raise DistanceError(f"threshold must be non-negative, got {threshold}")
    executor_name = _executor_name(executor)
    # Per-pair consumers (process workers, custom executors, the serial
    # fallback) need a matching backend, not the resolver's exact-tier
    # strategy: under backend="batch" this is "scipy", which the batch
    # kernel's values realise bit for bit.
    backend = resolver.matching_backend
    tracer = NULL_TRACER if tracer is None else tracer

    rows = row_store.entries()
    cols = col_store.entries()
    k = row_store.k
    stats = EngineStats()
    counter_snapshot = resolver.counters.copy()

    # Resolve every pair from the summaries / the distance cache when
    # possible; queue the rest.  Duplicate signature pairs within the build
    # are queued once (the first occurrence owns the computation) and fanned
    # out to their follower cells when the chunks come back.
    pending: List[Tuple[int, int]] = []
    pending_keys: List[Optional[Tuple[str, str]]] = []
    owners: Dict[Tuple[str, str], int] = {}
    followers: Dict[int, List[Tuple[int, int]]] = {}
    with tracer.span("matrix.survey", rows=len(rows), cols=len(cols)):
        cells: Iterable[Tuple[int, int]]
        surveyed = resolver.batch_active and (
            mode == "bound-prune" or resolver.closed_form
        )
        if surveyed:
            # The bound tiers for a whole row (or column) per array pass;
            # only the pairs the survey leaves open reach the per-cell loop.
            values, cells = _survey_cells(
                resolver, row_store, col_store, rows, cols, symmetric,
                threshold if mode == "bound-prune" else None,
            )
        else:
            values = [[0.0] * len(cols) for _ in rows]
            cells = (
                (i, j)
                for i in range(len(rows))
                for j in range(i + 1 if symmetric else 0, len(cols))
            )
        for i, j in cells:
            row, col = rows[i], cols[j]
            if mode == "bound-prune" and not surveyed:
                interval = resolver.bounds(row, col)
                if threshold is not None and interval.excludes(threshold):
                    resolver.record_pruned(interval)
                    values[i][j] = math.inf
                    continue
                if interval.exact:
                    resolver.record_decided(interval)
                    values[i][j] = interval.lower
                    continue
            key = resolver.cache_key(row, col)
            if key is not None:
                owner = owners.get(key)
                if owner is not None:
                    # Deferred hit: the first occurrence owns the
                    # computation and this cell is filled from it when
                    # the chunks return.
                    resolver.counters.cache_hits += 1
                    followers.setdefault(owner, []).append((i, j))
                    continue
                cached = resolver.cache_get(key)
                if cached is not None:
                    values[i][j] = cached
                    continue
                owners[key] = len(pending)
            pending.append((i, j))
            pending_keys.append(key)
    stats.pairs_considered = (
        len(rows) * (len(rows) - 1) // 2 if symmetric else len(rows) * len(cols)
    )

    # Evaluate the queued pairs in chunks through the executor.
    index_chunks: List[IndexChunk] = [
        pending[offset:offset + chunk_size]
        for offset in range(0, len(pending), chunk_size)
    ]
    executor_used = executor_name
    if index_chunks:
        if executor_name == "serial" and resolver.batch_active:
            # Serial builds with an attached batch kernel evaluate each
            # chunk as one block through the array-native exact tier; the
            # per-chunk executor telemetry is unchanged.
            executor_used = "serial[batch]"
            dispatch = _make_batch_dispatch(resolver, rows, cols, metrics)
        else:
            dispatch = _make_dispatch(
                executor, executor_name, row_store, col_store, rows, cols,
                symmetric, k, backend, max_workers, metrics, faults,
            )
        results: List[List[float]] = []
        # A broken *built-in* pool may be restarted for the remaining chunks
        # (workers die; a fresh pool usually works) before degrading to
        # serial.  Custom executors are the caller's contract — one attempt,
        # then the serial fallback, as before.
        restart_budget = 0
        if retry is not None and executor_name == "process":
            restart_budget = retry.attempts_for("executor.dispatch") - 1
        with tracer.span(
            "matrix.exact", chunks=len(index_chunks), pairs=len(pending)
        ):
            while len(results) < len(index_chunks):
                try:
                    for block in dispatch(index_chunks[len(results):]):
                        results.append(list(block))
                        resolver.check_deadline("matrix.exact")
                except (OSError, PermissionError, NotImplementedError, BrokenExecutor) as error:
                    if executor_name == "serial":
                        raise
                    resolver.check_deadline("matrix.dispatch")
                    remaining = len(index_chunks) - len(results)
                    if restart_budget > 0 and isinstance(error, BrokenExecutor):
                        restart_budget -= 1
                        if metrics is not None:
                            metrics.inc("executor.pool_restarts")
                            metrics.inc("resilience.retries.executor.dispatch")
                        warnings.warn(
                            f"process pool broke mid-build "
                            f"({type(error).__name__}: {error}); restarting it "
                            f"for the {remaining} remaining chunks",
                            ResilienceWarning,
                            stacklevel=2,
                        )
                        continue
                    # Process pools need fork/spawn primitives some sandboxes
                    # deny — denied at pool creation (OSError/PermissionError)
                    # or after, when workers die and the pool reports itself
                    # broken (BrokenExecutor).  The matrix is still
                    # computable, just not in parallel: finish only the
                    # chunks that have not yielded yet.
                    executor_used = f"serial (fallback: {type(error).__name__})"
                    if metrics is not None:
                        metrics.inc("executor.serial_fallbacks")
                    warnings.warn(
                        f"matrix executor {executor_name!r} failed "
                        f"({type(error).__name__}: {error}); finishing the "
                        f"{remaining} remaining chunks serially",
                        ResilienceWarning,
                        stacklevel=2,
                    )
                    for chunk in index_chunks[len(results):]:
                        resolver.check_deadline("matrix.exact")
                        block = _timed_chunk(
                            metrics,
                            [
                                (rows[i].tree, cols[j].tree)
                                for i, j in chunk
                            ],
                            k,
                            backend,
                        )
                        results.append(block)
        position = 0
        for block in results:
            for value in block:
                i, j = pending[position]
                values[i][j] = value
                key = pending_keys[position]
                if key is not None:
                    resolver.cache_put(key, value)
                for fi, fj in followers.get(position, ()):
                    values[fi][fj] = value
                position += 1
        resolver.counters.exact_evaluations += len(pending)

    # Fold only this build's counter deltas into the result's stats (the
    # resolver keeps its own session-lifetime totals).
    stats.merge(resolver.counters.since(counter_snapshot))

    if symmetric:
        for i in range(len(rows)):
            for j in range(i + 1, len(cols)):
                values[j][i] = values[i][j]

    return MatrixResult(
        row_nodes=[entry.node for entry in rows],
        col_nodes=[entry.node for entry in cols],
        values=values,
        mode=mode,
        executor=executor_name,
        executor_used=executor_used,
        stats=stats,
    )


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
    Lines shorter than :data:`MIN_SURVEY_LINE` run :meth:`bounds` pair by
    pair instead.  Bounds are symmetric, so the orientation changes neither
    intervals nor counters.  Cells beyond ``threshold`` become ``inf`` and
    closed cells take their value, credited exactly as the per-cell cascade
    credits them; the open cells come back in row-major order, the order of
    the per-cell loop, for the cache and exact tiers.
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
        if len(candidates) - start < MIN_SURVEY_LINE:
            lower, pruned, closed = _bound_line(
                resolver, probe, candidates[start:], threshold
            )
        else:
            survey = resolver.survey(probe, store, start=start)
            if threshold is None:
                pruned = np.zeros(len(survey), dtype=bool)
            else:
                pruned = survey.lower > threshold
            closed = survey.closed & ~pruned
            resolver.record_pruned_many(survey, pruned)
            resolver.record_decided_many(survey, closed)
            lower = survey.lower
        line = np.where(pruned, math.inf, lower)
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


def _bound_line(
    resolver: BoundedNedDistance,
    probe,
    candidates: Sequence,
    threshold: Optional[float],
) -> Tuple[Any, Any, Any]:
    """The per-pair cascade over a short line, as survey-shaped arrays."""
    import numpy as np

    lower, pruned, closed = [], [], []
    for candidate in candidates:
        interval = resolver.bounds(probe, candidate)
        excluded = threshold is not None and interval.excludes(threshold)
        if excluded:
            resolver.record_pruned(interval)
        elif interval.exact:
            resolver.record_decided(interval)
        lower.append(interval.lower)
        pruned.append(excluded)
        closed.append(interval.exact and not excluded)
    return (
        np.array(lower, dtype=float),
        np.array(pruned, dtype=bool),
        np.array(closed, dtype=bool),
    )


def _make_batch_dispatch(
    resolver: BoundedNedDistance,
    rows: Sequence,
    cols: Sequence,
    metrics: Optional[MetricsRegistry] = None,
) -> Callable[[List[IndexChunk]], Iterable[List[float]]]:
    """Serial dispatch through the resolver's batch kernel, chunk by chunk.

    Equivalent to the serial per-pair dispatch (same chunking, same
    ``executor.chunk_seconds`` / ``executor.chunks`` telemetry), but each
    chunk reaches :meth:`BoundedNedDistance.exact_many` as one block of
    store summaries — counters and cache writes stay with the builder's
    fill loop, exactly as on the per-pair path.
    """
    def run_serial_batch(index_chunks: List[IndexChunk]) -> Iterable[List[float]]:
        for chunk in index_chunks:
            entry_pairs = [(rows[i], cols[j]) for i, j in chunk]
            if metrics is None:
                yield resolver.exact_many(entry_pairs)
                continue
            started = clock()
            block = resolver.exact_many(entry_pairs)
            metrics.observe("executor.chunk_seconds", clock() - started)
            metrics.inc("executor.chunks")
            yield block

    return run_serial_batch


def _executor_name(executor: "str | ExecutorFn") -> str:
    if callable(executor):
        return getattr(executor, "__name__", "custom")
    if executor in EXECUTORS:
        return executor
    raise DistanceError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")


def _make_dispatch(
    executor: "str | ExecutorFn",
    executor_name: str,
    row_store: StoreLike,
    col_store: StoreLike,
    rows: Sequence,
    cols: Sequence,
    symmetric: bool,
    k: int,
    backend: str,
    max_workers: Optional[int],
    metrics: Optional[MetricsRegistry] = None,
    faults=None,
) -> Callable[[List[IndexChunk]], Iterable[List[float]]]:
    """Turn an executor selection into ``index chunks -> result blocks``."""
    if callable(executor):
        # Custom executors keep the legacy self-contained chunk contract:
        # each chunk carries the parent arrays it needs.
        def run_custom(index_chunks: List[IndexChunk]) -> Iterable[List[float]]:
            legacy: List[Chunk] = [
                (
                    k,
                    backend,
                    [
                        (rows[i].tree.parent_array(), cols[j].tree.parent_array())
                        for i, j in chunk
                    ],
                )
                for chunk in index_chunks
            ]
            return executor(legacy)

        return run_custom

    if executor_name == "serial":
        def run_serial(index_chunks: List[IndexChunk]) -> Iterable[List[float]]:
            for chunk in index_chunks:
                yield _timed_chunk(
                    metrics,
                    [(rows[i].tree, cols[j].tree) for i, j in chunk],
                    k,
                    backend,
                )

        return run_serial

    # Built-in process executor: ship the packed stores once per worker via
    # the initializer, then stream chunks of bare (i, j) index pairs.
    row_parents = row_store.packed_parent_arrays()
    col_parents = None if symmetric else col_store.packed_parent_arrays()

    def run_process(index_chunks: List[IndexChunk]) -> Iterable[List[float]]:
        with ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=(row_parents, col_parents, k, backend),
        ) as pool:
            if metrics is None and faults is None:
                yield from pool.map(_compute_index_chunk, index_chunks)
            elif metrics is None:
                for block in pool.map(_compute_index_chunk, index_chunks):
                    # "kill" specs raise BrokenExecutor here — the same
                    # parent-side shape a dead worker produces — which the
                    # builder's restart/fallback handling then absorbs.
                    faults.fire("executor.dispatch", kill_error=BrokenExecutor)
                    yield block
            else:
                # Workers export, the parent folds: each chunk comes back
                # with the worker-side measurements attached.
                for block, snapshot in pool.map(
                    _compute_index_chunk_obs, index_chunks
                ):
                    if faults is not None:
                        faults.fire("executor.dispatch", kill_error=BrokenExecutor)
                    metrics.merge(snapshot)
                    yield block

    return run_process

"""Batch NED similarity search over a precomputed :class:`TreeStore`.

:class:`NedSearchEngine` is the query-side façade of the engine: build it
once over a store of candidate trees, then answer many ``knn``,
``range_search`` and ``top_l_candidates`` queries against it.  Every engine
is backed by a :class:`repro.engine.session.NedSession` — either one the
caller opened (``session=``, via :meth:`NedSession.search_engine`) or an
ephemeral one the engine opens for itself — so all distance resolution
flows through the session's one warm
:class:`repro.ted.resolver.BoundedNedDistance` cascade (signature →
level-size bounds → degree-multiset bounds → cache → exact TED*); the three
modes differ only in *which* pruning machinery drives it:

* ``mode="exact"`` routes queries through one of the :mod:`repro.index`
  metric backends (``"linear"`` scan, ``"vptree"``, ``"bktree"``), exactly as
  the paper's Figure 9b does — the triangle inequality alone does the
  pruning, every touched pair pays for an exact TED*.
* ``mode="bound-prune"`` replaces the metric index with summary-based
  skipping: the cascade's interval resolves candidates outright when it can,
  a static threshold (the count-th smallest upper bound) discards candidates
  before any exact work, and a dynamic threshold tightens as results come in.
* ``mode="hybrid"`` builds the metric index *with* the session's interval
  hook: triangle pruning discards whole subtrees, summary bounds discard
  individual nodes, and exact TED* is paid only when a pair's interval
  straddles the running kNN threshold.  kNN queries additionally seed the
  threshold with the session's ``tau_hint`` (the count-th smallest summary
  upper bound), so both pruning families bite from the first visited node.

All modes return identical results (the metric-index backends may order
equal-distance candidates differently) — only the number of exact TED*
evaluations changes, which is the cost that matters when each evaluation is
O(k·n³).  Every query records a :class:`~repro.engine.stats.QueryStats`
snapshot in ``last_query_stats`` (with per-tier counters) and accumulates
into the engine-wide ``stats`` total.

Note the session defaults the signature-keyed distance cache **on**
(:data:`repro.ted.resolver.DEFAULT_CACHE_SIZE`), unifying the previously
divergent per-surface defaults: with a cache, ``exact_evaluations`` counts
the *distinct* signature pairs a query forced (``stats.cache_hits`` reports
the repeats answered from memory).  Pass ``cache_size=0`` — as the tier
ablations do — to measure raw touched-pair counts instead.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Hashable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import DistanceError, IndexingError
from repro.engine.shards import ShardedTreeStore
from repro.engine.stats import EngineStats, QueryStats
from repro.engine.tree_store import StoredTree, TreeStore
from repro.graph.graph import Graph
from repro.index.bktree import BKTree
from repro.index.linear_scan import LinearScanIndex
from repro.index.knn import MetricIndexBase
from repro.index.vptree import VPTree
from repro.ted.resolver import ResolutionInterval
from repro.trees.tree import Tree

Node = Hashable
Query = Union[StoredTree, Tree]
StoreLike = Union[TreeStore, ShardedTreeStore]

SEARCH_MODES = ("exact", "bound-prune", "hybrid")
INDEX_BACKENDS = ("linear", "vptree", "bktree")


class NedSearchEngine:
    """Many-query NED similarity search over precomputed k-adjacent trees.

    Parameters
    ----------
    store:
        Candidate trees (typically every node of the searched graph).
    mode:
        ``"exact"``, ``"bound-prune"`` or ``"hybrid"`` (see module docstring).
    index:
        Metric-index backend used by exact- and hybrid-mode queries; ignored
        by bound-prune queries, which scan with summary-based pruning.
    backend, tiers, cache_size, cache_file:
        Configuration of the ephemeral :class:`~repro.engine.session.NedSession`
        the engine opens when no ``session`` is passed; deprecated here in
        favour of configuring the session directly
        (:meth:`NedSession.search_engine`).  ``cache_size=None`` means the
        session default — the signature-keyed exact-distance cache **on**
        (:data:`repro.ted.resolver.DEFAULT_CACHE_SIZE`); pass ``0`` for raw
        Figure-9b-style touched-pair counters.  ``cache_file`` names a
        distance-cache sidecar, warmed at construction when it exists;
        :meth:`save_cache` writes it back.
    leaf_size, index_seed:
        VP-tree construction parameters (ignored by other backends).
    session:
        An open :class:`~repro.engine.session.NedSession` to back this
        engine.  The engine then shares the session's store, warm resolver,
        distance cache and sidecar lifecycle; ``backend``/``tiers``/
        ``cache_size``/``cache_file`` must be left at their defaults (the
        session already fixed them).

    ``store`` may be a dense :class:`TreeStore` or a lazily loaded
    :class:`repro.engine.shards.ShardedTreeStore`; the engine snapshots the
    entry list once at construction, so queries never re-decode shards.

    Example
    -------
    >>> from repro.graph.generators import grid_road_graph
    >>> graph = grid_road_graph(6, 6, seed=1)
    >>> engine = NedSearchEngine.from_graph(graph, k=3, mode="hybrid", index="vptree")
    >>> [node for node, _ in engine.knn(engine.probe(graph, 0), 3)][0]
    0
    """

    def __init__(
        self,
        store: Optional[StoreLike] = None,
        mode: str = "exact",
        index: str = "linear",
        backend: str = "auto",
        tiers: Optional[Sequence[str]] = None,
        cache_size: Optional[int] = None,
        cache_file: Optional[Union[str, Path]] = None,
        leaf_size: int = 8,
        index_seed: int = 0,
        *,
        session=None,
    ) -> None:
        if mode not in SEARCH_MODES:
            raise IndexingError(f"unknown search mode {mode!r}; expected one of {SEARCH_MODES}")
        if index not in INDEX_BACKENDS:
            raise IndexingError(
                f"unknown index backend {index!r}; expected one of {INDEX_BACKENDS}"
            )
        if session is None:
            from repro.engine.session import NedSession

            if store is None:
                raise IndexingError("NedSearchEngine needs a store (or a session)")
            try:
                session = NedSession(
                    store, backend=backend, tiers=tiers, cache_size=cache_size,
                    cache_file=cache_file,
                )
            except DistanceError as error:
                raise IndexingError(str(error)) from None
        else:
            overridden = [
                name for name, value, default in (
                    ("backend", backend, "auto"),
                    ("tiers", tiers, None),
                    ("cache_size", cache_size, None),
                    ("cache_file", cache_file, None),
                ) if value != default
            ]
            if overridden:
                raise IndexingError(
                    f"{', '.join(overridden)} cannot be set on a session-backed "
                    f"engine: the session already fixed its resolver "
                    f"configuration — configure the NedSession instead"
                )
            if store is not None and store is not session.store:
                raise IndexingError(
                    "engine store disagrees with the session's store; pass one "
                    "or the other"
                )
            store = session.store
            if store is None:
                raise IndexingError("cannot search with a store-less session")
        if not len(store):
            raise IndexingError("cannot search an empty TreeStore")
        self.session = session
        self.store = store
        self.k = store.k
        self.mode = mode
        self.index_kind = index
        self.backend = session.backend
        self.cache_file = session.cache_file
        self.tiers = session.tiers
        self._leaf_size = leaf_size
        self._index_seed = index_seed
        self._index: Optional[MetricIndexBase] = None
        self._entries = store.entries()
        self._resolver = session.resolver
        self._bounds_memo = session.interval_hook()
        self.stats = EngineStats()
        self.last_query_stats: Optional[QueryStats] = None

    def save_cache(self, path: "Optional[Union[str, Path]]" = None) -> Path:
        """Write the exact-distance cache sidecar; returns the path written.

        Delegates to the backing session (``path`` defaults to its
        ``cache_file``).  Typically called once at the end of a sweep, so
        the next process's engine — constructed with the same ``cache_file``
        — starts warm; a session-owned engine gets this for free from the
        session's save-on-close.
        """
        try:
            return self.session.save_cache(path)
        except DistanceError as error:
            raise IndexingError(str(error)) from None

    # ---------------------------------------------------------------- factory
    @classmethod
    def from_graph(cls, graph: Graph, k: int, **options) -> "NedSearchEngine":
        """Build an engine over every node of ``graph`` in one pass."""
        return cls(TreeStore.from_graph(graph, k), **options)

    # ----------------------------------------------------------------- probes
    def probe(self, graph: Graph, node: Node) -> StoredTree:
        """Extract and summarise the query tree of ``node`` in ``graph``."""
        return self.session.probe(graph, node)

    def _coerce(self, query: Query) -> StoredTree:
        # Queries after the session closed would mutate the resolver cache
        # *after* the sidecar was saved — exact distances paid for and then
        # silently discarded.  (An engine-owned ephemeral session is never
        # closed, so standalone engines are unaffected.)
        if self.session.closed:
            raise IndexingError(
                "this engine's NedSession is closed; queries after close() "
                "would never reach the saved cache sidecar"
            )
        try:
            return self.session.coerce(query)
        except DistanceError as error:
            raise IndexingError(str(error)) from None

    # ---------------------------------------------------------------- queries
    def knn(self, query: Query, count: int) -> List[Tuple[Node, float]]:
        """Return the ``count`` candidate nodes closest to ``query``.

        Scan-answered queries — ``bound-prune`` mode, and ``exact``/``hybrid``
        mode with the ``"linear"`` backend — break ties by store order and
        therefore return identical results to each other.  The ``"vptree"``
        and ``"bktree"`` backends return the same *distances* but may order
        (and, at the ``count``-th cut, select) equal-distance candidates by
        traversal order instead.
        """
        if count <= 0:
            raise IndexingError(f"count must be positive, got {count}")
        probe = self._coerce(query)
        if self.mode == "bound-prune":
            selected, counters = self._pruned_select(
                probe, count=count, tie_key=lambda position, node: position
            )
            self._record(counters)
            return selected
        return self._indexed_knn(probe, count)

    def range_search(self, query: Query, radius: float) -> List[Tuple[Node, float]]:
        """Return every candidate node within ``radius`` of ``query``."""
        if radius < 0:
            raise IndexingError(f"radius must be non-negative, got {radius}")
        probe = self._coerce(query)
        if self.mode == "bound-prune":
            with self._query_window() as counters:
                matches: List[Tuple[Node, float]] = []
                for entry in self._entries:
                    value, _ = self._resolver.resolve(probe, entry, threshold=radius)
                    if value is not None and value <= radius:
                        matches.append((entry.node, value))
                matches.sort(key=lambda pair: pair[1])
            self._record(counters)
            return matches
        index = self._get_index()
        with self._query_window() as counters:
            result = index.range_search(probe, radius)
        self._record(counters)
        return [(item.node, distance) for item, distance in result]

    def top_l_candidates(self, query: Query, top_l: int) -> List[Tuple[Node, float]]:
        """Return the de-anonymization candidate list for ``query``.

        Semantics match :func:`repro.anonymize.deanonymize.deanonymize_node`:
        the ``top_l`` closest candidates with ties broken by ``repr(node)``.
        In ``bound-prune`` and ``hybrid`` mode candidates are skipped via the
        resolution cascade (the repr-tie-break is a contract the metric
        indexes do not offer, so hybrid answers this query as a bound-pruned
        scan); in ``exact`` mode every candidate is evaluated.
        """
        if top_l <= 0:
            raise IndexingError(f"top_l must be positive, got {top_l}")
        probe = self._coerce(query)
        selected, counters = self._pruned_select(
            probe,
            count=top_l,
            tie_key=lambda position, node: repr(node),
            prune=self.mode != "exact",
        )
        self._record(counters)
        return selected

    @property
    def last_query_distance_calls(self) -> int:
        """Exact TED* evaluations of the last query (index-style counter)."""
        return self.last_query_stats.distance_calls if self.last_query_stats else 0

    # -------------------------------------------------------------- internals
    @contextmanager
    def _query_window(self):
        """Context manager yielding the resolver-counter delta of one query.

        Entering snapshots the session-wide resolver counters; leaving turns
        the delta into this query's :class:`EngineStats` (with
        ``pairs_considered`` set to the full candidate count — every mode
        considers each candidate, through summaries or through the index)
        and records the query's wall time into the session's
        ``search.query_seconds`` latency histogram.
        """
        before = self._resolver.counters.copy()
        counters = EngineStats()
        try:
            with self.session.metrics.time("search.query_seconds"):
                yield counters
        finally:
            counters.merge(self._resolver.counters.since(before))
            counters.pairs_considered = len(self.store)

    def _exact(self, first: StoredTree, second: StoredTree) -> float:
        return self._resolver.exact(first, second)

    def _record(self, counters: EngineStats) -> None:
        self.last_query_stats = QueryStats(
            mode=self.mode,
            backend=self.index_kind,
            candidates=len(self.store),
            counters=counters,
        )
        self.stats.merge(counters)
        # The shared resolver counters already hold the per-tier deltas; the
        # engine-level pair count is the one thing the session would miss.
        self.session.stats.pairs_considered += counters.pairs_considered

    def _get_index(self) -> MetricIndexBase:
        if self._index is None:
            entries = self._entries
            measure = self._exact
            resolver = self._bounds_memo if self.mode == "hybrid" else None
            if self.index_kind == "linear":
                self._index = LinearScanIndex(entries, measure, resolver=resolver)
            elif self.index_kind == "vptree":
                self._index = VPTree(
                    entries,
                    measure,
                    leaf_size=self._leaf_size,
                    seed=self._index_seed,
                    resolver=resolver,
                )
            else:
                self._index = BKTree(entries, measure, resolver=resolver)
        return self._index

    def _indexed_knn(self, probe: StoredTree, count: int) -> List[Tuple[Node, float]]:
        index = self._get_index()  # build outside the stats window
        with self._query_window() as counters:
            tau_hint = None
            if self.mode == "hybrid":
                intervals = self._bounds_memo.begin(probe, self._entries)
                tau_hint = self.session.tau_hint(intervals, count)
            try:
                result = index.knn(probe, count, tau_hint=tau_hint)
            finally:
                self._bounds_memo.clear()
        self._record(counters)
        return [(item.node, distance) for item, distance in result]

    def _pruned_select(
        self,
        probe: StoredTree,
        count: int,
        tie_key: Callable[[int, Node], object],
        prune: bool = True,
    ) -> Tuple[List[Tuple[Node, float]], EngineStats]:
        """Select the ``count`` closest candidates with bound-based skipping.

        The selection is exact: a candidate is only skipped when its lower
        bound proves it cannot beat the current ``count``-th best *distance*,
        which is tie-break-agnostic (ties at the cut never involve pruned
        candidates, whose distances are strictly larger).
        """
        entries = self._entries
        with self._query_window() as counters:
            # Phase 1: cascade intervals for every candidate (skipped when
            # not pruning — the exact scan is the reference path and pays
            # full price).
            surveyed: List[Tuple[float, float, int, StoredTree, Optional[ResolutionInterval]]]
            if prune:
                surveyed = [
                    (interval.lower, interval.upper, position, entry, interval)
                    for position, entry in enumerate(entries)
                    for interval in (self._resolver.bounds(probe, entry),)
                ]
            else:
                surveyed = [
                    (0.0, 0.0, position, entry, None)
                    for position, entry in enumerate(entries)
                ]

            # Exact mode resolves every candidate anyway (no pruning, store
            # order), so with a batch kernel attached the whole scan goes
            # through the resolver at once: under closed_form (k <= 3) one
            # bound survey pins every pair, with no cache or exact tier;
            # otherwise the scan is one block through the cache and one
            # array-native exact call.
            precomputed: Optional[List[float]] = None
            resolver = self._resolver
            if not prune and resolver.batch_active and resolver.closed_form:
                survey = resolver.survey(probe, self.store)
                resolver.record_decided_many(survey, survey.closed)
                precomputed = survey.lower.tolist()
            elif not prune and resolver.batch_active and len(entries) > 1:
                precomputed = [
                    value
                    for value, _ in resolver.resolve_many(
                        [(probe, entry) for entry in entries], bounds=False
                    )
                ]

            # Phase 2: static threshold — the count-th smallest upper bound
            # is an achievable distance, so any larger lower bound is out
            # already.
            if prune and len(surveyed) > count:
                uppers = sorted(upper for _, upper, _, _, _ in surveyed)
                static_tau: float = uppers[count - 1]
            else:
                static_tau = float("inf")

            # Phase 3: resolve candidates in ascending lower-bound order with
            # a dynamically tightening threshold.
            # Sorted ascending by (distance, tie); the unique position
            # component keeps tuple comparison from ever reaching the node
            # objects.
            best: List[Tuple[float, object, int, Node]] = []

            def current_tau() -> float:
                return best[-1][0] if len(best) == count else float("inf")

            for lower, upper, position, entry, interval in sorted(
                surveyed, key=lambda item: (item[0], item[2])
            ):
                if interval is not None and lower > min(static_tau, current_tau()):
                    self._resolver.record_pruned(interval)
                    continue
                if interval is not None and interval.exact:
                    self._resolver.record_decided(interval)
                    distance = interval.lower
                elif precomputed is not None:
                    distance = precomputed[position]
                else:
                    distance = self._exact(probe, entry)
                candidate = (distance, tie_key(position, entry.node), position, entry.node)
                if len(best) < count:
                    bisect.insort(best, candidate)
                elif candidate < best[-1]:
                    bisect.insort(best, candidate)
                    best.pop()
        return [(node, distance) for distance, _, _, node in best], counters

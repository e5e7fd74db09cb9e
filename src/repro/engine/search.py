"""Batch NED similarity search over a precomputed :class:`TreeStore`.

:class:`NedSearchEngine` is the query-side façade of the engine: build it
once over a store of candidate trees, then answer many ``knn``,
``range_search`` and ``top_l_candidates`` queries against it.  Every engine
is backed by a :class:`repro.engine.session.NedSession` — either one the
caller opened (``session=``, via :meth:`NedSession.search_engine`) or an
ephemeral one the engine opens for itself — so all distance resolution
flows through the session's one warm
:class:`repro.ted.resolver.BoundedNedDistance` cascade (signature →
level-size bounds → degree-multiset bounds → cache → exact TED*); the two
modes differ only in *which* pruning machinery drives it:

* ``mode="exact"`` routes queries through one of the :mod:`repro.index`
  metric backends (``"linear"`` scan, ``"vptree"``, ``"bktree"``), exactly as
  the paper's Figure 9b does — the triangle inequality alone does the
  pruning, every touched pair pays for an exact TED*.
* ``mode="bound-prune"`` replaces the metric index with summary-based
  skipping: the cascade's interval resolves candidates outright when it can,
  a static threshold (the count-th smallest upper bound) discards candidates
  before any exact work, and a dynamic threshold tightens as results come in.
  Every interval of a query comes from one store-wide
  :meth:`~repro.ted.resolver.BoundedNedDistance.survey` (a few numpy
  operations, so this mode needs numpy); the counters it adds are those of
  a per-candidate ``bounds()`` loop.

Every exact TED* a query pays — kNN/top-L survivors, a range query's open
candidates, an exact-mode scan, a metric index's measure — goes through the
resolver's ``resolve_many`` → ``exact_many`` route: the cache, then the batch
kernel when one is attached, else per-pair TED*.  A survivor is a one-pair
block; an exact-mode scan is one block over the whole store.

A third mode, ``"hybrid"`` (summary intervals threaded through the VP-/BK-
tree traversals), was retired: on the Figure 9b datasets it never paid fewer
exact evaluations or less time than the bound-pruned scan, and it rested on
the triangle inequality, which TED* as computed breaks at k >= 4.

Both modes return identical results (the metric-index backends may order
equal-distance candidates differently, and at k >= 4 the VP- and BK-tree
may miss neighbours, see :class:`repro.index.VPTree`) — only the number of
exact TED* evaluations changes, which is the cost that matters when each
evaluation is O(k·n³).  Every query records a
:class:`~repro.engine.stats.QueryStats` snapshot in ``last_query_stats``
(with per-tier counters) and accumulates into the engine-wide ``stats``
total.

Note the session defaults the signature-keyed distance cache **on**
(:data:`repro.ted.resolver.DEFAULT_CACHE_SIZE`): with a cache,
``exact_evaluations`` counts the *distinct* signature pairs a query forced
(``stats.cache_hits`` reports the repeats answered from memory).  Open the
session with ``cache_size=0`` — as the tier ablations do — to measure raw
touched-pair counts instead.
"""

from __future__ import annotations

import bisect
import heapq
from contextlib import contextmanager
from typing import Callable, Hashable, List, Optional, Tuple, Union

from repro.exceptions import DistanceError, IndexingError
from repro.engine.shards import ShardedTreeStore
from repro.engine.stats import EngineStats, QueryStats
from repro.engine.tree_store import StoredTree, TreeStore
from repro.graph.graph import Graph
from repro.index.bktree import BKTree
from repro.index.linear_scan import LinearScanIndex
from repro.index.knn import MetricIndexBase
from repro.index.vptree import VPTree
from repro.trees.tree import Tree

Node = Hashable
Query = Union[StoredTree, Tree]
StoreLike = Union[TreeStore, ShardedTreeStore]

SEARCH_MODES = ("exact", "bound-prune")
INDEX_BACKENDS = ("linear", "vptree", "bktree")


class NedSearchEngine:
    """Many-query NED similarity search over precomputed k-adjacent trees.

    Parameters
    ----------
    store:
        Candidate trees (typically every node of the searched graph).
    mode:
        ``"exact"`` or ``"bound-prune"`` (see module docstring).
    index:
        Metric-index backend used by exact-mode queries; ignored
        by bound-prune queries, which scan with summary-based pruning.
    leaf_size, index_seed:
        VP-tree construction parameters (ignored by other backends).
    session:
        An open :class:`~repro.engine.session.NedSession` to back this
        engine.  The engine then shares the session's store, warm resolver,
        distance cache and sidecar lifecycle.  Without one, the engine opens
        a default session over ``store``; resolver configuration (backend,
        tiers, cache size, cache sidecar) lives only on the session, so
        configure one and call :meth:`NedSession.search_engine` to change it.

    ``store`` may be a dense :class:`TreeStore` or a lazily loaded
    :class:`repro.engine.shards.ShardedTreeStore`; the engine snapshots the
    entry list once at construction, so queries never re-decode shards.

    Example
    -------
    >>> from repro.graph.generators import grid_road_graph
    >>> graph = grid_road_graph(6, 6, seed=1)
    >>> engine = NedSearchEngine.from_graph(graph, k=3, mode="bound-prune")
    >>> [node for node, _ in engine.knn(engine.probe(graph, 0), 3)][0]
    0
    """

    def __init__(
        self,
        store: Optional[StoreLike] = None,
        mode: str = "exact",
        index: str = "linear",
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
            session = NedSession(store)
        elif store is not None and store is not session.store:
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
        self._leaf_size = leaf_size
        self._index_seed = index_seed
        self._index: Optional[MetricIndexBase] = None
        self._entries = store.entries()
        self._resolver = session.resolver
        self.stats = EngineStats()
        self.last_query_stats: Optional[QueryStats] = None

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

        Scan-answered queries — ``bound-prune`` mode, and ``exact`` mode
        with the ``"linear"`` backend — break ties by store order and
        therefore return identical results to each other.  The ``"vptree"``
        and ``"bktree"`` backends return the same *distances* but may order
        (and, at the ``count``-th cut, select) equal-distance candidates by
        traversal order instead.
        """
        if count <= 0:
            raise IndexingError(f"count must be positive, got {count}")
        probe = self._coerce(query)
        if self.mode == "bound-prune":
            return self._select(probe, count, tie_key=lambda position, node: position)
        return self._indexed_knn(probe, count)

    def range_search(self, query: Query, radius: float) -> List[Tuple[Node, float]]:
        """Return every candidate node within ``radius`` of ``query``."""
        if radius < 0:
            raise IndexingError(f"radius must be non-negative, got {radius}")
        probe = self._coerce(query)
        if self.mode == "bound-prune":
            with self._query_window() as counters:
                matches = self._surveyed_range(probe, radius)
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
        In ``bound-prune`` mode candidates are skipped via the resolution
        cascade; in ``exact`` mode every candidate is evaluated.
        """
        if top_l <= 0:
            raise IndexingError(f"top_l must be positive, got {top_l}")
        return self._select(
            self._coerce(query),
            top_l,
            tie_key=lambda position, node: repr(node),
            prune=self.mode != "exact",
        )

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
            measure = self._resolver.exact
            if self.index_kind == "linear":
                self._index = LinearScanIndex(entries, measure)
            elif self.index_kind == "vptree":
                self._index = VPTree(
                    entries, measure, leaf_size=self._leaf_size, seed=self._index_seed
                )
            else:
                self._index = BKTree(entries, measure)
        return self._index

    def _indexed_knn(self, probe: StoredTree, count: int) -> List[Tuple[Node, float]]:
        index = self._get_index()  # build outside the stats window
        with self._query_window() as counters:
            result = index.knn(probe, count)
        self._record(counters)
        return [(item.node, distance) for item, distance in result]

    def _select(
        self,
        probe: StoredTree,
        count: int,
        tie_key: Callable[[int, Node], object],
        prune: bool = True,
    ) -> List[Tuple[Node, float]]:
        """Select the ``count`` closest candidates with bound-based skipping.

        The selection is exact: a candidate is only skipped when its lower
        bound proves it cannot beat the current ``count``-th best *distance*,
        which is tie-break-agnostic (ties at the cut never involve pruned
        candidates, whose distances are strictly larger).

        Bound-pruned selection takes every interval from one store-wide
        :meth:`~BoundedNedDistance.survey` (:meth:`_surveyed_select`);
        ``prune=False`` is the exact scan (:meth:`_exact_select`).
        """
        with self._query_window() as counters:
            if prune:
                best = self._surveyed_select(probe, count, tie_key)
            else:
                best = self._exact_select(probe, count, tie_key)
        self._record(counters)
        return [(node, distance) for distance, _, _, node in best]

    def _exact_select(
        self,
        probe: StoredTree,
        count: int,
        tie_key: Callable[[int, Node], object],
    ) -> List[Tuple[float, object, int, Node]]:
        """The exact scan: every candidate's distance, then the ``count`` best.

        The whole scan goes through the resolver at once: with a batch
        kernel under closed_form (k <= 3) one bound survey pins every pair,
        with no cache or exact tier; otherwise the scan is one
        ``resolve_many`` block through the cache and the exact tier.  Only
        candidates at or below the ``count``-th smallest distance can be
        selected, so only they get a tie key.
        """
        resolver = self._resolver
        entries = self._entries
        if resolver.batch_active and resolver.closed_form:
            survey = resolver.survey(probe, self.store)
            resolver.record_decided_many(survey, survey.closed)
            distances = survey.lower.tolist()
        else:
            resolved = resolver.resolve_many([(probe, entry) for entry in entries])
            distances = [value for value, _ in resolved]
        cut = heapq.nsmallest(count, distances)[-1]
        best: List[Tuple[float, object, int, Node]] = []
        for position, distance in enumerate(distances):
            if distance <= cut:
                node = entries[position].node
                _offer(best, count, (distance, tie_key(position, node), position, node))
        return best

    def _surveyed_select(
        self,
        probe: StoredTree,
        count: int,
        tie_key: Callable[[int, Node], object],
    ) -> List[Tuple[float, object, int, Node]]:
        """Bound-pruned selection on one store survey.

        One :meth:`~BoundedNedDistance.survey` gives every interval.  The
        static threshold is the ``count``-th smallest upper bound (an
        achievable distance; ``np.partition``); every candidate whose lower
        bound exceeds it is pruned in bulk.  Survivors are then visited in
        ascending ``(lower, position)`` order: closed intervals are decided,
        open ones pay one exact evaluation each (a one-pair kernel block),
        and the first survivor above ``min(static, dynamic)`` ends the loop,
        since the dynamic threshold only tightens and later lower bounds are
        no smaller.  At
        ``k <= 3`` every survivor is closed, so the loop only visits the
        candidates at or below the ``count``-th smallest distance (ties
        included) plus the one that stops it.  Pruned and decided
        candidates are credited through masks, once per query.
        """
        import numpy as np

        resolver = self._resolver
        entries = self._entries
        survey = resolver.survey(probe, self.store)
        if len(entries) > count:
            static_tau = float(np.partition(survey.upper, count - 1)[count - 1])
        else:
            static_tau = float("inf")
        pruned = survey.lower > static_tau
        decided = np.zeros(len(entries), dtype=bool)
        survivors = np.flatnonzero(~pruned)
        order = survivors[np.argsort(survey.lower[survivors], kind="stable")].tolist()
        lowers = survey.lower.tolist()
        closed = survey.closed.tolist()
        best: List[Tuple[float, object, int, Node]] = []
        for rank, position in enumerate(order):
            lower = lowers[position]
            if lower > min(static_tau, _cut(best, count)):
                pruned[order[rank:]] = True
                break
            if closed[position]:
                decided[position] = True
                distance = lower
            else:
                distance = resolver.exact(probe, entries[position])
            node = entries[position].node
            _offer(best, count, (distance, tie_key(position, node), position, node))
        resolver.record_pruned_many(survey, pruned)
        resolver.record_decided_many(survey, decided)
        return best

    def _surveyed_range(self, probe: StoredTree, radius: float) -> List[Tuple[Node, float]]:
        """Bound-pruned range search on one store survey.

        Candidates whose lower bound exceeds ``radius`` are pruned and
        closed intervals are decided, both credited in bulk.  The open
        candidates go, in store order, through one
        :meth:`~BoundedNedDistance.resolve_many` block (cache, then the
        exact tier), with the counters a per-candidate :meth:`resolve`
        loop makes.  Matches are sorted by distance, then store position.
        """
        import numpy as np

        resolver = self._resolver
        entries = self._entries
        survey = resolver.survey(probe, self.store)
        pruned = survey.lower > radius
        closed = survey.closed & ~pruned
        resolver.record_pruned_many(survey, pruned)
        resolver.record_decided_many(survey, closed)
        lowers = survey.lower.tolist()
        matches = [(lowers[position], position) for position in np.flatnonzero(closed).tolist()]
        pending = np.flatnonzero(~(pruned | closed)).tolist()
        resolved = resolver.resolve_many([(probe, entries[position]) for position in pending])
        matches.extend(
            (value, position)
            for position, (value, _) in zip(pending, resolved)
            if value <= radius
        )
        matches.sort()
        return [(entries[position].node, distance) for distance, position in matches]


def _cut(best: List[Tuple[float, object, int, Node]], count: int) -> float:
    """The dynamic threshold: the ``count``-th best distance so far."""
    return best[-1][0] if len(best) == count else float("inf")


def _offer(
    best: List[Tuple[float, object, int, Node]],
    count: int,
    candidate: Tuple[float, object, int, Node],
) -> None:
    """Keep ``best`` the ``count`` smallest candidates seen, sorted."""
    if len(best) < count:
        bisect.insort(best, candidate)
    elif candidate < best[-1]:
        bisect.insort(best, candidate)
        best.pop()

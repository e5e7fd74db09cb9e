"""`NedSession`: one warm query-execution layer behind every query surface.

Before this module existed, each query surface — the distance-matrix
builders, :class:`~repro.engine.search.NedSearchEngine`, the
:mod:`repro.index` metric trees, and every experiment driver — independently
constructed and wired its own store + resolver + cache-sidecar plumbing.
The paper's workflow is precompute-once / query-many, so that duplication
was not just noise: every surface paid for its own cold
:class:`~repro.ted.resolver.BoundedNedDistance`, and nothing could share the
warm exact-distance cache across surfaces.  A :class:`NedSession` is the
single owner of that state, the way an HTAP engine keeps one warm index
serving both batch and point workloads:

* one (possibly sharded) tree store,
* one warm resolver (the signature → level-size → degree-multiset → cache →
  exact TED* cascade), with the cache **on by default** — ``cache_size=`` on
  the session is the one knob, replacing the divergent per-surface defaults,
* the cache-sidecar lifecycle: ``cache_file=`` warms the resolver at open if
  the sidecar exists and saves it back on :meth:`~NedSession.close` (sessions
  are context managers; closing twice is a no-op),
* the matrix executor (``"serial"`` in-process exact blocks, or
  ``"process"``: a shared-memory worker pool), plus the *batched* executor
  (:meth:`~NedSession.execute_batch`) and its asyncio serving facade
  (:meth:`~NedSession.serve`).

Query plans
-----------
Work is described by small immutable plans — :class:`PairwiseMatrixPlan`,
:class:`CrossMatrixPlan`, :class:`KnnPlan`, :class:`RangePlan`,
:class:`TopLPlan` — and executed by the session (:meth:`~NedSession.execute`
for one, :meth:`~NedSession.execute_batch` for many).  Separating the *what*
from the *how* is what lets many queries share one warm resolver: the
batched executor dedups plans whose probes have equal canonical signatures
(TED* is a pure function of the two isomorphism classes, so such plans have
bit-identical answers), orders the remaining work so probes with equal
signatures run back-to-back against the shared cache and bound tiers, and
fans results out to every requester.  Batched execution returns bit-identical
results to the per-query path with fewer-or-equal exact TED* evaluations —
the property the serving benchmark asserts.

Serving
-------
:meth:`NedSession.serve` returns a :class:`SessionServer`: an ``asyncio``
request queue draining into batch ticks.  Awaiting ``submit(plan)`` enqueues
the plan; a drain task collects everything queued, runs it through
:meth:`~NedSession.execute_batch` off the event loop, and resolves each
submitter's future — requests arriving while a tick is running simply form
the next batch.

Example
-------
>>> from repro.engine.session import KnnPlan, NedSession
>>> from repro.graph.generators import grid_road_graph
>>> graph = grid_road_graph(5, 5, seed=1)
>>> with NedSession.from_graph(graph, k=2) as session:
...     plans = [KnnPlan(session.probe(graph, node), 3) for node in (0, 1, 0)]
...     results = session.execute_batch(plans)
>>> results[0] == results[2]  # equal probes -> one computation, fanned out
True
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import warnings

from repro import obs
from repro.exceptions import DeadlineError, DistanceError, OverloadError, ReproError
from repro.engine.shards import ShardedTreeStore
from repro.engine.stats import EngineStats
from repro.engine.tree_store import StoredTree, TreeStore, summarize_tree
from repro.graph.graph import Graph
from repro.obs import MetricsRegistry, Tracer
from repro.resilience.faults import FaultPlan, ResilienceWarning
from repro.resilience.policies import (
    DEFAULT_POLICY,
    Deadline,
    ResiliencePolicy,
)
from repro.ted.resolver import (
    BATCH_BACKEND,
    DEFAULT_CACHE_SIZE,
    BoundedNedDistance,
)
from repro.trees.tree import Tree
from repro.utils.timer import clock

Node = Hashable
Query = Union[StoredTree, Tree]
StoreLike = Union[TreeStore, ShardedTreeStore]
PathLike = Union[str, Path]

#: Matrix executors a session accepts (see :mod:`repro.engine.matrix`).
SESSION_EXECUTORS = ("serial", "process")


# --------------------------------------------------------------------- plans
@dataclass(frozen=True)
class PairwiseMatrixPlan:
    """All-pairs NED matrix over the session's store.

    ``mode`` is ``"exact"`` or ``"bound-prune"``; with a ``threshold`` the
    bound tiers may mark pairs ``inf`` without evaluating them.  ``executor``
    overrides the session's executor for this plan only.
    """

    mode: str = "exact"
    threshold: Optional[float] = None
    chunk_size: int = 64
    executor: Optional[str] = None


@dataclass(frozen=True)
class CrossMatrixPlan:
    """Rows × columns NED matrix: session store rows against ``col_store``.

    This is the de-anonymization shape — the session owns the training
    candidates (rows), the plan carries the store of anonymised probes
    (columns).  ``col_store.k`` must match the session's.
    """

    col_store: StoreLike
    mode: str = "exact"
    threshold: Optional[float] = None
    chunk_size: int = 64
    executor: Optional[str] = None


@dataclass(frozen=True)
class KnnPlan:
    """The ``count`` candidates closest to ``probe``.

    ``mode``/``index`` override the session's query defaults for this plan
    (any of :data:`repro.engine.search.SEARCH_MODES` /
    :data:`repro.engine.search.INDEX_BACKENDS`).
    """

    probe: Query
    count: int
    mode: Optional[str] = None
    index: Optional[str] = None


@dataclass(frozen=True)
class RangePlan:
    """Every candidate within ``radius`` of ``probe``."""

    probe: Query
    radius: float
    mode: Optional[str] = None
    index: Optional[str] = None


@dataclass(frozen=True)
class TopLPlan:
    """The de-anonymization top-``top_l`` candidate list for ``probe``.

    Ties break by ``repr(node)`` (the
    :func:`repro.anonymize.deanonymize.deanonymize_node` contract), which the
    metric indexes do not offer — so this plan never takes an ``index``.
    """

    probe: Query
    top_l: int
    mode: Optional[str] = None


#: Every plan kind :meth:`NedSession.execute` accepts.
Plan = Union[PairwiseMatrixPlan, CrossMatrixPlan, KnnPlan, RangePlan, TopLPlan]
_POINT_PLANS = (KnnPlan, RangePlan, TopLPlan)
_MATRIX_PLANS = (PairwiseMatrixPlan, CrossMatrixPlan)

#: Span / histogram suffix per plan class (``execute.<kind>`` spans,
#: ``session.execute_seconds.<kind>`` histograms).
_PLAN_KINDS = {
    PairwiseMatrixPlan: "matrix-pairwise",
    CrossMatrixPlan: "matrix-cross",
    KnnPlan: "knn",
    RangePlan: "range",
    TopLPlan: "topl",
}


class NedSession:
    """One warm resolver + store + sidecar lifecycle behind every query path.

    Parameters
    ----------
    store:
        The candidate trees (a dense :class:`TreeStore` or a lazily loaded
        :class:`~repro.engine.shards.ShardedTreeStore`).  ``None`` builds a
        resolver-only session (``k`` required) for callers that resolve
        summary pairs directly, e.g. the bound-tier ablations.
    k:
        Tree levels compared; defaults to ``store.k`` (required when
        ``store`` is ``None``, rejected when it disagrees with the store).
    backend:
        Bipartite matching backend forwarded to exact TED*.
    tiers:
        Bound tiers of the resolution cascade (``None`` enables all).
    cache_size:
        Capacity of the signature-keyed exact-distance cache.  ``None`` (the
        default) enables :data:`~repro.ted.resolver.DEFAULT_CACHE_SIZE` —
        the session defaults the cache **on** for every surface it backs;
        pass ``0`` to measure raw touched-pair counters instead (tier
        ablations do).
    cache_file:
        Distance-cache sidecar path.  Warm-if-exists at construction;
        saved back by :meth:`close` (context-manager exit), even after an
        exception — every cached entry is exact, so a partial sidecar is
        still a valid resume point.  Incompatible with ``cache_size=0``.
    executor:
        Default matrix executor (``"serial"`` or ``"process"``); individual
        matrix plans may override it.
    max_workers:
        Worker count for the ``"process"`` executor (default
        ``os.cpu_count()``).
    mode, index:
        Default query mode / index backend for point plans
        (:class:`KnnPlan` etc.) that do not override them.
    leaf_size, index_seed:
        VP-tree construction parameters for session-backed engines.
    trace:
        Observability spans: a :class:`repro.obs.Tracer`, ``True`` (enable
        in-memory spans), a path (enable + JSONL sink) or ``None`` — fall
        back to the process-wide default (:func:`repro.obs.configure`), then
        the ``REPRO_TRACE`` environment variable, then disabled.  A disabled
        tracer is free; results are bit-identical either way.
    metrics:
        The :class:`repro.obs.MetricsRegistry` this session (and its
        resolver, store and serving loop) writes into.  Defaults to the
        process-wide registry from :func:`repro.obs.configure` when one is
        installed, else a private registry — metrics are always on;
        :meth:`metrics_snapshot` reads them back.
    batch:
        Array-native batch TED* kernel (:mod:`repro.ted.batch`) policy.
        ``None`` (default) auto-attaches one when the session owns a store,
        the backend realises scipy matching, and numpy/SciPy are available
        — every exact TED* the session pays (matrix cells, point-query
        survivors, exact-mode scans) then runs as a kernel block, with
        values bit-identical to the per-pair path.  ``True`` makes a
        missing prerequisite an error; ``False`` keeps the exact tier on
        per-pair TED* (the reference the tests compare against).  The
        setting changes only the exact tier: bound-pruned queries and
        builds take their intervals from the numpy bound survey either way.
    resilience:
        A :class:`repro.resilience.ResiliencePolicy` wired through every
        layer the session owns (shard decodes, sidecar load/save, matrix
        executors, the exact-tier circuit breakers, per-plan deadlines,
        serving-queue bounds).  ``None`` (default) uses
        :data:`repro.resilience.DEFAULT_POLICY` — retries and breakers on
        (no result changes in a healthy run), no deadline, strict sidecars.
        ``False`` disables the layer entirely (the unguarded baseline the
        tests compare against); ``True`` is the default policy,
        spelled out.
    faults:
        A :class:`repro.resilience.FaultPlan` injecting deterministic
        faults at the instrumented sites — the chaos suite's lever.
        ``None`` (default) injects nothing.

    Example
    -------
    >>> from repro.graph.generators import grid_road_graph
    >>> graph = grid_road_graph(4, 4, seed=1)
    >>> with NedSession.from_graph(graph, k=2) as session:
    ...     session.knn(session.probe(graph, 0), 3)[0][0]
    0
    """

    def __init__(
        self,
        store: Optional[StoreLike],
        k: Optional[int] = None,
        backend: str = "auto",
        tiers: Optional[Sequence[str]] = None,
        cache_size: Optional[int] = None,
        cache_file: Optional[PathLike] = None,
        executor: str = "serial",
        max_workers: Optional[int] = None,
        mode: str = "bound-prune",
        index: str = "linear",
        leaf_size: int = 8,
        index_seed: int = 0,
        trace: "Union[Tracer, bool, PathLike, None]" = None,
        metrics: Optional[MetricsRegistry] = None,
        batch: Optional[bool] = None,
        resilience: "Union[ResiliencePolicy, bool, None]" = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if store is None and k is None:
            raise DistanceError("a NedSession needs a store or an explicit k")
        if store is not None:
            if k is not None and k != store.k:
                raise DistanceError(
                    f"session k={k} disagrees with the store's k={store.k}"
                )
            k = store.k
        if cache_size is None:
            cache_size = DEFAULT_CACHE_SIZE
        if cache_file is not None and cache_size == 0:
            raise DistanceError(
                "cache_file needs the distance cache: a session with "
                "cache_size=0 has nothing to persist"
            )
        if executor not in SESSION_EXECUTORS:
            raise DistanceError(
                f"unknown executor {executor!r}; expected one of "
                f"{SESSION_EXECUTORS}"
            )
        self.store = store
        self.k = k
        self.backend = backend
        self.cache_size = cache_size
        self.cache_file = Path(cache_file) if cache_file is not None else None
        self.executor = executor
        self.max_workers = max_workers
        self.mode = mode
        self.index = index
        self.leaf_size = leaf_size
        self.index_seed = index_seed
        #: Observability: spans are opt-in (free when disabled), metrics are
        #: always on — every surface the session backs writes into them.
        self.tracer = obs.resolve_tracer(trace)
        default_metrics = obs.default_metrics()
        self.metrics = (
            metrics
            if metrics is not None
            else (default_metrics if default_metrics is not None else MetricsRegistry())
        )
        if store is not None and hasattr(store, "attach_metrics"):
            store.attach_metrics(self.metrics)
        #: The active ResiliencePolicy (None when resilience=False).
        if resilience is None or resilience is True:
            self.resilience: Optional[ResiliencePolicy] = DEFAULT_POLICY
        elif resilience is False:
            self.resilience = None
        elif isinstance(resilience, ResiliencePolicy):
            self.resilience = resilience
        else:
            raise DistanceError(
                f"resilience must be a ResiliencePolicy, True, False or None, "
                f"got {type(resilience).__name__}"
            )
        #: The active FaultPlan (chaos testing only; None injects nothing).
        self.faults = faults
        if faults is not None:
            faults.attach_metrics(self.metrics)
        self._retry = self.resilience.retry if self.resilience is not None else None
        if store is not None and hasattr(store, "attach_resilience"):
            store.attach_resilience(faults=faults, retry=self._retry)
        #: Session-lifetime per-tier counters (the resolver writes into it).
        self.stats = EngineStats()
        self._resolver = BoundedNedDistance(
            k=k, backend=backend, tiers=tiers, counters=self.stats,
            cache_size=cache_size, metrics=self.metrics,
        )
        if self.resilience is not None:
            self._resolver.attach_resilience(
                faults=faults,
                breaker_threshold=self.resilience.breaker_threshold,
                breaker_cooldown=self.resilience.breaker_cooldown,
            )
        elif faults is not None:
            self._resolver.attach_resilience(faults=faults, breaker_threshold=None)
        self.tiers = self._resolver.tiers
        self.batch = batch
        self._configure_batch_kernel(batch)
        #: True when the sidecar failed to load and the cold_start policy
        #: let the session open anyway (empty cache).
        self._sidecar_cold_start = False
        if self.cache_file is not None and self.cache_file.exists():
            # Load keeps the per-entry hit counts, so hotness accumulates
            # across session lifecycles (open → queries → save-on-close).
            cache = self._resolver.cache
            with self.tracer.span("session.warm", cache_file=str(self.cache_file)):
                with self.metrics.time("sidecar.load_seconds"):
                    loaded = self._sidecar(
                        "sidecar.load", lambda: cache.load(self.cache_file)
                    )
            self.metrics.inc("sidecar.loaded_entries", loaded)
        self._engines: Dict[Tuple, Any] = {}
        self._closed = False
        #: Batched-executor telemetry: ticks run, plans received, plans
        #: answered by fan-out from an identical plan in the same batch.
        self.batches_executed = 0
        self.batched_plans = 0
        self.deduplicated_plans = 0

    def _configure_batch_kernel(self, batch: Optional[bool]) -> None:
        """Attach the array-native batch TED* kernel when it applies.

        ``batch=None`` (the default) auto-promotes: a session that owns a
        store (the side-channel the kernel pre-compiles) and whose backend
        realises scipy matching adopts a kernel when numpy/SciPy are
        importable — block surfaces (matrix builds, ``resolve_many``,
        exact-mode scans) then run array-native with bit-identical values.
        ``batch=True`` insists (raising when the kernel cannot be value-
        compatible or its dependencies are missing); ``batch=False`` opts
        the exact tier out (bound-pruned surfaces still survey with numpy).
        """
        resolver = self._resolver
        if batch is False:
            if resolver.backend == BATCH_BACKEND:
                raise DistanceError(
                    "batch=False conflicts with backend='batch', whose exact "
                    "tier is the batch kernel"
                )
            return
        if resolver.batch_active:
            # backend="batch" constructed its own kernel.
            return
        if batch is None and self.store is None:
            return
        from repro.ted.batch import BatchTedKernel, batch_available

        if not batch_available():
            if batch is True:
                raise DistanceError(
                    "batch=True needs numpy and SciPy for the array-native "
                    "TED* kernel"
                )
            return
        if not resolver.attach_batch_kernel(BatchTedKernel()):
            if batch is True:
                raise DistanceError(
                    f"the batch kernel realises scipy matching, so only the "
                    f"scipy-compatible backends can adopt it; this session "
                    f"uses backend={resolver.backend!r}"
                )

    # ------------------------------------------------------ sidecar lifecycle
    @property
    def _sidecar_policy(self) -> str:
        return self.resilience.sidecar if self.resilience is not None else "strict"

    def _sidecar(self, site: str, action) -> int:
        """Run a sidecar load or save under the retry + sidecar policy.

        Transient failures are retried.  A sidecar that stays unreadable
        (truncated, foreign, wrong ``k``/backend) or unwritable raises under
        ``sidecar="strict"``; under ``"cold_start"`` the session warns,
        counts it and returns 0 — a broken cache file costs recomputation,
        never availability (a failed load opens the session cold).
        """
        try:
            if self._retry is not None:
                return self._retry.call(action, site=site, metrics=self.metrics)
            return action()
        except (DeadlineError, OverloadError):
            # Service-protection errors are never downgraded to a cold
            # start: they mean "stop", not "the sidecar is broken".
            raise
        except ReproError as error:
            if self._sidecar_policy != "cold_start":
                raise
            if site == "sidecar.load":
                self._sidecar_cold_start = True
                self.metrics.inc("resilience.sidecar_cold_starts")
                verb, outcome = "loaded", "starting cold; it is rewritten on close"
            else:
                self.metrics.inc("resilience.sidecar_save_failures")
                verb, outcome = "saved", "the previous sidecar stays intact"
            warnings.warn(
                f"distance-cache sidecar {self.cache_file} could not be {verb} "
                f"({type(error).__name__}: {error}); {outcome}",
                ResilienceWarning,
                stacklevel=4,
            )
            return 0

    # ---------------------------------------------------------------- factory
    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        k: int,
        nodes: Optional[Iterable[Node]] = None,
        **options,
    ) -> "NedSession":
        """Extract every (or ``nodes``') k-adjacent tree and open a session."""
        return cls(TreeStore.from_graph(graph, k, nodes=nodes), **options)

    # -------------------------------------------------------------- lifecycle
    def __enter__(self) -> "NedSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def sidecar_cold_start(self) -> bool:
        """True when the sidecar failed to load and the session opened cold."""
        return self._sidecar_cold_start

    def close(self) -> None:
        """Save the cache sidecar (when configured) and close the session.

        Idempotent: closing an already-closed session does nothing, so the
        context manager composes with an explicit ``close()`` call.  The
        sidecar is saved even when the ``with`` body raised — cached entries
        are exact regardless, so the partial sidecar lets the next process
        resume instead of restarting cold.
        """
        if self._closed:
            return
        with self.tracer.span("session.close"):
            if self.cache_file is not None:
                cache = self._resolver.cache
                with self.metrics.time("sidecar.save_seconds"):
                    saved = self._sidecar(
                        "sidecar.save", lambda: cache.save(self.cache_file)
                    )
                self.metrics.inc("sidecar.saved_entries", saved)
        self._closed = True

    def _require_open(self) -> None:
        if self._closed:
            raise DistanceError("this NedSession is closed")

    def _require_store(self, action: str) -> StoreLike:
        if self.store is None:
            raise DistanceError(f"cannot {action}: this session has no store")
        return self.store

    def save_cache(self, path: Optional[PathLike] = None) -> Path:
        """Write the exact-distance cache sidecar; returns the path written.

        ``path`` defaults to the session's ``cache_file`` (which
        :meth:`close` also writes); an explicit path lets parallel sweep
        workers write per-worker sidecars for a later
        :func:`repro.ted.cache.merge_sidecars`.
        """
        target = Path(path) if path is not None else self.cache_file
        if target is None:
            raise DistanceError(
                "no cache path: pass save_cache(path) or open the session "
                "with cache_file="
            )
        self._resolver.cache.save(target)
        return target

    # ---------------------------------------------------------- observability
    def metrics_snapshot(self) -> Dict[str, Any]:
        """One plain-dict view of everything this session measured.

        The registry's counters/gauges/latency histograms (per-tier resolver
        timings, sidecar load/save, per-plan-kind execution, serving ticks)
        plus derived sections:

        * ``"resolution"`` — the per-tier :class:`EngineStats` counters,
        * ``"batching"`` — batch ticks / plans / dedup fan-out savings,
        * ``"cache"`` — exact-distance cache occupancy, capacity and LRU
          evictions,
        * ``"batch_kernel"`` — array-native kernel work split (blocks,
          batched vs fallback pairs, compiled trees, memo hits and
          evictions, assignment-solver calls; only when attached),
        * ``"shards"`` — shard loads / evictions / residency (sharded
          stores only).

        JSON-serialisable; works on open and closed sessions alike.
        """
        snapshot = self.metrics.snapshot()
        snapshot["resolution"] = self.stats.as_dict()
        snapshot["batching"] = {
            "batches_executed": self.batches_executed,
            "batched_plans": self.batched_plans,
            "deduplicated_plans": self.deduplicated_plans,
        }
        cache = self._resolver.cache
        snapshot["cache"] = {
            "entries": len(cache),
            "capacity": cache.capacity,
            "evictions": cache.evictions,
        }
        kernel = self._resolver.batch_kernel
        if kernel is not None:
            snapshot["batch_kernel"] = {
                "blocks": kernel.blocks,
                "batched_pairs": kernel.batched_pairs,
                "fallback_pairs": kernel.fallback_pairs,
                "compiled_trees": kernel.compiled_trees,
                "compiled_evictions": kernel.compiled_evictions,
                "compiled_hits": kernel.compiled_hits,
                "solver_calls": kernel.solver_calls,
            }
        store = self.store
        if isinstance(store, ShardedTreeStore):
            snapshot["shards"] = {
                "shard_count": store.shard_count,
                "max_resident": store.max_resident,
                "resident": store.resident_shard_count(),
                "loads": store.shard_loads,
                "evictions": store.evictions,
            }
        snapshot["resilience"] = self._resilience_section(snapshot["counters"])
        return snapshot

    def _resilience_section(self, counters: Dict[str, int]) -> Dict[str, Any]:
        """Derived accounting of every retry/shed/degrade/breaker event.

        Always present in :meth:`metrics_snapshot` (zeros when nothing went
        wrong), so dashboards and the chaos suite can assert on one shape.
        """

        def total(prefix: str) -> int:
            exact = counters.get(prefix, 0)
            dotted = prefix + "."
            return exact + sum(
                count for name, count in counters.items() if name.startswith(dotted)
            )

        def per_site(prefix: str) -> Dict[str, int]:
            dotted = prefix + "."
            return {
                name[len(dotted):]: count
                for name, count in counters.items()
                if name.startswith(dotted)
            }

        section: Dict[str, Any] = {
            "enabled": self.resilience is not None,
            "retries": total("resilience.retries"),
            "retries_by_site": per_site("resilience.retries"),
            "retry_exhausted": total("resilience.retry_exhausted"),
            "faults_injected": total("resilience.faults_injected"),
            "faults_by_site": per_site("resilience.faults_injected"),
            "shed_requests": counters.get("resilience.shed_requests", 0),
            "deadline_exceeded": counters.get("resilience.deadline_exceeded", 0),
            "degrades": counters.get("resilience.degrades", 0),
            "degrades_by_rung": per_site("resilience.degrades"),
            "sidecar_cold_starts": counters.get("resilience.sidecar_cold_starts", 0),
            "sidecar_save_failures": counters.get(
                "resilience.sidecar_save_failures", 0
            ),
            "pool_restarts": counters.get("executor.pool_restarts", 0),
            "serial_fallbacks": counters.get("serving.dispatch_fallbacks", 0),
        }
        breakers = self._resolver.breaker_states()
        if breakers is not None:
            section["breakers"] = breakers
        return section

    # ------------------------------------------------------- resolver surface
    @property
    def resolver(self) -> BoundedNedDistance:
        """The session's warm resolver (shared by every surface it backs)."""
        return self._resolver

    def attach_block_dispatcher(self, dispatcher) -> None:
        """Offer the resolver's exact blocks to ``dispatcher`` (see
        :meth:`repro.ted.resolver.BoundedNedDistance.attach_block_dispatcher`).

        The serving layer attaches its shared-memory worker pool here, so
        every surface the session backs — matrix builds, batched point
        queries, exact scans — transparently fans exact blocks out to the
        worker processes.  Pass ``None`` to detach.
        """
        self._resolver.attach_block_dispatcher(dispatcher)

    # ----------------------------------------------------------------- probes
    def probe(self, graph: Graph, node: Node) -> StoredTree:
        """Extract and summarise the query tree of ``node`` in ``graph``."""
        from repro.trees.adjacent import k_adjacent_tree

        return summarize_tree(node, k_adjacent_tree(graph, node, self.k), self.k)

    def coerce(self, query: Query) -> StoredTree:
        """Turn a raw :class:`Tree` query into a summarised probe."""
        if isinstance(query, StoredTree):
            return query
        if isinstance(query, Tree):
            return summarize_tree("<query>", query, self.k)
        raise DistanceError(
            f"query must be a StoredTree probe or a Tree, got {type(query).__name__}"
        )

    # ---------------------------------------------------------------- engines
    def search_engine(
        self,
        mode: Optional[str] = None,
        index: Optional[str] = None,
        leaf_size: Optional[int] = None,
        index_seed: Optional[int] = None,
    ):
        """Return a search engine backed by this session's warm resolver.

        Engines are cached per ``(mode, index, leaf_size, index_seed)``
        configuration, so an index backend is built at most once per session
        and every engine shares the session's distance cache and counters.
        """
        from repro.engine.search import NedSearchEngine

        self._require_open()
        self._require_store("build a search engine")
        key = (
            mode or self.mode,
            index or self.index,
            leaf_size if leaf_size is not None else self.leaf_size,
            index_seed if index_seed is not None else self.index_seed,
        )
        engine = self._engines.get(key)
        if engine is None:
            engine = NedSearchEngine(
                self.store,
                mode=key[0],
                index=key[1],
                leaf_size=key[2],
                index_seed=key[3],
                session=self,
            )
            self._engines[key] = engine
        return engine

    # ----------------------------------------------------------- conveniences
    def pairwise_matrix(self, **plan_options) -> Any:
        """Execute a :class:`PairwiseMatrixPlan` built from ``plan_options``."""
        return self.execute(PairwiseMatrixPlan(**plan_options))

    def cross_matrix(self, col_store: StoreLike, **plan_options) -> Any:
        """Execute a :class:`CrossMatrixPlan` against ``col_store``."""
        return self.execute(CrossMatrixPlan(col_store=col_store, **plan_options))

    def knn(self, query: Query, count: int, **plan_options) -> List[Tuple[Node, float]]:
        """Execute a :class:`KnnPlan` for ``query``."""
        return self.execute(KnnPlan(query, count, **plan_options))

    def range_search(
        self, query: Query, radius: float, **plan_options
    ) -> List[Tuple[Node, float]]:
        """Execute a :class:`RangePlan` for ``query``."""
        return self.execute(RangePlan(query, radius, **plan_options))

    def top_l(self, query: Query, top_l: int, **plan_options) -> List[Tuple[Node, float]]:
        """Execute a :class:`TopLPlan` for ``query``."""
        return self.execute(TopLPlan(query, top_l, **plan_options))

    # -------------------------------------------------------------- execution
    def execute(self, plan: Plan) -> Any:
        """Run one plan against the warm resolver and return its result.

        Matrix plans return a :class:`repro.engine.matrix.MatrixResult`;
        point plans return the ``[(node, distance), ...]`` list of the
        corresponding :class:`~repro.engine.search.NedSearchEngine` query.

        Every execution is observable: a per-plan-kind span
        (``execute.knn``, ``execute.matrix-pairwise``, ...) when tracing is
        on, and a ``session.execute_seconds.<kind>`` latency sample always.
        """
        self._require_open()
        kind = _PLAN_KINDS.get(type(plan))
        if kind is None:
            return self._dispatch_guarded(plan)
        with self.tracer.span(f"execute.{kind}"):
            with self.metrics.time(f"session.execute_seconds.{kind}"):
                return self._dispatch_guarded(plan)

    def _dispatch_guarded(self, plan: Plan) -> Any:
        """Dispatch one plan under the policy's per-plan deadline (if any).

        The deadline is cooperative: it is installed on the resolver, which
        checks it at each exact evaluation/block (and the matrix builder per
        chunk), so a runaway plan raises a typed
        :class:`~repro.exceptions.DeadlineError` at the next checkpoint
        instead of hanging its caller.  Counted in
        ``resilience.deadline_exceeded``.
        """
        policy = self.resilience
        if policy is None or policy.deadline is None:
            return self._dispatch(plan)
        deadline = Deadline(policy.deadline)
        self._resolver.set_deadline(deadline)
        try:
            return self._dispatch(plan)
        except DeadlineError:
            self.metrics.inc("resilience.deadline_exceeded")
            raise
        finally:
            self._resolver.set_deadline(None)

    def _dispatch(self, plan: Plan) -> Any:
        if isinstance(plan, _MATRIX_PLANS):
            return self._execute_matrix(plan)
        if isinstance(plan, KnnPlan):
            engine = self.search_engine(mode=plan.mode, index=plan.index)
            return engine.knn(plan.probe, plan.count)
        if isinstance(plan, RangePlan):
            engine = self.search_engine(mode=plan.mode, index=plan.index)
            return engine.range_search(plan.probe, plan.radius)
        if isinstance(plan, TopLPlan):
            engine = self.search_engine(mode=plan.mode)
            return engine.top_l_candidates(plan.probe, plan.top_l)
        raise DistanceError(
            f"unknown plan type {type(plan).__name__}; expected one of "
            f"{[cls.__name__ for cls in _POINT_PLANS + _MATRIX_PLANS]}"
        )

    def _execute_matrix(self, plan: Union[PairwiseMatrixPlan, CrossMatrixPlan]):
        from repro.engine.matrix import build_matrix_with_resolver

        row_store = self._require_store("build a distance matrix")
        if isinstance(plan, CrossMatrixPlan):
            col_store, symmetric = plan.col_store, False
            if col_store.k != self.k:
                raise DistanceError(
                    f"stores disagree on k ({self.k} vs {col_store.k}); "
                    "NED values would not be comparable"
                )
        else:
            col_store, symmetric = row_store, True
        result = build_matrix_with_resolver(
            row_store,
            col_store,
            symmetric=symmetric,
            mode=plan.mode,
            executor=plan.executor if plan.executor is not None else self.executor,
            chunk_size=plan.chunk_size,
            max_workers=self.max_workers,
            threshold=plan.threshold,
            resolver=self._resolver,
            tracer=self.tracer,
            metrics=self.metrics,
            faults=self.faults,
            retry=self._retry,
        )
        # The shared resolver counters already hold the per-tier deltas; the
        # builder tracks pairs_considered only on the per-build stats, so
        # fold it into the session totals here (as the engines do for point
        # queries) — otherwise session-level pruning_ratio would divide
        # matrix-pair numerators by a point-query-only denominator.
        self.stats.pairs_considered += result.stats.pairs_considered
        return result

    # ------------------------------------------------------- batched executor
    def _plan_key(self, plan: Plan) -> Optional[Tuple]:
        """Dedup/ordering key: plans with equal keys have identical answers.

        Keys lead with a rank (0 = matrix, 1 = point) so matrix plans sort
        ahead of point plans.  Point plans then key on the probe's canonical
        signature plus the query parameters — TED* (and hence every result
        the engine derives from it) is a pure function of the isomorphism
        classes, so two kNN plans whose probes share a signature return
        bit-identical lists.  Matrix plans key on their configuration (and
        the column store's identity).  Returns ``None`` for *every* plan
        when the session's cache is disabled: ``cache_size=0`` means
        "measure the raw work", so signature-based dedup and reordering are
        off, exactly like the matrix builder's within-build dedup.
        """
        if self.cache_size == 0:
            return None
        if isinstance(plan, KnnPlan):
            return (1, "knn", plan.mode or self.mode, plan.index or self.index,
                    plan.probe.signature, plan.count)
        if isinstance(plan, RangePlan):
            return (1, "range", plan.mode or self.mode, plan.index or self.index,
                    plan.probe.signature, plan.radius)
        if isinstance(plan, TopLPlan):
            return (1, "topl", plan.mode or self.mode, "", plan.probe.signature,
                    plan.top_l)
        executor = plan.executor if plan.executor is not None else self.executor
        # threshold is normalised so the key tuples stay totally ordered
        # (None never meets a float in a comparison).
        threshold = -1.0 if plan.threshold is None else float(plan.threshold)
        if isinstance(plan, PairwiseMatrixPlan):
            return (0, "matrix-pairwise", plan.mode, executor,
                    f"{id(self.store)}:{threshold}:{plan.chunk_size}", 0)
        if isinstance(plan, CrossMatrixPlan):
            return (0, "matrix-cross", plan.mode, executor,
                    f"{id(plan.col_store)}:{threshold}:{plan.chunk_size}", 0)
        return None

    def execute_batch(
        self, plans: Sequence[Plan], return_exceptions: bool = False
    ) -> List[Any]:
        """Execute many plans as one batch; results align with ``plans``.

        The batched executor is where serving many queries beats serving
        them one at a time, without changing a single answer:

        1. *Dedup* — plans with equal keys (same query parameters, probes
           with equal canonical signatures) are computed once and fanned out.
        2. *Ordering* — matrix plans run first (they warm the cache
           broadest), then point plans grouped by probe signature, so
           consecutive queries hit the same cache/bound-tier working set.
        3. *Sharing* — everything runs through the session's one warm
           resolver, so probe pairs recurring across *different* queries are
           answered from the signature-keyed cache instead of re-evaluated.

        Results are bit-identical to executing each plan individually (the
        cache returns exact values; ordering cannot change a pure function),
        with fewer-or-equal exact TED* evaluations.  Each requester gets an
        independent result (fan-out copies point-plan lists and matrix
        values), so callers may mutate what they receive.

        With the cache disabled (``cache_size=0``) all three moves are off
        and plans run one by one in submission order: a cache-off session
        means "measure the raw work", so the batch must not skip any of it
        — the tier ablations rely on per-query counters staying per-query.

        ``return_exceptions=True`` captures each plan's failure in its
        result slot (:func:`asyncio.gather`-style) instead of raising, so
        one bad plan neither aborts nor re-runs its batch neighbours — the
        serving facade relies on this for per-future error delivery.
        """
        self._require_open()
        with self.tracer.span("execute.batch", plans=len(plans)):
            with self.metrics.time("session.execute_batch_seconds"):
                return self._execute_batch(plans, return_exceptions)

    def _execute_batch(
        self, plans: Sequence[Plan], return_exceptions: bool
    ) -> List[Any]:
        prepared: List[Tuple[Optional[Plan], Optional[Tuple]]] = []
        failures: Dict[int, Exception] = {}
        for position, plan in enumerate(plans):
            try:
                if isinstance(plan, _POINT_PLANS):
                    plan = replace(plan, probe=self.coerce(plan.probe))
                elif not isinstance(plan, _MATRIX_PLANS):
                    raise DistanceError(
                        f"unknown plan type {type(plan).__name__} in batch"
                    )
            except Exception as error:
                if not return_exceptions:
                    raise
                failures[position] = error
                prepared.append((None, None))
                continue
            prepared.append((plan, self._plan_key(plan)))

        # First occurrence of each key owns the computation; followers map to
        # the owner's slot in ``distinct``.
        owners: Dict[Tuple, int] = {}
        distinct: List[Tuple[Plan, Optional[Tuple]]] = []
        assignment: List[Optional[int]] = []
        for plan, key in prepared:
            if plan is None:
                assignment.append(None)
                continue
            if key is not None and key in owners:
                assignment.append(owners[key])
                continue
            slot = len(distinct)
            distinct.append((plan, key))
            assignment.append(slot)
            if key is not None:
                owners[key] = slot

        # Matrix plans first (rank 0 — they warm the cache broadest), then
        # point plans (rank 1) grouped by probe signature; unkeyed plans use
        # a rank-0 sentinel, and equal keys keep submission order via the
        # slot index.  With the cache disabled every key is None, so the
        # batch runs in pure submission order.
        order = sorted(
            range(len(distinct)),
            key=lambda slot: (distinct[slot][1] or (0, "", "", "", "", 0), slot),
        )
        results: Dict[int, Any] = {}
        for slot in order:
            try:
                results[slot] = self.execute(distinct[slot][0])
            except Exception as error:
                if not return_exceptions:
                    raise
                results[slot] = error

        out: List[Any] = []
        fanned: set = set()
        for position, slot in enumerate(assignment):
            if slot is None:
                out.append(failures[position])
                continue
            result = results[slot]
            if slot in fanned:
                result = self._copy_result(result)
            else:
                fanned.add(slot)
            out.append(result)
        deduplicated = len(prepared) - len(distinct) - len(failures)
        self.batches_executed += 1
        self.batched_plans += len(plans)
        self.deduplicated_plans += deduplicated
        self.metrics.inc("batch.ticks")
        self.metrics.inc("batch.plans", len(plans))
        if deduplicated:
            self.metrics.inc("batch.deduplicated_plans", deduplicated)
        return out

    @staticmethod
    def _copy_result(result: Any) -> Any:
        """Independent copy of a fanned-out result (followers must not alias
        the owner's lists/matrix — the owner may mutate what it received)."""
        if isinstance(result, list):
            return list(result)
        from repro.engine.matrix import MatrixResult

        if isinstance(result, MatrixResult):
            return MatrixResult(
                row_nodes=list(result.row_nodes),
                col_nodes=list(result.col_nodes),
                values=[list(row) for row in result.values],
                mode=result.mode,
                executor=result.executor,
                executor_used=result.executor_used,
                stats=result.stats.copy(),
            )
        return result

    # ---------------------------------------------------------------- serving
    def serve(
        self,
        max_batch: "Union[int, str, Any, None]" = None,
        max_queue_depth: Optional[int] = None,
        request_deadline: Optional[float] = None,
    ) -> "SessionServer":
        """Return an asyncio serving facade over this session.

        Use as ``async with session.serve() as server:`` and await
        ``server.submit(plan)`` from any number of tasks; queued plans are
        drained into :meth:`execute_batch` ticks.

        ``max_batch`` caps how many queued plans one tick drains: an int is
        a fixed cap, ``"adaptive"`` (or a configured
        :class:`repro.serving.AdaptiveTicks` instance) closes the loop from
        the measured tick latency — the limit grows while full ticks stay
        under the latency target and shrinks when ticks run long.

        ``max_queue_depth`` bounds the request queue: submissions past it are
        shed immediately with :class:`repro.exceptions.OverloadError` instead
        of growing an unbounded backlog.  ``request_deadline`` (seconds)
        starts ticking at submit time; a request still queued when it expires
        is resolved with :class:`repro.exceptions.DeadlineError` rather than
        executed.  Both default from the session's resilience policy.
        """
        self._require_open()
        policy = self.resilience
        if max_queue_depth is None and policy is not None:
            max_queue_depth = policy.max_queue_depth
        if request_deadline is None and policy is not None:
            request_deadline = policy.deadline
        return SessionServer(
            self,
            max_batch=max_batch,
            max_queue_depth=max_queue_depth,
            request_deadline=request_deadline,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = len(self.store) if self.store is not None else 0
        return (
            f"NedSession(k={self.k}, nodes={size}, cache_size={self.cache_size}, "
            f"executor={self.executor!r}, closed={self._closed})"
        )


_STOP = object()


class SessionServer:
    """Async request queue draining into :meth:`NedSession.execute_batch` ticks.

    Each tick grabs everything currently queued (bounded by ``max_batch``),
    runs it through the batched executor in a worker thread (so the event
    loop keeps accepting submissions — those form the *next* tick), and
    resolves each submitter's future with its own result.  ``ticks`` /
    ``served`` expose how much batching actually happened.
    """

    def __init__(
        self,
        session: NedSession,
        max_batch: "Union[int, str, Any, None]" = None,
        max_queue_depth: Optional[int] = None,
        request_deadline: Optional[float] = None,
    ) -> None:
        # ``max_batch`` accepts an AdaptiveTicks controller (or the string
        # "adaptive" for a default-configured one): each tick then drains up
        # to the controller's current limit and feeds back its measured
        # (batch_size, tick_seconds) so the limit tracks the latency target.
        self._adaptive = None
        if max_batch == "adaptive":
            from repro.serving.ticks import AdaptiveTicks

            self._adaptive = AdaptiveTicks()
            max_batch = None
        elif max_batch is not None and not isinstance(max_batch, int):
            if not (hasattr(max_batch, "observe") and hasattr(max_batch, "limit")):
                raise DistanceError(
                    f"max_batch must be an int, 'adaptive' or an AdaptiveTicks "
                    f"controller, got {max_batch!r}"
                )
            self._adaptive = max_batch
            max_batch = None
        if max_batch is not None and max_batch < 1:
            raise DistanceError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise DistanceError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if request_deadline is not None and request_deadline <= 0:
            raise DistanceError(
                f"request_deadline must be > 0 seconds, got {request_deadline}"
            )
        self._session = session
        self._max_batch = max_batch
        self._max_queue_depth = max_queue_depth
        self._request_deadline = request_deadline
        self._queue: Optional[asyncio.Queue] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._closing = False
        #: Batch ticks executed and total plans answered.
        self.ticks = 0
        self.served = 0
        #: Requests refused at submit because the queue was full, and the
        #: deepest the queue ever got (the load-shedding high-water mark).
        self.shed = 0
        self.queue_depth_hwm = 0

    @property
    def adaptive(self):
        """The attached AdaptiveTicks controller, if any."""
        return self._adaptive

    @property
    def tick_limit(self) -> Optional[int]:
        """What the next tick will drain up to (None = unbounded)."""
        return self._adaptive.limit if self._adaptive is not None else self._max_batch

    async def __aenter__(self) -> "SessionServer":
        self._queue = asyncio.Queue()
        self._closing = False
        self._drain_task = asyncio.create_task(self._drain())
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Drain every pending request, then stop the serving task."""
        if self._queue is None or self._drain_task is None:
            return
        if not self._closing:
            self._closing = True
            await self._queue.put(_STOP)
        await self._drain_task
        self._drain_task = None

    async def submit(self, plan: Plan) -> Any:
        """Enqueue ``plan`` and await its result from a future batch tick.

        Raises :class:`repro.exceptions.OverloadError` immediately (without
        queueing) when the server's ``max_queue_depth`` is reached — shedding
        at the door keeps queue wait bounded for requests already admitted.
        """
        if self._queue is None or self._closing:
            raise DistanceError("this SessionServer is not serving")
        metrics = self._session.metrics
        if (
            self._max_queue_depth is not None
            and self._queue.qsize() >= self._max_queue_depth
        ):
            self.shed += 1
            metrics.inc("resilience.shed_requests")
            raise OverloadError(
                f"serving queue is full ({self._max_queue_depth} pending); "
                "request shed — retry later or raise max_queue_depth"
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        deadline = (
            Deadline(self._request_deadline)
            if self._request_deadline is not None
            else None
        )
        await self._queue.put((plan, future, deadline))
        depth = self._queue.qsize()
        if depth > self.queue_depth_hwm:
            self.queue_depth_hwm = depth
            metrics.set_gauge("serving.queue_depth_hwm", depth)
        return await future

    async def map(self, plans: Sequence[Plan]) -> List[Any]:
        """Submit many plans concurrently and gather their results in order."""
        return list(await asyncio.gather(*(self.submit(plan) for plan in plans)))

    async def _drain(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            item = await self._queue.get()
            if item is _STOP:
                break
            batch = [item]
            limit = (
                self._adaptive.limit if self._adaptive is not None else self._max_batch
            )
            while (limit is None or len(batch) < limit) and (
                not self._queue.empty()
            ):
                extra = self._queue.get_nowait()
                if extra is _STOP:
                    stopping = True
                    break
                batch.append(extra)
            metrics = self._session.metrics
            metrics.set_gauge("serving.queue_depth", self._queue.qsize())
            metrics.observe("serving.batch_size", float(len(batch)))
            # Requests whose deadline expired while they sat in the queue are
            # answered with DeadlineError instead of executed — running them
            # anyway would push every request behind them past its own
            # deadline too (the classic overload death spiral).
            live: List[Tuple[Plan, "asyncio.Future[Any]"]] = []
            for plan, future, deadline in batch:
                if deadline is not None and deadline.expired():
                    if not future.done():
                        future.set_exception(
                            DeadlineError(
                                f"request deadline of {deadline.seconds:.3f}s "
                                "expired while queued"
                            )
                        )
                    metrics.inc("resilience.deadline_exceeded")
                    continue
                live.append((plan, future))
            if not live:
                self.ticks += 1
                self.served += len(batch)
                continue
            plans = [plan for plan, _ in live]
            faults = self._session.faults

            def _tick(plans: Sequence[Plan] = plans) -> List[Any]:
                if faults is not None:
                    faults.fire("serving.tick")
                return self._session.execute_batch(plans, return_exceptions=True)

            try:
                # Gather-style: each plan's failure lands in its own result
                # slot, so one bad plan neither aborts nor re-runs its batch
                # neighbours (every plan executes exactly once).
                with self._session.tracer.span("server.tick", batch=len(live)):
                    tick_started = clock()
                    results = await loop.run_in_executor(None, _tick)
                    tick_seconds = clock() - tick_started
                metrics.observe("serving.tick_seconds", tick_seconds)
                if self._adaptive is not None:
                    metrics.set_gauge(
                        "serving.tick_limit",
                        self._adaptive.observe(len(live), tick_seconds),
                    )
            except asyncio.CancelledError:
                # Cancellation must stop the drain loop, not be converted
                # into per-future errors — swallowing it would leave the
                # task looping and block event-loop shutdown forever.
                for _, future, _deadline in batch:
                    future.cancel()
                raise
            except Exception as error:  # batch-level failure (e.g. closed)
                for _, future, _deadline in batch:
                    if not future.done():
                        future.set_exception(error)
                self.ticks += 1
                self.served += len(batch)
                continue
            for (_, future), result in zip(live, results):
                if future.done():
                    continue
                if isinstance(result, BaseException):
                    future.set_exception(result)
                else:
                    future.set_result(result)
            self.ticks += 1
            self.served += len(batch)

"""Batch NED similarity engine: open a session once, query it many ways.

The pair-at-a-time API in :mod:`repro.core` re-extracts trees and re-runs
TED* for every call; the engine splits the work the way a data system would,
and — since the :class:`NedSession` layer — serves every query shape off one
warm piece of state:

* :mod:`repro.engine.tree_store` — :class:`TreeStore` bulk-extracts,
  canonizes and summarises the k-adjacent trees of all nodes of a graph in
  one pass, with ``save()``/``load()`` persistence.
* :mod:`repro.engine.shards` — :class:`ShardedTreeStore`: the same store
  persisted as a manifest plus N shard files, loaded lazily with a bounded
  LRU of resident shards.  Same surface as :class:`TreeStore`, so every
  consumer takes either.
* :mod:`repro.engine.session` — :class:`NedSession`, **the** query-execution
  layer: one store, one warm :class:`repro.ted.resolver.BoundedNedDistance`
  resolver (bound tiers + the signature-keyed exact-distance cache,
  on by default), the cache-sidecar lifecycle (warm-if-exists at open,
  save-on-close), the batched executor, and the asyncio serving facade.
  Matrices, search engines and the metric indexes are all thin consumers
  of a session, and the session is the only place the resolver is
  configured.  Every exact TED* — matrix cells, kNN/top-L
  survivors, range and exact-mode scans — goes through the resolver's
  ``resolve_many`` → ``exact_many`` route.  When numpy/SciPy are available
  the session auto-attaches the array-native batch TED* kernel
  (:mod:`repro.ted.batch`), so that route evaluates pair blocks (a point
  query's survivor is a one-pair block) over pre-compiled parent arrays,
  bit-identical to the per-pair scipy path (opt out with ``batch=False``).
  Every bound-pruned query and matrix build takes its intervals from one
  numpy bound survey per probe (:mod:`repro.ted.survey`), so the engine
  needs numpy; SciPy stays optional.
* :mod:`repro.engine.matrix` — chunked pairwise/cross distance matrices
  (``exact`` / ``bound-prune`` modes), built in process; the module-level
  functions open a default session per build.
* :mod:`repro.engine.search` — :class:`NedSearchEngine`: ``knn`` /
  ``range_search`` / ``top_l_candidates`` over any :mod:`repro.index`
  backend (``mode="exact"``) or via bound-pruned scans, with
  per-query per-tier statistics.  Session-backed: an engine built from a
  store opens a default session, and engines built from one session
  (:meth:`NedSession.search_engine`) share its warm cache.
* :mod:`repro.engine.stats` — the shared telemetry counters.

Every layer is also instrumented through :mod:`repro.obs`: sessions always
own a :class:`repro.obs.MetricsRegistry` (per-tier resolver latency
histograms, sidecar/shard timings, serving gauges — read them with
:meth:`NedSession.metrics_snapshot`), and passing ``trace=`` (or setting
``REPRO_TRACE``) adds nested wall-clock spans over warm-up, plan execution,
matrix passes and serving ticks at zero cost when left off.

The session workflow (open → warm → batch queries → close)
----------------------------------------------------------
The paper's Sections 6–7 split — extract trees and summaries once, answer
many queries from them — is a session lifecycle::

    from repro.engine import KnnPlan, NedSession

    with NedSession(store, cache_file="distances.ned") as session:   # open
        # warm: the sidecar (if present) pre-resolves known pairs;
        # every query below further warms the shared cache.
        matrix = session.pairwise_matrix(mode="bound-prune")
        plans = [KnnPlan(session.probe(graph, node), 5) for node in nodes]
        answers = session.execute_batch(plans)       # batched: dedup + share
    # close: the sidecar is saved back — the next process starts warm.

``execute_batch`` dedups plans whose probes share a canonical signature,
orders work so the cache and bound tiers are shared, and returns
bit-identical results to the per-query path with fewer-or-equal exact TED*
evaluations.  ``session.serve()`` wraps the same executor in an ``asyncio``
request queue draining into batch ticks, for callers that arrive one
``await`` at a time.  For durable precompute, ``save_sharded(store, dir)``
persists the extraction and ``ShardedTreeStore.load(dir)`` re-attaches it
lazily from any later process; a warm re-run of the same workload performs
zero exact evaluations (see ``examples/persistent_sweep.py``; the tier-1
suite checks it across two interpreter processes).

Performance knobs (all on the session)
--------------------------------------
* ``backend`` — the bipartite matching solver inside TED*.  ``"auto"``
  (default) picks SciPy's C ``linear_sum_assignment`` when importable and
  the dependency-free pure-Python Hungarian solver otherwise.  Tie pairs may
  admit several optimal matchings, so the two solvers are each
  self-consistent but may disagree on rare pairs — compare like with like.
* ``cache_size`` — the signature-keyed LRU distance cache between the bound
  tiers and exact TED*, **on by default**
  (:data:`repro.ted.resolver.DEFAULT_CACHE_SIZE`) for every surface the
  session backs.  Pass ``0`` when raw touched-pair counters are the measurement (the tier
  ablations do).  ``stats.cache_hits`` / ``cache_misses`` /
  ``cache_hit_rate`` report the effect.
* the worker pool — every matrix build resolves its open cells through
  the resolver's ``resolve_many`` (cache, within-build dedup, then
  ``exact_many`` blocks of ``chunk_size`` pairs), evaluated in process.
  The one place blocks leave the process is ``ned-serve``'s
  :class:`repro.serving.workers.SharedWorkerPool` (the store exported
  *once* into shared memory), which the service attaches with
  :meth:`NedSession.attach_block_dispatcher`.  If that pool fails, the
  remaining blocks run locally (only blocks not yet returned are
  recomputed) and ``executor_used`` records the downgrade.  A k = 4
  pairwise build over 150 nodes ran 0.9× as fast on a 2-worker pool as
  serially on 2 vCPUs, so builds do not start a pool of their own.
* ``cache_file`` — the durable sidecar of the resolver's
  :class:`repro.ted.cache.DistanceCache`.  Since format v2 it persists
  per-entry *hit counts*, so an overflowing load keeps the hottest entries
  (not the newest), and :func:`repro.ted.cache.merge_sidecars` (CLI:
  ``ned-experiments merge-cache``) compacts the sidecars of parallel sweep
  workers into one warm file, summing hit counts.

Quickstart
----------
>>> from repro.engine import NedSession
>>> from repro.graph.generators import grid_road_graph
>>> graph = grid_road_graph(6, 6, seed=1)
>>> with NedSession.from_graph(graph, k=3) as session:
...     neighbors = session.knn(session.probe(graph, 0), 3)
>>> neighbors[0][0]
0
"""

from repro.engine.matrix import (
    MODES,
    MatrixResult,
    cross_distance_matrix,
    pairwise_distance_matrix,
)
from repro.engine.search import INDEX_BACKENDS, SEARCH_MODES, NedSearchEngine
from repro.engine.session import (
    CrossMatrixPlan,
    KnnPlan,
    NedSession,
    PairwiseMatrixPlan,
    RangePlan,
    SessionServer,
    TopLPlan,
)
from repro.engine.shards import ShardedTreeStore, save_sharded, sharded_store_exists
from repro.engine.stats import EngineStats, QueryStats
from repro.engine.tree_store import StoredTree, TreeStore, summarize_tree
from repro.ted.cache import merge_sidecars
from repro.ted.resolver import (
    BOUND_TIERS,
    TIER_CASCADE,
    BoundedNedDistance,
    ResolutionInterval,
)

__all__ = [
    "TreeStore",
    "StoredTree",
    "summarize_tree",
    "ShardedTreeStore",
    "save_sharded",
    "sharded_store_exists",
    "NedSession",
    "SessionServer",
    "PairwiseMatrixPlan",
    "CrossMatrixPlan",
    "KnnPlan",
    "RangePlan",
    "TopLPlan",
    "NedSearchEngine",
    "pairwise_distance_matrix",
    "cross_distance_matrix",
    "MatrixResult",
    "EngineStats",
    "QueryStats",
    "BoundedNedDistance",
    "ResolutionInterval",
    "merge_sidecars",
    "BOUND_TIERS",
    "TIER_CASCADE",
    "MODES",
    "SEARCH_MODES",
    "INDEX_BACKENDS",
]

"""The shared-memory worker pool: exact TED* blocks against one exported store.

One :class:`SharedWorkerPool` owns N worker processes.  Each worker's
initializer attaches an exported store segment
(:class:`repro.serving.shm.AttachedStore`) — a zero-copy int64 view, **no
per-worker pickle of the store and zero shard re-decodes** — and keeps a
lazy per-index cache of reconstructed :class:`~repro.trees.tree.Tree`
objects plus, for scipy-compatible backends, its own array-native batch
kernel.

The pool *is* a block dispatcher (see
:meth:`repro.ted.resolver.BoundedNedDistance.attach_block_dispatcher`), and
the only one: the NED service attaches it for its lifetime, and a
``executor="process"`` matrix build attaches one for the build's duration.
Calling it with an ``exact_many`` pair block either returns the values —
computed by splitting the block across the workers, each sub-block shipped
as bare ``(ref, ref)`` pairs where a ref is a store index (int) or a probe
parent array (list) — or returns ``None`` to decline, which sends the
block down the resolver's local path unchanged.  Declines happen for
blocks too small to amortise IPC (``min_pairs``) and permanently once the
pool fails (a crashed worker degrades the caller to local evaluation; it
never takes it down).  A ``restarts`` budget first replaces a broken pool
with a fresh one.  Values are bit-identical either way: workers run the
same batch kernel / per-pair matching the local path realises.

Worker telemetry is exported and folded: each block times itself into a
throwaway :class:`~repro.obs.MetricsRegistry`
(``serving.worker_block_seconds``, per-pid ``serving.worker.<pid>.blocks``)
and ships the snapshot back for the parent to
:meth:`~repro.obs.MetricsRegistry.merge`.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import DeadlineError, DistanceError, OverloadError
from repro.obs import MetricsRegistry
from repro.resilience.faults import ResilienceWarning
from repro.serving.shm import AttachedStore, StoreHandle, export_store
from repro.utils.timer import clock

#: A wire ref naming one tree in a dispatched pair: a store entry index, or
#: a probe's parent array.
Ref = Union[int, List[int]]

#: Blocks smaller than this are declined (evaluated locally): shipping a
#: couple of pairs over IPC costs more than computing them in place.
DEFAULT_MIN_PAIRS = 8


class _IndexedEntry:
    """A worker-side (tree, signature) holder the batch kernel memoizes on."""

    __slots__ = ("tree", "signature")

    def __init__(self, tree, signature: str) -> None:
        self.tree = tree
        self.signature = signature


class _WorkerStore:
    """Per-worker state: the attached segment + lazy tree reconstruction."""

    def __init__(self, handle: StoreHandle, backend: str) -> None:
        self.attached = AttachedStore(handle)
        self.k = handle.k
        self.backend = backend
        self._entries: Dict[int, _IndexedEntry] = {}
        from repro.ted.batch import BatchTedKernel, batch_available
        from repro.ted.resolver import KERNEL_BACKENDS

        # The kernel realises scipy's matching; any other backend (e.g.
        # hungarian) must keep its own tie-breaks, pair by pair.
        usable = backend in KERNEL_BACKENDS and batch_available()
        self.kernel = BatchTedKernel() if usable else None

    def resolve(self, ref: Ref):
        """Materialize one wire ref into what the kernel consumes."""
        from repro.trees.tree import Tree

        if isinstance(ref, int):
            entry = self._entries.get(ref)
            if entry is None:
                entry = _IndexedEntry(
                    Tree(self.attached.parent_array(ref)),
                    self.attached.signature(ref),
                )
                self._entries[ref] = entry
            return entry
        return Tree(list(ref))


# Installed by _init_worker; module-global because process pool initializers
# cannot return values to the tasks they precede.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(handle: StoreHandle, backend: str) -> None:
    """Attach the shared store once per worker process."""
    _WORKER_STATE["store"] = _WorkerStore(handle, backend)


def _warm_worker(delay: float) -> int:
    """Hold a worker busy briefly so every pool slot forks; returns its pid."""
    time.sleep(delay)
    return os.getpid()


def _evaluate_block(
    block: Sequence[Tuple[Ref, Ref]],
) -> Tuple[List[float], Dict[str, object]]:
    """Evaluate one sub-block in the worker; returns (values, snapshot)."""
    state: _WorkerStore = _WORKER_STATE["store"]  # type: ignore[assignment]
    registry = MetricsRegistry()
    started = clock()
    pairs = [(state.resolve(a), state.resolve(b)) for a, b in block]
    if state.kernel is not None:
        values = state.kernel.ted_star_block(pairs, k=state.k)
    else:
        from repro.ted.ted_star import ted_star

        values = [
            ted_star(
                getattr(a, "tree", a), getattr(b, "tree", b),
                k=state.k, backend=state.backend,
            )
            for a, b in pairs
        ]
    registry.observe("serving.worker_block_seconds", clock() - started)
    registry.inc(f"serving.worker.{os.getpid()}.blocks")
    return values, registry.snapshot()


class SharedWorkerPool:
    """N worker processes sharing one exported store; also the dispatcher.

    Parameters
    ----------
    handle:
        The :class:`~repro.serving.shm.StoreHandle` of an exported store,
        or ``None`` to have the pool export ``store`` itself at first use
        and unlink that segment in :meth:`close`.
    store:
        The parent-side store the handle was (or will be) exported from —
        used to map dispatched :class:`~repro.engine.tree_store.StoredTree`
        objects back to their entry index (validated by signature; a
        mismatch ships the probe's parent array instead of trusting the
        index).
    workers:
        Process count (>= 1).
    backend:
        The per-pair matching backend workers realise; must be the
        resolver's ``matching_backend`` for bit-identical values.
    metrics:
        Parent-side registry for dispatch counters and folded worker
        snapshots.
    min_pairs:
        Blocks smaller than this are declined (local evaluation).
    restarts:
        How many times a pool that breaks (:class:`BrokenExecutor`) is
        replaced by a fresh one before the pool gives up.  A restart forks,
        so multi-threaded callers (the NED service) keep the default 0.
    faults:
        A :class:`repro.resilience.FaultPlan`; activates the
        ``"executor.dispatch"`` site once per dispatched block.
    """

    def __init__(
        self,
        handle: Optional[StoreHandle],
        store,
        workers: int,
        backend: str = "auto",
        metrics: Optional[MetricsRegistry] = None,
        min_pairs: int = DEFAULT_MIN_PAIRS,
        restarts: int = 0,
        faults=None,
    ) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise DistanceError(f"workers must be a positive int, got {workers!r}")
        if min_pairs < 1:
            raise DistanceError(f"min_pairs must be >= 1, got {min_pairs}")
        self.handle = handle
        self.workers = workers
        self.backend = backend
        self.metrics = metrics
        self.min_pairs = min_pairs
        self.restarts = restarts
        self.faults = faults
        #: The error that made the pool give up (``None`` while healthy).
        self.failure: Optional[BaseException] = None
        self._store = store
        self._index_by_node = {
            node: index for index, node in enumerate(store.nodes())
        }
        self._export = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False

    # ----------------------------------------------------------- dispatching
    def _executor(self) -> ProcessPoolExecutor:
        """The live process pool; exports the store and forks on first use."""
        if self.handle is None:
            self._export = export_store(self._store, metrics=self.metrics)
            self.handle = self._export.handle
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self.handle, self.backend),
            )
        return self._pool

    def _ref(self, item) -> Ref:
        """Map one pair element to its wire ref (index, or probe parents)."""
        node = getattr(item, "node", None)
        if node is not None:
            index = self._index_by_node.get(node)
            if index is not None and self.handle.signatures[index] == getattr(
                item, "signature", None
            ):
                return index
        tree = getattr(item, "tree", item)
        return tree.parent_array()

    def _split(
        self, refs: List[Tuple[Ref, Ref]]
    ) -> List[List[Tuple[Ref, Ref]]]:
        """Balanced contiguous split of one block across the workers."""
        count = len(refs)
        ways = min(self.workers, count)
        return [
            refs[count * index // ways:count * (index + 1) // ways]
            for index in range(ways)
        ]

    def __call__(self, pairs: Sequence[Tuple[object, object]]) -> Optional[List[float]]:
        """The dispatcher contract: values, or ``None`` to decline.

        Service-protection errors (:class:`~repro.exceptions.DeadlineError`,
        :class:`~repro.exceptions.OverloadError`) propagate.  A broken pool
        is restarted while the ``restarts`` budget lasts (the block is then
        dispatched again); any other failure marks the pool failed, counts
        one ``serving.dispatch_fallbacks`` and declines this and every later
        block — the resolver's local path keeps computing bit-identical
        values.
        """
        if self.failure is not None or self._closed or len(pairs) < self.min_pairs:
            return None
        metrics = self.metrics
        started = clock() if metrics is not None else 0.0
        while True:
            try:
                pool = self._executor()
                if self.faults is not None:
                    # "kill" specs raise BrokenExecutor here, the same
                    # parent-side shape a dead worker produces.
                    self.faults.fire("executor.dispatch", kill_error=BrokenExecutor)
                refs = [(self._ref(a), self._ref(b)) for a, b in pairs]
                futures = [
                    pool.submit(_evaluate_block, chunk) for chunk in self._split(refs)
                ]
                outcomes = [future.result() for future in futures]
                break
            except (DeadlineError, OverloadError):
                raise
            except Exception as error:
                if isinstance(error, BrokenExecutor) and self.restarts > 0:
                    self._restart(error)
                    continue
                self._fail(error)
                return None
        values: List[float] = []
        for chunk_values, snapshot in outcomes:
            values.extend(chunk_values)
            if metrics is not None:
                metrics.merge(snapshot)
        if metrics is not None:
            metrics.observe("serving.dispatch_seconds", clock() - started)
            metrics.inc("serving.dispatch_blocks")
            metrics.inc("serving.dispatch_pairs", len(pairs))
        return values

    def _restart(self, error: BaseException) -> None:
        """Spend one restart: drop the broken pool; the next use forks anew."""
        self.restarts -= 1
        if self.metrics is not None:
            self.metrics.inc("executor.pool_restarts")
            self.metrics.inc("resilience.retries.executor.dispatch")
        warnings.warn(
            f"worker pool broke ({type(error).__name__}: {error}); "
            "restarting it",
            ResilienceWarning,
            stacklevel=3,
        )
        self._pool.shutdown(wait=True, cancel_futures=True)
        self._pool = None

    def _fail(self, error: BaseException) -> None:
        """Give up on the pool: count, warn, decline every later block."""
        self.failure = error
        if self.metrics is not None:
            self.metrics.inc("serving.dispatch_fallbacks")
        warnings.warn(
            f"worker pool failed ({type(error).__name__}: {error}); exact "
            "blocks are evaluated locally from now on",
            ResilienceWarning,
            stacklevel=3,
        )

    def warm(self, delay: float = 0.2) -> int:
        """Fork every worker process now; returns the distinct-pid count.

        ``ProcessPoolExecutor`` forks workers lazily at first submit — which,
        inside a running service, happens *after* the HTTP and tick-loop
        threads exist.  Forking a multi-threaded process is a deadlock
        hazard (a child can inherit a lock mid-acquisition and never finish
        a task, wedging ``shutdown(wait=True)``), so the server calls this
        from :meth:`NedServiceServer.start` while the process is still
        single-threaded.  Submitting ``workers`` tasks that each *sleep*
        keeps every already-forked worker busy, forcing the executor to
        spawn a fresh process for each submission.
        """
        try:
            pool = self._executor()
            futures = [pool.submit(_warm_worker, delay) for _ in range(self.workers)]
            pids = {future.result() for future in futures}
        except (DeadlineError, OverloadError):
            raise
        except Exception as error:
            self._fail(error)
            return 0
        return len(pids)

    # -------------------------------------------------------------- lifecycle
    @property
    def broken(self) -> bool:
        """True once a pool failure degraded dispatch to local evaluation."""
        return self.failure is not None

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker processes down (idempotent).

        A segment the pool exported itself is unlinked here too; a handle
        passed in belongs to its exporter (the server's
        :class:`~repro.serving.shm.StoreExport` unlinks it exactly once in
        its own close — including when this pool died first).
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
        if self._export is not None:
            self._export.close()

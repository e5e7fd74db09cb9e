"""Tiered TED* distance resolution: one cascade shared by every consumer.

Before this module existed, three places re-implemented "try cheap summaries
before paying for exact TED*": the search engine, the distance-matrix
builder, and (not at all) the metric indexes.  :class:`BoundedNedDistance`
consolidates that discipline — the same move data-skipping systems make when
they answer predicates from precomputed per-block summaries instead of
scanning the blocks.

The cascade runs the tiers of :data:`TIER_CASCADE` in order, each returning
a ``(lower, upper)`` interval on TED*:

1. ``"signature"`` — equal AHU canonical signatures ⇒ distance exactly 0.
2. ``"level-size"`` — O(k) bounds from per-level sizes.
3. ``"degree-multiset"`` — earth-mover-style per-level bounds from the child
   count multisets; the lower bound dominates the level-size one.  At
   ``k <= 3`` it *is* TED* (proof in :mod:`repro.ted.bounds`), so this tier
   closes the interval and decides every pair that reaches it: the cache
   and exact tiers below are only reached from ``k = 4`` on.
4. ``"cache"`` — the resolver's :class:`repro.ted.cache.DistanceCache`, an
   LRU of previously computed exact distances keyed by the ordered pair of
   canonical signatures; a hit closes the interval *exactly* without paying
   for a computation.  Sized per resolver (``cache_size``; 0 disables).
5. ``"exact"`` — the O(k·n³) TED* computation, paid only when the interval
   left by the cheap tiers still straddles the caller's decision boundary
   and the cache has never seen the signature pair; the result is routed
   back into the cache for the next probe.

Every exact evaluation takes one route, whoever asks for it:
:meth:`BoundedNedDistance.resolve_many` (cache lookups, within-block dedup)
hands the open pairs to :meth:`~BoundedNedDistance.exact_many`, which offers
the block to an attached dispatcher, else the batch kernel, else the
per-pair rung (per-pair ``ted_star`` behind the degradation ladder).
:meth:`~BoundedNedDistance.exact` is a one-pair ``resolve_many``, and
:meth:`~BoundedNedDistance.resolve` pays one only when ``bounds()`` leaves
the interval open.

Inputs are summary records (duck-typed: ``.tree``, ``.signature``,
``.level_sizes``, ``.degree_profiles`` — e.g.
:class:`repro.engine.tree_store.StoredTree`), so resolution never touches a
graph.  :meth:`BoundedNedDistance.survey` runs tiers 1–3 for one probe
against a whole store in a few numpy operations (:mod:`repro.ted.survey`),
with the same intervals and counters as a loop of
:meth:`~BoundedNedDistance.bounds`: every bound-pruned query and matrix
build takes its intervals from it, and ``bounds()`` stays as the per-pair
reference the survey is tested against.  Every tier evaluation and
every outcome (hit / decided / pruned / cached / exact) is recorded in
per-tier counters, which is how the benchmarks prove *where* exact
evaluations were skipped.

In the engine, resolvers are owned by :class:`repro.engine.session.NedSession`
— one warm resolver behind every query surface; construct one directly only
when working below the session layer.  The exact-distance cache and its
versioned sidecar live in :mod:`repro.ted.cache` (``resolver.cache.save`` /
``resolver.cache.load``; :func:`repro.ted.cache.merge_sidecars` compacts the
sidecars of parallel sweep workers into one warm file).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import DeadlineError, DistanceError, OverloadError
from repro.ted.bounds import (
    DEGREE_BOUND_EXACT_MAX_K,
    ted_star_degree_multiset_bounds,
    ted_star_level_size_bounds,
)
from repro.ted.cache import DistanceCache
from repro.ted.ted_star import ted_star
from repro.utils.timer import clock

SIGNATURE_TIER = "signature"
LEVEL_SIZE_TIER = "level-size"
DEGREE_TIER = "degree-multiset"
CACHE_TIER = "cache"
EXACT_TIER = "exact"
NO_TIER = "none"

#: Exact-tier backend that evaluates pair *blocks* through the array-native
#: kernel (:mod:`repro.ted.batch`); values are bit-identical to
#: ``backend="scipy"``, so it shares scipy's matching semantics everywhere a
#: backend string selects tie-break behaviour.
BATCH_BACKEND = "batch"
#: Backends whose values the batch kernel realises bit for bit (scipy's
#: matching semantics); any other backend must stay on per-pair TED*.
KERNEL_BACKENDS = ("auto", "scipy", BATCH_BACKEND)

#: Cheap tiers, in cascade order (exact is always the implicit last resort).
BOUND_TIERS = (SIGNATURE_TIER, LEVEL_SIZE_TIER, DEGREE_TIER)
#: Tier names of the codes in a :class:`repro.ted.survey.BoundSurvey`.
SURVEY_TIERS = (NO_TIER,) + BOUND_TIERS
#: The full resolution cascade.  The cache tier sits between the bound tiers
#: and exact but is controlled by ``cache_size`` (not the ``tiers``
#: selection), so it is not part of this tuple.
TIER_CASCADE = BOUND_TIERS + (EXACT_TIER,)

#: Cache capacity the engine components use unless told otherwise.
DEFAULT_CACHE_SIZE = 32768


@dataclass
class ResolutionCounters:
    """Per-tier telemetry of a :class:`BoundedNedDistance`.

    ``*_evaluations`` count how often a tier was computed; ``signature_hits``
    / ``decided_by_*`` count pairs a tier answered exactly; ``pruned_by_*``
    count pairs a tier excluded from a decision (threshold / kNN cut) without
    ever knowing their distance.  ``cache_hits`` / ``cache_misses`` count the
    lookups of the signature-keyed cache tier: every pair that reaches the
    exact path of a cache-enabled resolver performs exactly one lookup, so
    ``cache_hits + cache_misses`` equals the number of exact-path pairs and
    ``cache_misses`` bounds ``exact_evaluations`` from above.
    :class:`repro.engine.stats.EngineStats` extends this with engine-level
    counters and aggregate properties.
    """

    exact_evaluations: int = 0
    signature_hits: int = 0
    level_size_evaluations: int = 0
    degree_evaluations: int = 0
    decided_by_level_size: int = 0
    decided_by_degree: int = 0
    pruned_by_level_size: int = 0
    pruned_by_degree: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def merge(self, other: "ResolutionCounters") -> None:
        """Accumulate ``other`` into this instance (for running totals).

        Field-driven over the dataclass fields of ``other``: a future tier's
        counters (added as new dataclass fields, possibly on a subclass) are
        merged automatically.  Counters present on ``other`` but absent here
        raise instead of silently dropping from the totals.
        """
        mine = _field_names(type(self))
        theirs = _field_names(type(other))
        missing = [name for name in theirs if name not in mine]
        if missing:
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}: "
                f"counters {missing} would be silently dropped"
            )
        for name in theirs:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def copy(self) -> "ResolutionCounters":
        """Return an independent snapshot of the current counts."""
        return type(self)(**{name: getattr(self, name) for name in _field_names(type(self))})

    def since(self, snapshot: "ResolutionCounters") -> "ResolutionCounters":
        """Return the counter deltas accumulated after ``snapshot``.

        Field-driven like :meth:`merge`; the snapshot must cover exactly this
        instance's counter fields (a :meth:`copy` always does), otherwise a
        field would be silently dropped from — or missing in — the delta.
        """
        mine = _field_names(type(self))
        theirs = _field_names(type(snapshot))
        if set(theirs) != set(mine):
            raise TypeError(
                f"cannot diff {type(self).__name__} against {type(snapshot).__name__}: "
                f"counter fields differ ({sorted(set(mine) ^ set(theirs))})"
            )
        return type(self)(
            **{name: getattr(self, name) - getattr(snapshot, name) for name in mine}
        )


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """The dataclass field names of a counter class, looked up once per class."""
    return tuple(spec.name for spec in fields(cls))


@dataclass(frozen=True)
class ResolutionInterval:
    """A ``[lower, upper]`` interval on TED* produced by the bound tiers.

    ``tier`` names the tier that supplied the governing (largest) lower
    bound — the tier credited when the interval later prunes or decides the
    pair.  ``exact`` is true when the interval pins a single value, which the
    consumer may use without paying for a TED* computation.
    """

    lower: float
    upper: float
    tier: str

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def excludes(self, threshold: float) -> bool:
        """True when the whole interval lies beyond ``threshold``."""
        return self.lower > threshold

    def straddles(self, threshold: float) -> bool:
        """True when only an exact evaluation can settle ``<= threshold``."""
        return self.lower <= threshold < self.upper


class BoundedNedDistance:
    """Staged TED* resolution with per-tier counters.

    Parameters
    ----------
    k:
        Number of tree levels compared (must match the summaries' ``k``).
    backend:
        Bipartite matching backend forwarded to exact TED* (``"auto"``
        picks SciPy when available).  ``"batch"`` selects the array-native
        block kernel (:mod:`repro.ted.batch`) for the exact tier — values
        stay bit-identical to scipy's (see :attr:`matching_backend`), and
        sessions attach the same kernel automatically under ``"auto"`` when
        the store side-channel and SciPy are available.
    tiers:
        Which cheap tiers to run, any subset of :data:`BOUND_TIERS`; order is
        normalised to cascade order.  ``None`` enables all of them.  The
        exact tier cannot be disabled — it is the cascade's last resort.
    counters:
        Optional externally owned :class:`ResolutionCounters` (the engine
        passes an :class:`repro.engine.stats.EngineStats`); a private one is
        created when omitted.
    cache_size:
        Capacity of the signature-keyed LRU distance cache that sits between
        the bound tiers and exact TED* (0, the default, disables it).  TED*
        is a pure function of the two isomorphism classes, so a hit returns
        the exact distance; repeated probes — kNN for every node,
        permutation sweeps — are answered from memory.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry` (duck-typed —
        only ``observe`` is called).  When attached, every tier evaluation
        additionally records its latency into ``resolver.<tier>_seconds``
        histograms, turning the per-tier *counts* into per-tier *time*.
        ``None`` (the default) keeps resolution free of clock reads.

    Example
    -------
    >>> from repro.engine.tree_store import TreeStore
    >>> from repro.graph.generators import grid_road_graph
    >>> store = TreeStore.from_graph(grid_road_graph(4, 4, seed=1), k=2)
    >>> resolver = BoundedNedDistance(k=2)
    >>> resolver.distance(store.entry(0), store.entry(5)) >= 0
    True
    """

    def __init__(
        self,
        k: int,
        backend: str = "auto",
        tiers: Optional[Sequence[str]] = None,
        counters: Optional[ResolutionCounters] = None,
        cache_size: int = 0,
        metrics=None,
    ) -> None:
        requested = BOUND_TIERS if tiers is None else tuple(tiers)
        unknown = [tier for tier in requested if tier not in BOUND_TIERS]
        if unknown:
            raise DistanceError(
                f"unknown bound tiers {unknown}; expected a subset of {BOUND_TIERS}"
            )
        self.k = k
        self.backend = backend
        self.tiers: Tuple[str, ...] = tuple(t for t in BOUND_TIERS if t in requested)
        self.counters = counters if counters is not None else ResolutionCounters()
        #: The signature-keyed exact-distance cache tier (and its sidecar).
        self.cache = DistanceCache(cache_size, k, self.matching_backend)
        self.metrics = metrics
        self._batch_kernel = None
        # Optional block dispatcher (attach_block_dispatcher): offered every
        # exact block before the local kernels; None means local-only.
        self._block_dispatcher = None
        # Resilience wiring (attach_resilience): a FaultPlan activates the
        # kernel/sidecar fault sites, the breakers guard the exact-tier
        # degradation ladder (batch -> per-pair scipy -> hungarian), and a
        # per-plan Deadline is pushed down by the session around execution.
        self.faults = None
        self._deadline = None
        self._batch_breaker = None
        self._pair_breaker = None
        self._warned_degrades: set = set()
        if backend == BATCH_BACKEND:
            from repro.ted.batch import BatchTedKernel, batch_available

            if not batch_available():
                raise DistanceError(
                    "backend='batch' needs numpy and SciPy for the array-native "
                    "TED* kernel; use backend='auto' to fall back gracefully"
                )
            self._batch_kernel = BatchTedKernel()

    # ----------------------------------------------------------- batch kernel
    @property
    def matching_backend(self) -> str:
        """The per-pair matching backend this resolver's values realise.

        ``"batch"`` is an exact-*tier* strategy, not a matching strategy: its
        values are bit-identical to scipy's, so consumers that forward a
        backend string to per-pair code (process-pool workers, the sidecar
        header, the fallback path) must use this instead of ``backend``.
        """
        return "scipy" if self.backend == BATCH_BACKEND else self.backend

    @property
    def batch_active(self) -> bool:
        """True when blocks are evaluated by the array-native kernel."""
        return self._batch_kernel is not None

    @property
    def batch_kernel(self):
        """The attached :class:`repro.ted.batch.BatchTedKernel`, if any."""
        return self._batch_kernel

    def attach_batch_kernel(self, kernel) -> bool:
        """Adopt an array-native batch kernel for block evaluation.

        Returns True when the kernel was attached.  Attachment is refused
        (False) when it could change values: the kernel realises scipy's
        matching semantics, so only the scipy-compatible backends
        (``"auto"`` resolving to scipy, ``"scipy"``, ``"batch"``) may adopt
        it, and only when numpy/SciPy are importable.  Passing ``None``
        detaches — except under ``backend="batch"``, whose contract *is* the
        kernel.
        """
        if kernel is None:
            if self.backend == BATCH_BACKEND:
                raise DistanceError(
                    "backend='batch' requires its batch kernel; construct a "
                    "resolver with a per-pair backend instead of detaching"
                )
            self._batch_kernel = None
            return False
        if self.backend not in KERNEL_BACKENDS:
            return False
        from repro.ted.batch import batch_available

        if not batch_available():
            return False
        self._batch_kernel = kernel
        return True

    def attach_block_dispatcher(self, dispatcher) -> None:
        """Offer exact blocks to ``dispatcher`` before evaluating locally.

        ``dispatcher`` is any callable taking the :meth:`exact_many` pair
        block and returning the list of values — or ``None`` to decline, in
        which case the block runs on the local path unchanged.  This is the
        serving layer's offload seam: the service's worker pool evaluates
        declined-or-dispatched blocks against the shared-memory store, and
        because both sides realise the same matching backend the values are
        bit-identical either way.  The dispatcher owns its failure policy
        (fall back locally on pool trouble), but must let service-protection
        errors (``DeadlineError``/``OverloadError``) propagate.  Pass
        ``None`` to detach.
        """
        self._block_dispatcher = dispatcher

    @property
    def block_dispatcher(self):
        """The attached block dispatcher, or ``None``."""
        return self._block_dispatcher

    # -------------------------------------------------------------- resilience
    def attach_resilience(
        self,
        faults=None,
        breaker_threshold: Optional[int] = 3,
        breaker_cooldown: float = 1.0,
    ) -> None:
        """Wire fault injection and the exact-tier circuit breakers.

        ``faults`` (a :class:`repro.resilience.FaultPlan`) activates the
        ``"kernel.batch"`` / ``"kernel.pair"`` / ``"sidecar.load"`` /
        ``"sidecar.save"`` sites.  ``breaker_threshold``/``breaker_cooldown``
        configure two :class:`~repro.resilience.CircuitBreaker` guards on
        the exact-tier degradation ladder:

        * ``exact-batch`` — repeated batch-kernel failures degrade blocks to
          the per-pair path.  Values are **bit-identical** (the kernel
          realises scipy matching), so this rung trades only speed.
        * ``exact-pair`` — repeated per-pair failures on a scipy-compatible
          backend degrade to the dependency-free hungarian backend.  This
          rung trades availability over strict reproducibility: rare tie
          pairs may realise a different (equally optimal) matching, which
          the degrade warning spells out.

        ``breaker_threshold=None`` removes the breakers.  Sessions call this
        when a policy is active; bare resolvers stay unguarded.
        """
        from repro.resilience.policies import CircuitBreaker

        self.faults = faults
        self.cache.faults = faults
        if breaker_threshold is None:
            self._batch_breaker = None
            self._pair_breaker = None
            return
        self._batch_breaker = CircuitBreaker(
            "exact-batch", threshold=breaker_threshold,
            cooldown=breaker_cooldown, metrics=self.metrics,
        )
        self._pair_breaker = CircuitBreaker(
            "exact-pair", threshold=breaker_threshold,
            cooldown=breaker_cooldown, metrics=self.metrics,
        )

    def set_deadline(self, deadline) -> None:
        """Install (or clear) the cooperative per-plan deadline.

        The session pushes a :class:`repro.resilience.Deadline` here around
        each plan execution; the exact tiers check it per evaluation/block,
        so a slow or delay-faulted plan raises a typed
        :class:`~repro.exceptions.DeadlineError` instead of running away.
        """
        self._deadline = deadline

    def check_deadline(self, site: str = "resolver.exact") -> None:
        """Raise when the installed deadline (if any) is spent."""
        if self._deadline is not None:
            self._deadline.check(site)

    def breaker_states(self) -> Optional[Dict[str, Dict[str, object]]]:
        """Breaker telemetry for ``metrics_snapshot()``; None when unguarded."""
        if self._batch_breaker is None:
            return None
        return {
            self._batch_breaker.name: self._batch_breaker.as_dict(),
            self._pair_breaker.name: self._pair_breaker.as_dict(),
        }

    def _record_degrade(self, rung: str, from_backend: str, to_backend: str, error) -> None:
        """Count + warn (once per transition) about a ladder degrade."""
        if self.metrics is not None:
            self.metrics.inc("resilience.degrades")
            self.metrics.inc(f"resilience.degrades.{rung}")
        transition = (rung, from_backend, to_backend)
        if transition in self._warned_degrades:
            return
        self._warned_degrades.add(transition)
        from repro.resilience.faults import ResilienceWarning

        identical = (
            "values are bit-identical"
            if rung == "exact-batch"
            else "rare tie pairs may realise a different optimal matching"
        )
        warnings.warn(
            f"exact tier degraded {from_backend!r} -> {to_backend!r} after "
            f"{type(error).__name__}: {error} ({identical})",
            ResilienceWarning,
            stacklevel=3,
        )

    def _pair_exact(self, tree_a, tree_b) -> float:
        """One exact TED* through the per-pair rung of the ladder.

        Unguarded resolvers call straight through.  Guarded ones try the
        scipy-compatible backend while its breaker allows, degrade the
        failing pair to hungarian (counting + warning), and skip straight
        to hungarian while the breaker is open; the half-open probe after
        the cool-down reopens the fast path.
        """
        breaker = self._pair_breaker
        backend = self.matching_backend
        if breaker is None:
            if self.faults is not None:
                self.faults.fire("kernel.pair")
            return ted_star(tree_a, tree_b, k=self.k, backend=backend)
        if backend != "hungarian" and breaker.allows():
            try:
                if self.faults is not None:
                    self.faults.fire("kernel.pair")
                value = ted_star(tree_a, tree_b, k=self.k, backend=backend)
            except (DeadlineError, OverloadError):
                raise  # service-protection errors are not backend failures
            except Exception as error:
                breaker.record_failure()
                self._record_degrade("exact-pair", backend, "hungarian", error)
            else:
                breaker.record_success()
                return value
        return ted_star(tree_a, tree_b, k=self.k, backend="hungarian")

    def exact_many(self, pairs: Sequence[Tuple[object, object]]) -> List[float]:
        """Evaluate a block of pairs on the raw exact tier.

        No cache lookups, no counters — this is the block-shaped equivalent
        of calling ``ted_star`` directly; callers own the bookkeeping (as
        :meth:`resolve_many` does).  With a batch kernel attached the whole
        block goes through the array-native path (latency recorded in the
        ``resolver.exact_batch_seconds`` histogram); otherwise it degrades
        to the per-pair rung on :attr:`matching_backend`, which checks the
        deadline before every pair and records each pair's latency in
        ``resolver.exact_seconds``.  Under an attached breaker, batch-kernel
        failures degrade the block to the per-pair rung (bit-identical
        values) instead of failing the build.  An error part-way through
        the per-pair rung carries the values of the pairs finished before
        it as ``finished_values``, which :meth:`resolve_many` commits.
        """
        if not pairs:
            return []
        self.check_deadline("resolver.exact_many")
        dispatcher = self._block_dispatcher
        if dispatcher is not None:
            dispatched = dispatcher(pairs)
            if dispatched is not None:
                return dispatched
        kernel = self._batch_kernel
        if kernel is not None:
            breaker = self._batch_breaker
            if breaker is None:
                if self.faults is not None:
                    self.faults.fire("kernel.batch")
                return self._kernel_block(kernel, pairs)
            if breaker.allows():
                try:
                    if self.faults is not None:
                        self.faults.fire("kernel.batch")
                    values = self._kernel_block(kernel, pairs)
                except (DeadlineError, OverloadError):
                    raise
                except Exception as error:
                    breaker.record_failure()
                    self._record_degrade(
                        "exact-batch", BATCH_BACKEND, self.matching_backend, error
                    )
                else:
                    breaker.record_success()
                    return values
        values: List[float] = []
        try:
            for first, second in pairs:
                self.check_deadline("resolver.exact")
                values.append(
                    self._timed(
                        "resolver.exact_seconds", self._pair_exact, first.tree, second.tree
                    )
                )
        except BaseException as error:
            # resolve_many commits the finished prefix before re-raising.
            error.finished_values = values
            raise
        return values

    def _kernel_block(self, kernel, pairs: Sequence[Tuple[object, object]]) -> List[float]:
        """Run one block through the batch kernel, timing it when measured."""
        if self.metrics is None:
            return kernel.ted_star_block(pairs, k=self.k)
        started = clock()
        values = kernel.ted_star_block(pairs, k=self.k)
        self.metrics.observe("resolver.exact_batch_seconds", clock() - started)
        return values

    def resolve_many(
        self,
        pairs: Sequence[Tuple[object, object]],
        block_size: Optional[int] = None,
        evaluate=None,
    ) -> List[Tuple[float, ResolutionInterval]]:
        """Resolve a block of pairs on the exact path: the cache, then exact.

        Counter-for-counter equivalent to calling :meth:`exact` on the pairs
        one at a time in order, with one deliberate refinement: pairs whose
        cache key repeats *within the block* are deduplicated — the first
        occurrence pays the exact evaluation and followers are counted as
        cache hits, exactly as they would be had the pairs been resolved
        sequentially.  The surviving distinct pairs are evaluated in blocks
        of at most ``block_size`` pairs (default: one block) via
        :meth:`exact_many`, which is where an attached batch kernel or block
        dispatcher pays off; ``evaluate`` stands in for :meth:`exact_many`
        as the block evaluator (the matrix builder passes a timed wrapper).
        Each block's values are cached and counted as soon as it returns,
        and an error part-way (a ``DeadlineError``, say) still commits the
        pairs finished before it, so a retry pays only for the rest.
        """
        results: List[Optional[float]] = [None] * len(pairs)
        intervals: List[Optional[ResolutionInterval]] = [None] * len(pairs)
        pending: List[int] = []
        pending_keys: List[Optional[Tuple[str, str]]] = []
        owners: Dict[Tuple[str, str], int] = {}
        followers: Dict[int, List[int]] = {}
        cache = self.cache
        for index, (first, second) in enumerate(pairs):
            key = cache.key(first, second)
            if key is not None:
                owner = owners.get(key)
                if owner is not None:
                    # Deferred hit: sequential resolution would find the
                    # owner's freshly cached value here.
                    self.counters.cache_hits += 1
                    followers.setdefault(owner, []).append(index)
                    continue
                cached = self._timed("resolver.cache_lookup_seconds", cache.get, key)
                if cached is None:
                    self.counters.cache_misses += 1
                else:
                    self.counters.cache_hits += 1
                    results[index] = cached
                    intervals[index] = ResolutionInterval(cached, cached, CACHE_TIER)
                    continue
                owners[key] = len(pending)
            pending.append(index)
            pending_keys.append(key)

        def commit(offset: int, values: Sequence[float]) -> None:
            # Cache entries, counters and results land block by block.
            self.counters.exact_evaluations += len(values)
            for slot, value in enumerate(values, start=offset):
                key = pending_keys[slot]
                if key is not None:
                    cache.put(key, value)
                results[pending[slot]] = value
                intervals[pending[slot]] = ResolutionInterval(value, value, EXACT_TIER)
                for follower in followers.get(slot, ()):
                    results[follower] = value
                    intervals[follower] = ResolutionInterval(value, value, CACHE_TIER)

        evaluate = self.exact_many if evaluate is None else evaluate
        step = block_size or max(len(pending), 1)
        for offset in range(0, len(pending), step):
            block = [pairs[index] for index in pending[offset:offset + step]]
            try:
                values = evaluate(block)
            except BaseException as error:
                # The pairs the block finished before the error (the
                # per-pair rung attaches them) are committed, so a retry
                # does not pay for them again.
                commit(offset, getattr(error, "finished_values", ()))
                raise
            commit(offset, values)
        return list(zip(results, intervals))

    # ------------------------------------------------------------ bound tiers
    def _timed(self, name: str, func, *args, **kwargs):
        """Call ``func`` and, when a registry is attached, record its latency."""
        if self.metrics is None:
            return func(*args, **kwargs)
        started = clock()
        result = func(*args, **kwargs)
        self.metrics.observe(name, clock() - started)
        return result

    def bounds(self, first, second) -> ResolutionInterval:
        """Run the cheap tiers only; never computes an exact TED*.

        Stops at the first tier that pins the distance (``lower == upper``);
        later tiers cannot improve a closed interval.
        """
        counters = self.counters
        if SIGNATURE_TIER in self.tiers and first.signature == second.signature:
            counters.signature_hits += 1
            return ResolutionInterval(0.0, 0.0, SIGNATURE_TIER)
        lower, upper = 0.0, math.inf
        tier = NO_TIER
        if LEVEL_SIZE_TIER in self.tiers:
            counters.level_size_evaluations += 1
            size_lower, size_upper = self._timed(
                "resolver.level_size_seconds",
                ted_star_level_size_bounds,
                first.level_sizes,
                second.level_sizes,
            )
            lower, upper, tier = float(size_lower), float(size_upper), LEVEL_SIZE_TIER
            if lower == upper:
                return ResolutionInterval(lower, upper, tier)
        if DEGREE_TIER in self.tiers:
            counters.degree_evaluations += 1
            degree_lower, degree_upper = self._timed(
                "resolver.degree_seconds",
                ted_star_degree_multiset_bounds,
                first.degree_profiles,
                second.degree_profiles,
            )
            # Credited when it beats the level-size lower bound or pins the
            # distance (every pair it evaluates at k <= 3).
            if float(degree_lower) > lower or degree_lower == degree_upper:
                lower, tier = float(degree_lower), DEGREE_TIER
            upper = min(upper, float(degree_upper))
        return ResolutionInterval(lower, upper, tier)

    def survey(self, probe, store, start: int = 0):
        """Run the cheap tiers of ``probe`` against every entry of ``store``.

        The array-native form of calling :meth:`bounds` for each entry from
        position ``start`` on, in build order: it returns a
        :class:`repro.ted.survey.BoundSurvey` with the same intervals and
        tiers (codes into :data:`SURVEY_TIERS`) and adds the same counter
        increments.  ``store`` is any store with ``packed_summaries()``
        (its memoized arrays are reused across probes); numpy is required.
        Outcomes are credited separately, as with :meth:`bounds`
        (:meth:`record_decided_many` / :meth:`record_pruned_many`).  At
        ``k <= 3`` with the degree tier on, every interval is closed.
        """
        from repro.ted.survey import survey_intervals

        if store.k != self.k:
            raise DistanceError(
                f"cannot survey a store with k={store.k}; this resolver compares "
                f"k={self.k} levels"
            )
        packed = store.packed_summaries()
        result = self._timed(
            "resolver.survey_seconds",
            survey_intervals,
            packed,
            probe,
            signature=SIGNATURE_TIER in self.tiers,
            level_size=LEVEL_SIZE_TIER in self.tiers,
            degree=DEGREE_TIER in self.tiers,
            start=start,
        )
        counters = self.counters
        counters.signature_hits += result.signature_hits
        counters.level_size_evaluations += result.level_size_evaluations
        counters.degree_evaluations += result.degree_evaluations
        return result

    @property
    def closed_form(self) -> bool:
        """True when :meth:`bounds`/:meth:`survey` pin every pair they see.

        That is the case at ``k <= 3`` with the degree tier enabled, where
        the degree-multiset lower bound is TED* (proof in
        :mod:`repro.ted.bounds`); block consumers then answer from the
        survey and skip the cache and the exact tier altogether.
        """
        return DEGREE_TIER in self.tiers and self.k <= DEGREE_BOUND_EXACT_MAX_K

    # ------------------------------------------------------------- exact tier
    def exact(self, first, second) -> float:
        """Resolve a pair on the exact path: a one-pair :meth:`resolve_many`."""
        return self.resolve_many([(first, second)])[0][0]

    # -------------------------------------------------------------- outcomes
    def record_pruned(self, interval: ResolutionInterval) -> None:
        """Credit ``interval``'s tier with excluding a pair from a decision."""
        if interval.tier == LEVEL_SIZE_TIER:
            self.counters.pruned_by_level_size += 1
        elif interval.tier == DEGREE_TIER:
            self.counters.pruned_by_degree += 1

    def record_pruned_many(self, survey, mask) -> None:
        """:meth:`record_pruned` for every masked candidate of a survey."""
        level_size, degree = survey.credits(mask)
        self.counters.pruned_by_level_size += level_size
        self.counters.pruned_by_degree += degree

    def record_decided_many(self, survey, mask) -> None:
        """:meth:`record_decided` for every masked candidate of a survey."""
        level_size, degree = survey.credits(mask)
        self.counters.decided_by_level_size += level_size
        self.counters.decided_by_degree += degree

    def record_decided(self, interval: ResolutionInterval) -> None:
        """Credit ``interval``'s tier with pinning a pair's distance.

        Signature hits are already counted when :meth:`bounds` detects them,
        so they are not double-counted here.
        """
        if interval.tier == LEVEL_SIZE_TIER:
            self.counters.decided_by_level_size += 1
        elif interval.tier == DEGREE_TIER:
            self.counters.decided_by_degree += 1

    # -------------------------------------------------------- full resolution
    def resolve(
        self, first, second, threshold: Optional[float] = None
    ) -> Tuple[Optional[float], ResolutionInterval]:
        """Run the full cascade for one pair.

        Returns ``(value, interval)``.  With a ``threshold``, a pair whose
        interval already lies beyond it is excluded without an exact
        evaluation — ``value`` is ``None`` and the pruning is credited to the
        responsible tier.  Otherwise ``value`` is the exact distance, paid
        for only when the cheap tiers left the interval open.
        """
        interval = self.bounds(first, second)
        if threshold is not None and interval.excludes(threshold):
            self.record_pruned(interval)
            return None, interval
        if interval.exact:
            self.record_decided(interval)
            return interval.lower, interval
        return self.resolve_many([(first, second)])[0]

    def distance(self, first, second) -> float:
        """Return the exact distance through the cascade (never prunes)."""
        value, _ = self.resolve(first, second)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundedNedDistance(k={self.k}, tiers={self.tiers})"

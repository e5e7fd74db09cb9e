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
4. ``"cache"`` — an LRU memory of previously computed exact distances,
   keyed by the ordered pair of canonical signatures.  TED* is a pure
   function of the two isomorphism classes (the kernel canonicalizes its
   inputs), so a hit closes the interval *exactly* without paying for a
   computation.  Sized per resolver (``cache_size``; 0 disables).
5. ``"exact"`` — the O(k·n³) TED* computation, paid only when the interval
   left by the cheap tiers still straddles the caller's decision boundary
   and the cache has never seen the signature pair; the result is routed
   back into the cache for the next probe.

Inputs are summary records (duck-typed: ``.tree``, ``.signature``,
``.level_sizes``, ``.degree_profiles`` — e.g.
:class:`repro.engine.tree_store.StoredTree`), so resolution never touches a
graph.  :meth:`BoundedNedDistance.survey` runs tiers 1–3 for one probe
against a whole store in a few array operations (:mod:`repro.ted.survey`),
with the same intervals and counters as a loop of
:meth:`~BoundedNedDistance.bounds`; the matrix builder and exact-mode scans
use it whenever the batch kernel is active.  Every tier evaluation and
every outcome (hit / decided / pruned / cached / exact) is recorded in
per-tier counters, which is how the benchmarks prove *where* exact
evaluations were skipped.

In the engine, resolvers are owned by :class:`repro.engine.session.NedSession`
— one warm resolver behind every query surface; construct one directly only
when working below the session layer.  The exact-distance cache persists as
a versioned *sidecar* (:meth:`BoundedNedDistance.save_cache` /
:meth:`~BoundedNedDistance.load_cache` / :meth:`~BoundedNedDistance.warm_from`),
since format v2 with per-entry hit counts so overflowing loads keep the
hottest entries; :func:`merge_sidecars` compacts the sidecars of parallel
sweep workers into one warm file.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import DeadlineError, DistanceError, OverloadError
from repro.ted.bounds import (
    DEGREE_BOUND_EXACT_MAX_K,
    ted_star_degree_multiset_bounds,
    ted_star_level_size_bounds,
)
from repro.ted.ted_star import ted_star
from repro.utils.io import atomic_pickle_dump, load_validated_payload
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

# On-disk format of the exact-distance cache sidecar (mirrors the TreeStore
# header discipline: a format marker plus an integer version, validated
# before any entry is decoded).  Version 2 added per-entry hit counts, so an
# overflowing load keeps the *hottest* entries instead of the newest;
# version-1 sidecars still load (their entries carry zero hits, which makes
# the hotness tie-break fall back to recency — the v1 behaviour).
_CACHE_FORMAT = "repro-ned-cache"
_CACHE_VERSION = 2
_CACHE_SUPPORTED_VERSIONS = (1, 2)

#: One sidecar entry: (signature_a, signature_b, distance, hit_count).
CacheEntry = Tuple[str, str, float, int]


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

        Field-driven over ``dataclasses.fields(other)``: a future tier's
        counters (added as new dataclass fields, possibly on a subclass) are
        merged automatically.  Counters present on ``other`` but absent here
        raise instead of silently dropping from the totals.
        """
        mine = {spec.name for spec in fields(self)}
        theirs = [spec.name for spec in fields(other)]
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
        return type(self)(**{spec.name: getattr(self, spec.name) for spec in fields(self)})

    def since(self, snapshot: "ResolutionCounters") -> "ResolutionCounters":
        """Return the counter deltas accumulated after ``snapshot``.

        Field-driven like :meth:`merge`; the snapshot must cover exactly this
        instance's counter fields (a :meth:`copy` always does), otherwise a
        field would be silently dropped from — or missing in — the delta.
        """
        mine = [spec.name for spec in fields(self)]
        theirs = {spec.name for spec in fields(snapshot)}
        if theirs != set(mine):
            raise TypeError(
                f"cannot diff {type(self).__name__} against {type(snapshot).__name__}: "
                f"counter fields differ ({sorted(set(mine) ^ theirs)})"
            )
        return type(self)(
            **{name: getattr(self, name) - getattr(snapshot, name) for name in mine}
        )


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
        if cache_size < 0:
            raise DistanceError(f"cache_size must be >= 0, got {cache_size}")
        self.k = k
        self.backend = backend
        self.tiers: Tuple[str, ...] = tuple(t for t in BOUND_TIERS if t in requested)
        self.counters = counters if counters is not None else ResolutionCounters()
        self.cache_size = cache_size
        self.metrics = metrics
        self._cache: "OrderedDict[Tuple[str, str], float]" = OrderedDict()
        # Lifetime lookup hits per resident entry; persisted in the sidecar
        # (format v2) so a later overflowing load keeps the hottest entries.
        self._cache_uses: Dict[Tuple[str, str], int] = {}
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
        backend string to per-pair code (process-pool workers, sidecar
        warmup, the fallback path) must use this instead of ``backend``.
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
        if self.backend not in ("auto", "scipy", BATCH_BACKEND):
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
        the matrix builder does).  With a batch kernel attached the whole
        block goes through the array-native path (latency recorded in the
        ``resolver.exact_batch_seconds`` histogram); otherwise it degrades
        to a per-pair loop on :attr:`matching_backend`.  Under an attached
        breaker, batch-kernel failures degrade the block to the per-pair
        path (bit-identical values) instead of failing the build.
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
        return [self._pair_exact(first.tree, second.tree) for first, second in pairs]

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
        threshold: Optional[float] = None,
        bounds: bool = True,
    ) -> List[Tuple[Optional[float], ResolutionInterval]]:
        """Run the cascade over a block of pairs, batching the exact tier.

        Counter-for-counter equivalent to calling :meth:`resolve` (or, with
        ``bounds=False``, :meth:`exact`) per pair in order, with one
        deliberate refinement shared with the matrix builder: pairs whose
        cache key repeats *within the block* are deduplicated — the first
        occurrence pays the exact evaluation and followers are counted as
        cache hits, exactly as they would be had the pairs been resolved
        sequentially.  The surviving distinct pairs are evaluated as one
        block via :meth:`exact_many`, which is where an attached batch
        kernel pays off.
        """
        results: List[Optional[float]] = [None] * len(pairs)
        intervals: List[Optional[ResolutionInterval]] = [None] * len(pairs)
        pending: List[int] = []
        pending_keys: List[Optional[Tuple[str, str]]] = []
        owners: Dict[Tuple[str, str], int] = {}
        followers: Dict[int, List[int]] = {}
        for index, (first, second) in enumerate(pairs):
            if bounds:
                interval = self.bounds(first, second)
                if threshold is not None and interval.excludes(threshold):
                    self.record_pruned(interval)
                    intervals[index] = interval
                    continue
                if interval.exact:
                    self.record_decided(interval)
                    results[index] = interval.lower
                    intervals[index] = interval
                    continue
            key = self.cache_key(first, second)
            if key is not None:
                owner = owners.get(key)
                if owner is not None:
                    # Deferred hit: sequential resolution would find the
                    # owner's freshly cached value here.
                    self.counters.cache_hits += 1
                    followers.setdefault(owner, []).append(index)
                    continue
                cached = self._timed(
                    "resolver.cache_lookup_seconds", self.cache_get, key
                )
                if cached is not None:
                    results[index] = cached
                    intervals[index] = ResolutionInterval(cached, cached, CACHE_TIER)
                    continue
                owners[key] = len(pending)
            pending.append(index)
            pending_keys.append(key)
        if pending:
            values = self.exact_many([pairs[index] for index in pending])
            self.counters.exact_evaluations += len(pending)
            for slot, index in enumerate(pending):
                value = values[slot]
                key = pending_keys[slot]
                if key is not None:
                    self.cache_put(key, value)
                results[index] = value
                intervals[index] = ResolutionInterval(value, value, EXACT_TIER)
                for follower in followers.get(slot, ()):
                    results[follower] = value
                    intervals[follower] = ResolutionInterval(value, value, CACHE_TIER)
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

    # ------------------------------------------------------------- cache tier
    def cache_key(self, first, second) -> Optional[Tuple[str, str]]:
        """Return the cache key for a pair, or ``None`` when caching is off.

        The key is the *ordered* pair of canonical signatures (TED* is
        symmetric), so (a, b) and (b, a) share one entry.  Keying by
        signature is sound because the kernel canonicalizes its inputs: the
        distance is a pure function of the two isomorphism classes.
        """
        if not self.cache_size:
            return None
        a, b = first.signature, second.signature
        return (a, b) if a <= b else (b, a)

    def cache_get(self, key: Tuple[str, str]) -> Optional[float]:
        """Look up one exact-path pair in the cache (always counted).

        Every exact-path pair of a cache-enabled resolver performs exactly
        one lookup, so ``cache_hits + cache_misses`` counts those pairs.
        """
        value = self._cache.get(key)
        if value is None:
            self.counters.cache_misses += 1
            return None
        self._cache.move_to_end(key)
        self.counters.cache_hits += 1
        self._cache_uses[key] = self._cache_uses.get(key, 0) + 1
        return value

    def cache_put(self, key: Tuple[str, str], value: float) -> None:
        """Store an exact distance, evicting least-recently-used entries."""
        self._cache[key] = value
        self._cache.move_to_end(key)
        self._cache_uses.setdefault(key, 0)
        while len(self._cache) > self.cache_size:
            evicted, _ = self._cache.popitem(last=False)
            self._cache_uses.pop(evicted, None)

    def cache_len(self) -> int:
        """Return the number of cached distances."""
        return len(self._cache)

    def cache_clear(self) -> None:
        """Drop every cached distance (counters are left untouched)."""
        self._cache.clear()
        self._cache_uses.clear()

    # ------------------------------------------------------ cache persistence
    def save_cache(self, path: Union[str, Path]) -> int:
        """Persist the exact-distance cache as a sidecar file at ``path``.

        The sidecar records the resolver's ``k`` (distances are only
        comparable at equal ``k``) and :attr:`matching_backend` (tie pairs
        may admit several optimal matchings, so values are only guaranteed
        reproducible under the matching semantics that produced them —
        ``backend="batch"`` realises scipy's, so its sidecars interoperate
        with ``backend="scipy"`` resolvers) next to the signature-keyed
        entries, in LRU order (oldest first), each with its lifetime hit
        count (format v2).  Returns the number of entries written.  A sweep
        writes the sidecar once at the end of a run; the next process
        attaches it with :meth:`load_cache` or :meth:`warm_from` and answers
        the repeated pairs from memory.
        """
        if self.faults is not None and self.faults.fire("sidecar.save"):
            # Corruption at the save site means the *new* bytes are bad, but
            # atomic_pickle_dump's temp-write + rename discipline still
            # applies — so we simulate the nearest reachable failure, a torn
            # write detected before the rename, as a typed error.  The
            # previous sidecar on disk stays intact either way.
            raise DistanceError(
                f"injected corruption while writing distance-cache sidecar {path}"
            )
        entries = [
            (a, b, value, self._cache_uses.get((a, b), 0))
            for (a, b), value in self._cache.items()
        ]
        payload = {
            "format": _CACHE_FORMAT,
            "version": _CACHE_VERSION,
            "k": self.k,
            "backend": self.matching_backend,
            "entries": entries,
        }
        atomic_pickle_dump(payload, Path(path))
        return len(entries)

    def _read_sidecar(self, path: Union[str, Path]) -> List[CacheEntry]:
        """Read, validate and return the entries of a cache sidecar."""
        if self.faults is not None and self.faults.fire("sidecar.load"):
            # One-shot corruption: truncate the sidecar on disk and fall
            # through to the real validation path, which raises the same
            # typed DistanceError a genuinely torn file would.
            data = Path(path).read_bytes()
            Path(path).write_bytes(data[: max(1, len(data) // 2)])
        k, backend, entries = _read_sidecar_payload(path)
        if k != self.k:
            raise DistanceError(
                f"distance-cache sidecar {path} was written with k={k!r}, "
                f"but this resolver compares k={self.k} levels; the cached distances "
                f"are not comparable"
            )
        if backend != self.matching_backend:
            raise DistanceError(
                f"distance-cache sidecar {path} was written with backend="
                f"{backend!r}, but this resolver's values realise backend="
                f"{self.matching_backend!r}; tie pairs may admit several optimal "
                f"matchings, so cached values are only reproducible under the "
                f"matching semantics that produced them"
            )
        return entries

    def _require_cache_enabled(self, action: str) -> None:
        if not self.cache_size:
            raise DistanceError(
                f"cannot {action}: this resolver's distance cache is disabled "
                f"(cache_size=0)"
            )

    def load_cache(self, path: Union[str, Path]) -> int:
        """Replace the cache with a sidecar's entries; returns how many stay.

        When the sidecar holds more entries than ``cache_size``, the
        *hottest* entries (largest persisted hit counts, recency breaking
        ties) are kept — a sweep's most-requeried pairs survive the trim.
        Version-1 sidecars carry no hit counts, so the tie-break keeps the
        newest, the pre-v2 behaviour.  Counters are untouched: loading is
        not a lookup.
        """
        self._require_cache_enabled(f"load a distance-cache sidecar from {path}")
        entries = self._read_sidecar(path)
        if len(entries) > self.cache_size:
            ranked = sorted(
                enumerate(entries), key=lambda pair: (pair[1][3], pair[0])
            )[-self.cache_size:]
            # Preserve the sidecar's LRU order among the survivors.
            entries = [entry for _, entry in sorted(ranked, key=lambda pair: pair[0])]
        self._cache = OrderedDict(((a, b), value) for a, b, value, _ in entries)
        self._cache_uses = {(a, b): hits for a, b, _, hits in entries}
        return len(self._cache)

    def warm_from(self, source: "Union[str, Path, BoundedNedDistance]") -> int:
        """Merge another cache into this one; returns the entries added.

        ``source`` is a sidecar path (written by :meth:`save_cache`, e.g. by
        a previous process of a sweep) or a live resolver.  Entries already
        present keep their value, their recency and their hit counts; merged
        entries are inserted as the coldest *and with zero hits* — every
        lookup is counted exactly once, by the resolver that serves it, so
        N workers warming from one shared base sidecar do not each re-export
        the base's hit counts (which :func:`merge_sidecars` would then sum N
        times, letting a stale base entry outrank a genuinely hotter one).
        Use :meth:`load_cache` to *adopt* a sidecar, hit counts included.
        """
        self._require_cache_enabled("warm its distance cache")
        if isinstance(source, BoundedNedDistance):
            if source.k != self.k:
                raise DistanceError(
                    f"cannot warm from a resolver with k={source.k}; this resolver "
                    f"compares k={self.k} levels"
                )
            if source.matching_backend != self.matching_backend:
                raise DistanceError(
                    f"cannot warm from a resolver whose values realise backend="
                    f"{source.matching_backend!r}; this resolver's realise "
                    f"backend={self.matching_backend!r}"
                )
            incoming = [
                (a, b, value, source._cache_uses.get((a, b), 0))
                for (a, b), value in source._cache.items()
            ]
        else:
            incoming = self._read_sidecar(source)
        merged: "OrderedDict[Tuple[str, str], float]" = OrderedDict()
        added = 0
        for a, b, value, _hits in incoming:
            key = (a, b)
            if key not in self._cache and key not in merged:
                merged[key] = value
                added += 1
                self._cache_uses.setdefault(key, 0)
        for key, value in self._cache.items():
            merged[key] = value
        while len(merged) > self.cache_size:
            evicted, _ = merged.popitem(last=False)
            self._cache_uses.pop(evicted, None)
        self._cache = merged
        return added

    # ------------------------------------------------------------- exact tier
    def exact(self, first, second) -> float:
        """Resolve a pair on the exact path (cache first, then TED*)."""
        value, _ = self._exact_resolution(first, second)
        return value

    def _exact_resolution(self, first, second) -> Tuple[float, str]:
        """Return ``(distance, tier)`` where tier is cache or exact."""
        key = self.cache_key(first, second)
        if key is not None:
            cached = self._timed("resolver.cache_lookup_seconds", self.cache_get, key)
            if cached is not None:
                return cached, CACHE_TIER
        self.check_deadline("resolver.exact")
        self.counters.exact_evaluations += 1
        value = self._timed(
            "resolver.exact_seconds",
            self._pair_exact,
            first.tree,
            second.tree,
        )
        if key is not None:
            self.cache_put(key, value)
        return value, EXACT_TIER

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
        value, tier = self._exact_resolution(first, second)
        return value, ResolutionInterval(value, value, tier)

    def distance(self, first, second) -> float:
        """Return the exact distance through the cascade (never prunes)."""
        value, _ = self.resolve(first, second)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundedNedDistance(k={self.k}, tiers={self.tiers})"


def _read_sidecar_payload(path: Union[str, Path]) -> Tuple[int, str, List[CacheEntry]]:
    """Read one sidecar and return ``(k, backend, entries)`` after validation.

    Entries are normalised to the v2 shape ``(sig_a, sig_b, value, hits)``;
    version-1 records carry no hit counts and load with ``hits=0``.
    """
    payload = load_validated_payload(
        path, _CACHE_FORMAT, _CACHE_SUPPORTED_VERSIONS, "NED distance-cache",
        DistanceError,
    )
    try:
        if payload["version"] >= 2:
            entries = [
                (str(a), str(b), float(value), int(hits))
                for a, b, value, hits in payload.get("entries")
            ]
        else:
            entries = [
                (str(a), str(b), float(value), 0)
                for a, b, value in payload.get("entries")
            ]
    except (TypeError, ValueError) as error:
        raise DistanceError(
            f"{path} is not a valid NED distance-cache file "
            f"({type(error).__name__}: {error})"
        ) from error
    return payload.get("k"), payload.get("backend"), entries


def merge_sidecars(
    paths: Sequence[Union[str, Path]], output: Union[str, Path]
) -> int:
    """Compact many cache sidecars into one; returns the merged entry count.

    This is the reduce step of a parallel sweep: each worker writes its own
    sidecar (:meth:`BoundedNedDistance.save_cache`), and the merge produces
    one warm file for the next run.  Every input is header-validated and
    must agree on ``k`` and ``backend`` (distances are not comparable
    otherwise).  The first occurrence of a signature pair keeps its value
    (TED* is pure, so duplicates agree up to backend tie-breaks) and the
    hit counts of all occurrences are *summed*, preserving hotness across
    workers for eviction-aware loading.  The output is written atomically
    and keeps first-seen order (so earlier inputs are the coldest on load).

    Hit counts are eviction *hints*, not a correctness surface — any trim
    outcome only changes what is recomputed, never a value.  When every
    worker starts cold (or warms via :meth:`~BoundedNedDistance.warm_from`,
    which imports entries with zero hits), the sum counts each lookup
    exactly once.  Workers that *adopt* one shared base sidecar (a session's
    ``cache_file=``, which loads hit counts) each re-export the base's
    counts, so the merged base entries carry roughly worker-count times
    their true hotness — include such a base once and treat its entries as
    deliberately favoured, or give sweep workers per-worker cache files.
    """
    if not paths:
        raise DistanceError("merge_sidecars needs at least one sidecar path")
    reference: Optional[Tuple[int, str]] = None
    merged: "OrderedDict[Tuple[str, str], List[float]]" = OrderedDict()
    for path in paths:
        k, backend, entries = _read_sidecar_payload(path)
        if reference is None:
            reference = (k, backend)
        elif reference != (k, backend):
            raise DistanceError(
                f"cannot merge distance-cache sidecar {path}: it was written "
                f"with k={k!r}/backend={backend!r}, but the first sidecar uses "
                f"k={reference[0]!r}/backend={reference[1]!r}"
            )
        for a, b, value, hits in entries:
            record = merged.get((a, b))
            if record is None:
                merged[(a, b)] = [value, hits]
            else:
                record[1] += hits
    payload = {
        "format": _CACHE_FORMAT,
        "version": _CACHE_VERSION,
        "k": reference[0],
        "backend": reference[1],
        "entries": [
            (a, b, value, int(hits)) for (a, b), (value, hits) in merged.items()
        ],
    }
    atomic_pickle_dump(payload, Path(output))
    return len(merged)

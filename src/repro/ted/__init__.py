"""Tree edit distances: TED*, weighted TED*, exact TED and exact GED.

* :mod:`repro.ted.ted_star` — the paper's polynomial-time modified tree edit
  distance (Sections 4-7, 9).
* :mod:`repro.ted.weighted` — the weighted variant δ_T(W) and the TED upper
  bound δ_T(W+) (Section 12).
* :mod:`repro.ted.exact_ted` — exact unordered tree edit distance
  (NP-hard; branch-and-bound, usable for small trees, Section 13.1 baseline).
* :mod:`repro.ted.exact_ged` — exact graph edit distance (NP-hard;
  branch-and-bound, small graphs, Section 13.1 baseline).
* :mod:`repro.ted.bounds` — the tier-cascade bound mathematics (signature,
  level-size, degree-multiset) plus the relations among the three distances
  (Section 11: GED ≤ 2·TED*, TED ≤ δ_T(W+)).
* :mod:`repro.ted.resolver` — :class:`BoundedNedDistance`, the staged
  distance-resolution cascade consumed by the engine's matrices and
  bound-pruned searches; bounds a probe against a whole store in one numpy
  survey (:meth:`~repro.ted.resolver.BoundedNedDistance.survey`) and
  resolves the open pairs as exact blocks (:meth:`~repro.ted.resolver.
  BoundedNedDistance.resolve_many`).
* :mod:`repro.ted.cache` — :class:`~repro.ted.cache.DistanceCache`, the
  resolver's signature-keyed LRU of exact distances, its versioned sidecar
  and :func:`~repro.ted.cache.merge_sidecars`.
* :mod:`repro.ted.batch` — the array-native batch TED* kernel: stores are
  pre-compiled once into contiguous numpy arrays (per-level slices of the
  canonical parent arrays) and many pairs are evaluated per call with
  vectorized per-level canonization/costs and SciPy assignment — values
  bit-identical to ``ted_star(..., backend="scipy")``, with a per-pair
  fallback on pathological level sizes.  Needs numpy + SciPy
  (:func:`~repro.ted.batch.batch_available`); sessions attach it
  automatically, or pin it with ``backend="batch"``.
"""

from repro.ted.batch import BatchTedKernel, CompiledTree, batch_available
from repro.ted.ted_star import TedStarResult, ted_star, ted_star_detailed
from repro.ted.weighted import (
    level_weighted_ted_star,
    ted_star_upper_bound_weights,
    weighted_ted_star,
)
from repro.ted.exact_ted import exact_tree_edit_distance
from repro.ted.exact_ged import exact_graph_edit_distance
from repro.ted.bounds import ged_upper_bound_from_ted_star, ted_upper_bound_from_weighted
from repro.ted.resolver import (
    BATCH_BACKEND,
    BOUND_TIERS,
    TIER_CASCADE,
    BoundedNedDistance,
    ResolutionCounters,
    ResolutionInterval,
)

__all__ = [
    "BatchTedKernel",
    "CompiledTree",
    "batch_available",
    "BATCH_BACKEND",
    "ted_star",
    "ted_star_detailed",
    "TedStarResult",
    "weighted_ted_star",
    "level_weighted_ted_star",
    "ted_star_upper_bound_weights",
    "exact_tree_edit_distance",
    "exact_graph_edit_distance",
    "ged_upper_bound_from_ted_star",
    "ted_upper_bound_from_weighted",
    "BoundedNedDistance",
    "ResolutionCounters",
    "ResolutionInterval",
    "BOUND_TIERS",
    "TIER_CASCADE",
]

"""Store-wide bound survey: every candidate's cascade interval in one pass.

:meth:`repro.ted.resolver.BoundedNedDistance.bounds` runs the cheap tiers
for one pair in Python.  A probe scanned against a whole store repeats that
loop once per candidate, although the store's side of every bound is fixed.
This module packs the store side once (:class:`PackedSummaries`, memoized
by the stores next to their packed parent arrays) and evaluates the
signature, level-size and degree-multiset tiers for *all* candidates with a
handful of numpy operations (:func:`survey_intervals`).  Intervals, tiers
and per-tier evaluation counts are exactly those of a loop of ``bounds()``;
at k ≤ 3 with the degree tier on, every interval is closed, because there
the degree bound is TED* (proof in :mod:`repro.ted.bounds`).

The packed layout:

* ``sizes`` — the ``n × k`` matrix of per-level sizes;
* per level ``1 .. k-2`` (0-based), every candidate's child counts in
  *descending* order, concatenated (``degrees``), with the owning candidate
  (``owners``) and each count's rank from the largest (``ranks``).  Aligning
  two sorted multisets at their largest element is the same as padding the
  shorter one with zeros in front, so ``|degree − probe[rank]|`` summed per
  candidate, plus the probe counts beyond the candidate's size, is the
  sorted-order transport cost ``D_i``.  The layout costs one integer per
  node of the level rather than one per candidate times the widest level.
  The root level is skipped (``D_1 = P_2`` always, so its term is 0) and so
  is the deepest level (every in-view degree there is 0);
* ``signature_ids`` — each candidate's signature as an integer id, so the
  signature tier is one comparison against the probe's id.

numpy is imported lazily: the survey runs only where the batch kernel does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.exceptions import DistanceError
from repro.ted.bounds import DEGREE_BOUND_EXACT_MAX_K

#: Tier codes of :attr:`BoundSurvey.tiers`, in the order of
#: :data:`repro.ted.resolver.SURVEY_TIERS`.
NO_CODE, SIGNATURE_CODE, LEVEL_SIZE_CODE, DEGREE_CODE = range(4)


@dataclass(frozen=True)
class PackedSummaries:
    """One store's bound summaries as arrays, in build order."""

    k: int
    sizes: Any
    degrees: Tuple[Any, ...]
    owners: Tuple[Any, ...]
    ranks: Tuple[Any, ...]
    offsets: Tuple[Any, ...]
    signature_ids: Any
    signature_index: Dict[str, int]

    def __len__(self) -> int:
        return len(self.signature_ids)

    @classmethod
    def pack(cls, k: int, entries: Iterable[Any]) -> "PackedSummaries":
        """Pack summary records (``.level_sizes``, ``.degree_profiles``,
        ``.signature``, e.g. :class:`repro.engine.tree_store.StoredTree`)."""
        import numpy as np

        level_sizes: List[Sequence[int]] = []
        profiles: List[Sequence[Sequence[int]]] = []
        signature_index: Dict[str, int] = {}
        ids: List[int] = []
        for entry in entries:
            level_sizes.append(entry.level_sizes)
            profiles.append(entry.degree_profiles)
            ids.append(signature_index.setdefault(entry.signature, len(signature_index)))
        sizes = np.array(level_sizes, dtype=np.int64).reshape(len(ids), k)
        degrees, owners, ranks, offsets = [], [], [], []
        for level in range(1, k - 1):
            counts = sizes[:, level]
            flat = np.fromiter(
                chain.from_iterable(reversed(profile[level]) for profile in profiles),
                dtype=np.int64,
                count=int(counts.sum()),
            )
            starts = np.concatenate(([0], np.cumsum(counts)))
            owner = np.repeat(np.arange(len(ids)), counts)
            degrees.append(flat)
            owners.append(owner)
            ranks.append(np.arange(flat.size) - starts[owner])
            offsets.append(starts)
        return cls(
            k=k,
            sizes=sizes,
            degrees=tuple(degrees),
            owners=tuple(owners),
            ranks=tuple(ranks),
            offsets=tuple(offsets),
            signature_ids=np.array(ids, dtype=np.int64),
            signature_index=signature_index,
        )


@dataclass(frozen=True)
class BoundSurvey:
    """The cascade intervals of one probe against candidates ``start ..``.

    ``lower``/``upper`` are float64 arrays and ``tiers`` holds tier codes
    (:data:`SIGNATURE_CODE` …), aligned with the surveyed candidates; the
    ``*_hits``/``*_evaluations`` fields are the counter increments a loop of
    ``bounds()`` would have made.
    """

    lower: Any
    upper: Any
    tiers: Any
    signature_hits: int
    level_size_evaluations: int
    degree_evaluations: int

    def __len__(self) -> int:
        return len(self.lower)

    @property
    def closed(self) -> Any:
        """Mask of candidates whose interval pins the distance."""
        return self.lower == self.upper

    def credits(self, mask: Any) -> Tuple[int, int]:
        """How many masked candidates the level-size / degree tier governs."""
        tiers = self.tiers[mask]
        return int((tiers == LEVEL_SIZE_CODE).sum()), int((tiers == DEGREE_CODE).sum())


def survey_intervals(
    packed: PackedSummaries,
    probe: Any,
    signature: bool,
    level_size: bool,
    degree: bool,
    start: int = 0,
) -> BoundSurvey:
    """Run the enabled bound tiers of ``probe`` against ``packed[start:]``.

    Mirrors :meth:`~repro.ted.resolver.BoundedNedDistance.bounds` pair for
    pair: a signature match pins 0 and stops; the level-size tier stops
    when it closes; the degree tier raises the lower bound, and takes the
    credit whenever it beats the level-size bound or closes the interval
    (always, at k ≤ 3).
    """
    import numpy as np

    k = packed.k
    if len(probe.level_sizes) != k:
        raise DistanceError(
            f"probe summaries have {len(probe.level_sizes)} levels, the store's k={k}"
        )
    start = min(start, len(packed))
    sizes = packed.sizes[start:]
    count = sizes.shape[0]
    probe_sizes = np.array(probe.level_sizes, dtype=np.int64)
    if signature:
        probe_id = packed.signature_index.get(probe.signature, -1)
        matched = packed.signature_ids[start:] == probe_id
    else:
        matched = np.zeros(count, dtype=bool)
    rest = ~matched
    lower = np.zeros(count)
    upper = np.full(count, np.inf)
    tiers = np.full(count, NO_CODE, dtype=np.int8)
    level_size_evaluations = degree_evaluations = 0
    if level_size or degree:
        padding = np.abs(sizes - probe_sizes)
        size_lower = padding.sum(axis=1)
        size_upper = size_lower + np.minimum(sizes[:, 1:], probe_sizes[1:]).sum(axis=1)
    if level_size:
        level_size_evaluations = int(rest.sum())
        lower[:] = size_lower
        upper[:] = size_upper
        tiers[:] = LEVEL_SIZE_CODE
        rest &= size_lower != size_upper
    if degree:
        degree_evaluations = int(rest.sum())
        degree_lower = size_lower + _move_lower(np, packed, probe, padding, start)
        degree_upper = degree_lower if k <= DEGREE_BOUND_EXACT_MAX_K else size_upper
        credited = rest & ((degree_lower > lower) | (degree_lower == degree_upper))
        lower = np.where(credited, degree_lower, lower)
        tiers[credited] = DEGREE_CODE
        upper = np.where(rest, np.minimum(upper, degree_upper), upper)
    lower[matched] = 0.0
    upper[matched] = 0.0
    tiers[matched] = SIGNATURE_CODE
    return BoundSurvey(
        lower=lower,
        upper=upper,
        tiers=tiers,
        signature_hits=int(matched.sum()),
        level_size_evaluations=level_size_evaluations,
        degree_evaluations=degree_evaluations,
    )


def _move_lower(np, packed: PackedSummaries, probe: Any, padding: Any, start: int) -> Any:
    """``Σ_i max(0, (D_i − P_{i+1}) // 2)`` for every surveyed candidate."""
    count = padding.shape[0]
    move = np.zeros(count, dtype=np.int64)
    for slot, level in enumerate(range(1, packed.k - 1)):
        first = int(packed.offsets[slot][start])
        ranks = packed.ranks[slot][first:]
        degrees = packed.degrees[slot][first:]
        owners = packed.owners[slot][first:] - start
        sizes = packed.sizes[start:, level]
        mine = np.array(probe.degree_profiles[level][::-1], dtype=np.int64)
        # The probe's counts, largest first, zero-extended to the widest level.
        aligned = np.zeros(max(mine.size, int(sizes.max(initial=0))), dtype=np.int64)
        aligned[: mine.size] = mine
        gaps = np.bincount(
            owners, weights=np.abs(degrees - aligned[ranks]), minlength=count
        )
        # Probe counts past the candidate's size meet the candidate's zeros.
        beyond = np.concatenate((np.cumsum(mine[::-1])[::-1], [0]))
        leftover = beyond[np.minimum(sizes, mine.size)]
        transport = gaps.astype(np.int64) + leftover
        move += np.maximum(transport - padding[:, level + 1], 0) // 2
    return move


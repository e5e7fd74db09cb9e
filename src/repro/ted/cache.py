"""The exact-distance cache of the TED* cascade and its on-disk sidecar.

NED compares unlabeled trees, so an exact TED* is a pure function of the two
isomorphism classes (the kernel canonicalizes its inputs), and one cache
keyed by the ordered pair of canonical signatures is sound.
:class:`DistanceCache` is that cache — an LRU of ``[value, hits]`` records
that counts its evictions — and its persistence.  A
:class:`repro.ted.resolver.BoundedNedDistance` holds one as
``resolver.cache`` and counts the lookups (``cache_hits`` /
``cache_misses``) itself.

The sidecar is header-checked like the tree stores: a format marker and an
integer version, then the ``k`` and matching backend the distances realise.
Version 2 added per-entry hit counts, so an overflowing load keeps the
*hottest* entries; version-1 sidecars still load with zero hits, which makes
the tie-break keep the newest.  :func:`merge_sidecars` compacts the sidecars
of parallel sweep workers into one warm file.  Every sidecar is decoded by
:func:`_read`, which alone checks the header, and written by :func:`_write`.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.exceptions import DistanceError
from repro.utils.io import atomic_pickle_dump, load_validated_payload

_CACHE_FORMAT = "repro-ned-cache"
_CACHE_VERSION = 2
_CACHE_SUPPORTED_VERSIONS = (1, 2)

#: One sidecar entry: (signature_a, signature_b, distance, hit_count).
CacheEntry = Tuple[str, str, float, int]
#: A sidecar header: the ``k`` and matching backend its distances realise.
Header = Tuple[int, str]


class DistanceCache:
    """Signature-keyed LRU of exact TED* values, persisted as a sidecar.

    ``capacity`` 0 disables the cache: :meth:`key` returns ``None`` and
    :meth:`load` refuses.  ``k`` and ``backend`` (the resolver's matching
    backend) form the sidecar header: distances are only comparable at equal
    ``k``, and tie pairs may admit several optimal matchings, so values are
    only reproducible under the matching semantics that produced them.
    ``faults`` (a :class:`repro.resilience.FaultPlan`) activates the
    ``"sidecar.load"`` / ``"sidecar.save"`` sites; ``evictions`` counts the
    entries the LRU pushed out over the cache's lifetime.
    """

    def __init__(self, capacity: int, k: int, backend: str) -> None:
        if capacity < 0:
            raise DistanceError(f"cache_size must be >= 0, got {capacity}")
        self.capacity = capacity
        self.header: Header = (k, backend)
        self.faults = None
        self.evictions = 0
        self._records: "OrderedDict[Tuple[str, str], list]" = OrderedDict()

    def key(self, first, second) -> Optional[Tuple[str, str]]:
        """The *ordered* signature pair (TED* is symmetric); ``None`` when off."""
        if not self.capacity:
            return None
        a, b = first.signature, second.signature
        return (a, b) if a <= b else (b, a)

    def get(self, key: Tuple[str, str]) -> Optional[float]:
        """Return the cached distance (counting a hit), or ``None``."""
        record = self._records.get(key)
        if record is None:
            return None
        self._records.move_to_end(key)
        record[1] += 1
        return record[0]

    def put(self, key: Tuple[str, str], value: float) -> None:
        """Store an exact distance, evicting least-recently-used entries."""
        self._records.setdefault(key, [value, 0])[0] = value
        self._records.move_to_end(key)
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every cached distance (the eviction count is kept)."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def save(self, path: Union[str, Path]) -> int:
        """Write the cache as a sidecar, oldest entry first; returns the count."""
        if self.faults is not None and self.faults.fire("sidecar.save"):
            # The nearest reachable corruption of an atomic write: a torn
            # write detected before the rename.  The old sidecar stays intact.
            raise DistanceError(
                f"injected corruption while writing distance-cache sidecar {path}"
            )
        entries = [(a, b, value, hits) for (a, b), (value, hits) in self._records.items()]
        _write(path, self.header, entries)
        return len(entries)

    def load(self, path: Union[str, Path]) -> int:
        """Replace the cache with a sidecar's entries; returns how many stay.

        When the sidecar holds more than ``capacity`` entries, the hottest
        (largest hit counts, recency breaking ties) are kept, in sidecar
        order.  Loading counts no hit and no eviction.
        """
        if not self.capacity:
            raise DistanceError(
                f"cannot load {path}: this distance cache is disabled (cache_size=0)"
            )
        if self.faults is not None and self.faults.fire("sidecar.load"):
            # One-shot corruption: truncate the file on disk, so the real
            # decoder raises the typed error a torn file would.
            data = Path(path).read_bytes()
            Path(path).write_bytes(data[: max(1, len(data) // 2)])
        _, entries = _read(path, self.header)
        if len(entries) > self.capacity:
            ranked = sorted(
                enumerate(entries), key=lambda pair: (pair[1][3], pair[0])
            )[-self.capacity:]
            entries = [entry for _, entry in sorted(ranked, key=lambda pair: pair[0])]
        self._records = OrderedDict(((a, b), [value, hits]) for a, b, value, hits in entries)
        return len(self._records)


def _read(
    path: Union[str, Path], expected: Optional[Header] = None
) -> Tuple[Header, List[CacheEntry]]:
    """Decode one sidecar into its header and v2-shaped entries.

    A header other than ``expected`` (when given) is rejected; version-1
    records carry no hit counts and decode with ``hits=0``.
    """
    payload = load_validated_payload(
        path, _CACHE_FORMAT, _CACHE_SUPPORTED_VERSIONS, "NED distance-cache",
        DistanceError,
    )
    header = (payload.get("k"), payload.get("backend"))
    if expected is not None and header != expected:
        raise DistanceError(
            f"distance-cache sidecar {path} was written with k={header[0]!r}, "
            f"backend={header[1]!r}, but k={expected[0]!r}, backend="
            f"{expected[1]!r} is expected; the cached distances are not comparable"
        )
    v1 = payload["version"] == 1
    try:
        entries = [
            (str(a), str(b), float(value), int(hits))
            for a, b, value, hits in (
                (*record, 0) if v1 else record for record in payload.get("entries")
            )
        ]
    except (TypeError, ValueError) as error:
        raise DistanceError(
            f"{path} is not a valid NED distance-cache file "
            f"({type(error).__name__}: {error})"
        ) from error
    return header, entries


def _write(path: Union[str, Path], header: Header, entries: List[CacheEntry]) -> None:
    """Write one format-v2 sidecar atomically."""
    payload = {
        "format": _CACHE_FORMAT,
        "version": _CACHE_VERSION,
        "k": header[0],
        "backend": header[1],
        "entries": entries,
    }
    atomic_pickle_dump(payload, Path(path))


def merge_sidecars(
    paths: Sequence[Union[str, Path]], output: Union[str, Path]
) -> int:
    """Compact many cache sidecars into one; returns the merged entry count.

    The reduce step of a parallel sweep: every input must match the first
    one's ``k`` and backend.  The first occurrence of a signature pair keeps
    its value and place (so earlier inputs are the coldest on load), and
    the hit counts of all occurrences are summed (version-1 inputs add 0).
    The output is written atomically.

    Hit counts are eviction *hints*, not a correctness surface — any trim
    outcome only changes what is recomputed, never a value.  Workers that
    *load* one shared base sidecar (a session's ``cache_file=``, which
    adopts hit counts) each re-export the base's counts, so the merged base
    entries carry roughly worker-count times their true hotness — include
    such a base once and treat its entries as deliberately favoured, or give
    sweep workers per-worker cache files.
    """
    if not paths:
        raise DistanceError("merge_sidecars needs at least one sidecar path")
    header: Optional[Header] = None
    merged: "OrderedDict[Tuple[str, str], list]" = OrderedDict()
    for path in paths:
        header, entries = _read(path, header)
        for a, b, value, hits in entries:
            merged.setdefault((a, b), [value, 0])[1] += hits
    _write(output, header, [(a, b, value, hits) for (a, b), (value, hits) in merged.items()])
    return len(merged)

"""Linear-scan "index": the brute-force baseline for similarity retrieval.

Feature-based similarities cannot use metric indexes (their distances do not
satisfy the metric properties across pairs), so every query degenerates to a
scan of all candidates — the behaviour this class models.  It also serves as
the ground truth the VP-tree results are checked against in the tests.
It needs no triangle inequality, so it is exact under any distance.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

from repro.exceptions import IndexingError
from repro.index.knn import MetricIndexBase


class LinearScanIndex(MetricIndexBase):
    """Answers kNN and range queries by evaluating every indexed item."""

    def _knn(self, query: Any, k: int) -> List[Tuple[Any, float]]:
        """Return the ``k`` closest items by scanning all of them.

        Ties at the ``k``-th cut are broken by scan (build) order, exactly
        like ``heapq.nsmallest`` over ``(distance, index)`` pairs.
        """
        if k <= 0:
            raise IndexingError(f"k must be positive, got {k}")
        # Max-heap of (-distance, -index): the root is the lexicographically
        # largest (distance, index) pair, so eviction matches nsmallest.
        best: List[Tuple[float, int]] = []
        for index, item in enumerate(self._items):
            distance = self._measure(query, item)
            entry = (-distance, -index)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)
        ordered = sorted((-negative, -negated_index) for negative, negated_index in best)
        return [(self._items[index], distance) for distance, index in ordered]

    def _range_search(self, query: Any, radius: float) -> List[Tuple[Any, float]]:
        """Return every item within ``radius`` by scanning all of them."""
        if radius < 0:
            raise IndexingError(f"radius must be non-negative, got {radius}")
        result = []
        for item in self._items:
            distance = self._measure(query, item)
            if distance <= radius:
                result.append((item, distance))
        result.sort(key=lambda pair: pair[1])
        return result

"""Burkhard–Keller tree: a metric index specialised for integer-valued metrics.

TED* (and therefore NED with unit costs) always returns a non-negative
*integer*, which makes the BK-tree a natural alternative to the VP-tree: each
node stores one item and its children are bucketed by their exact distance to
it, so range and kNN queries prune entire distance buckets with the triangle
inequality.  The index is included as an ablation against the VP-tree used in
the paper's Figure 9b.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Sequence, Tuple

from repro.exceptions import IndexingError
from repro.index.knn import DistanceFn, MetricIndexBase


class _BKNode:
    __slots__ = ("item", "children")

    def __init__(self, item: Any) -> None:
        self.item = item
        self.children: Dict[int, "_BKNode"] = {}


class BKTree(MetricIndexBase):
    """BK-tree over arbitrary items under an integer-valued metric distance.

    At k >= 4, triangle pruning may miss neighbours: TED* as computed here
    breaks the triangle inequality there (see
    ``test_triangle_inequality_witness_at_k4``).  The linear index and the
    engine's ``bound-prune`` mode are exact at every k.
    """

    def __init__(self, items: Sequence[Any], distance: DistanceFn) -> None:
        super().__init__(items, distance)
        self.build_distance_calls = 0
        iterator = iter(self._items)
        self._root = _BKNode(next(iterator))
        for item in iterator:
            self._insert(item)

    def _build_measure(self, a: Any, b: Any) -> float:
        self.build_distance_calls += 1
        return self._distance(a, b)

    def _insert(self, item: Any) -> None:
        node = self._root
        while True:
            separation = int(round(self._build_measure(item, node.item)))
            child = node.children.get(separation)
            if child is None:
                node.children[separation] = _BKNode(item)
                return
            node = child

    # --------------------------------------------------------------- queries
    def _range_search(self, query: Any, radius: float) -> List[Tuple[Any, float]]:
        """Return every indexed item within ``radius`` of ``query``."""
        if radius < 0:
            raise IndexingError(f"radius must be non-negative, got {radius}")
        matches: List[Tuple[Any, float]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            distance = self._measure(query, node.item)
            if distance <= radius:
                matches.append((node.item, distance))
            low = distance - radius
            high = distance + radius
            for separation, child in node.children.items():
                if low <= separation <= high:
                    stack.append(child)
        matches.sort(key=lambda pair: pair[1])
        return matches

    def _knn(self, query: Any, k: int) -> List[Tuple[Any, float]]:
        """Return the ``k`` indexed items closest to ``query``.

        Best-first traversal: nodes are expanded in ascending order of the
        least distance their subtree can contain (every item under the child
        keyed ``separation`` is exactly ``separation`` from the node's item,
        so that least distance is ``max(|d - separation|, parent's)``), and
        the walk stops as soon as it exceeds the current ``k``-th best
        distance.
        """
        if k <= 0:
            raise IndexingError(f"k must be positive, got {k}")
        best: List[Tuple[float, int, Any]] = []  # max-heap by -distance
        counter = 0

        def tau() -> float:
            return -best[0][0] if len(best) == k else float("inf")

        # Min-heap of (gap, sequence, node): gap lower-bounds the distance of
        # every item in the node's subtree.
        frontier: List[Tuple[float, int, _BKNode]] = [(0.0, 0, self._root)]
        sequence = 1
        while frontier:
            gap, _, node = heapq.heappop(frontier)
            if gap > tau():
                break
            distance = self._measure(query, node.item)
            if len(best) < k:
                heapq.heappush(best, (-distance, counter, node.item))
            elif distance < -best[0][0]:
                heapq.heapreplace(best, (-distance, counter, node.item))
            counter += 1
            threshold = tau()
            for separation, child in node.children.items():
                child_gap = max(gap, abs(distance - separation))
                if child_gap <= threshold:
                    heapq.heappush(frontier, (child_gap, sequence, child))
                    sequence += 1
        ordered = sorted(((-negative, item) for negative, _, item in best), key=lambda p: p[0])
        return [(item, distance) for distance, item in ordered]

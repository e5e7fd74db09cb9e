"""Vantage-point tree: the metric index used for NED similarity retrieval.

A VP-tree picks a *vantage point* at every internal node, splits the
remaining items by their distance to it (inside/outside the median radius),
and prunes whole subtrees during queries using the triangle inequality.  The
paper uses an existing VP-tree implementation to show that NED — being a
metric — answers nearest-neighbor queries orders of magnitude faster than a
full scan over a non-metric feature similarity (Figure 9b); this module is
the from-scratch equivalent.

The implementation is deliberately generic: items can be anything, and the
distance is an arbitrary metric callable (NED over k-adjacent trees in the
experiments).  ``last_query_distance_calls`` exposes the number of distance
evaluations, which is the cost measure that matters when each distance is a
TED* computation.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.exceptions import IndexingError
from repro.index.knn import DistanceFn, MetricIndexBase
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class _VPNode:
    """Internal VP-tree node."""

    vantage: Any
    radius: float = 0.0
    inside: Optional["_VPNode"] = None
    outside: Optional["_VPNode"] = None
    bucket: List[Any] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.inside is None and self.outside is None


class VPTree(MetricIndexBase):
    """Vantage-point tree over arbitrary items under a metric distance.

    At k >= 4, triangle pruning may miss neighbours: TED* as computed here
    breaks the triangle inequality there (see
    ``test_triangle_inequality_witness_at_k4``).  The linear index and the
    engine's ``bound-prune`` mode are exact at every k.

    Parameters
    ----------
    items:
        The items to index.
    distance:
        A metric distance callable over items.
    leaf_size:
        Subtrees with at most this many items are stored as flat buckets.
    seed:
        Seed controlling vantage-point selection (kept deterministic so
        experiments are reproducible).
    """

    def __init__(
        self,
        items: Sequence[Any],
        distance: DistanceFn,
        leaf_size: int = 8,
        seed: RngLike = 0,
    ) -> None:
        super().__init__(items, distance)
        if leaf_size < 1:
            raise IndexingError(f"leaf_size must be >= 1, got {leaf_size}")
        self._leaf_size = leaf_size
        self._rng = ensure_rng(seed)
        self.build_distance_calls = 0
        self._root = self._build(list(self._items))

    # ---------------------------------------------------------------- build
    def _build_measure(self, a: Any, b: Any) -> float:
        self.build_distance_calls += 1
        return self._distance(a, b)

    def _build(self, items: List[Any]) -> Optional[_VPNode]:
        if not items:
            return None
        if len(items) <= self._leaf_size:
            vantage = items[0]
            node = _VPNode(vantage=vantage)
            node.bucket = list(items)
            return node
        index = self._rng.randrange(len(items))
        vantage = items.pop(index)
        distances = [(self._build_measure(vantage, item), i) for i, item in enumerate(items)]
        distances.sort(key=lambda pair: pair[0])
        median_position = len(distances) // 2
        radius = distances[median_position][0]
        inside_items = [items[i] for d, i in distances if d <= radius]
        outside_items = [items[i] for d, i in distances if d > radius]
        # Degenerate split (all equal distances): keep everything in a bucket
        # to guarantee termination.
        if not outside_items and len(inside_items) == len(items):
            node = _VPNode(vantage=vantage, radius=radius)
            node.bucket = [vantage] + inside_items
            return node
        node = _VPNode(vantage=vantage, radius=radius)
        node.inside = self._build(inside_items)
        node.outside = self._build(outside_items)
        return node

    # --------------------------------------------------------------- queries
    def _knn(self, query: Any, k: int) -> List[Tuple[Any, float]]:
        """Return the ``k`` indexed items closest to ``query``.

        Best-first traversal with best-bound pruning: subtrees are expanded
        in ascending order of the least distance the triangle inequality
        allows them to contain, and the walk stops as soon as that least
        distance exceeds the current ``k``-th best — everything still
        unexpanded is provably worse.
        """
        if k <= 0:
            raise IndexingError(f"k must be positive, got {k}")
        # Max-heap of (-distance, counter, item); counter breaks ties between
        # items that are not mutually comparable.
        best: List[Tuple[float, int, Any]] = []
        counter = 0

        def offer(item: Any, distance: float) -> None:
            nonlocal counter
            if len(best) < k:
                heapq.heappush(best, (-distance, counter, item))
            elif distance < -best[0][0]:
                heapq.heapreplace(best, (-distance, counter, item))
            counter += 1

        def tau() -> float:
            return -best[0][0] if len(best) == k else math.inf

        # Min-heap of (gap, sequence, node): gap lower-bounds the distance of
        # every item in the subtree, so the smallest-gap entry is always the
        # most promising frontier; once it exceeds tau() the rest must too.
        frontier: List[Tuple[float, int, _VPNode]] = []
        sequence = 0

        def push(node: Optional[_VPNode], gap: float) -> None:
            nonlocal sequence
            if node is not None and gap <= tau():
                heapq.heappush(frontier, (gap, sequence, node))
                sequence += 1

        push(self._root, 0.0)
        while frontier:
            gap, _, node = heapq.heappop(frontier)
            if gap > tau():
                break
            if node.is_leaf:
                for item in (node.bucket or [node.vantage]):
                    offer(item, self._measure(query, item))
                continue
            distance = self._measure(query, node.vantage)
            offer(node.vantage, distance)
            # Triangle pruning: items inside the ball are at least
            # distance - radius away, items outside at least radius -
            # distance away.  A child inherits the tighter of its own gap
            # and the parent's.
            push(node.inside, max(gap, distance - node.radius))
            push(node.outside, max(gap, node.radius - distance))

        ordered = sorted(((-negative, item) for negative, _, item in best), key=lambda p: p[0])
        return [(item, distance) for distance, item in ordered]

    def _range_search(self, query: Any, radius: float) -> List[Tuple[Any, float]]:
        """Return every indexed item within ``radius`` of ``query``."""
        if radius < 0:
            raise IndexingError(f"radius must be non-negative, got {radius}")
        matches: List[Tuple[Any, float]] = []

        def visit(node: Optional[_VPNode]) -> None:
            if node is None:
                return
            if node.is_leaf:
                for item in (node.bucket or [node.vantage]):
                    distance = self._measure(query, item)
                    if distance <= radius:
                        matches.append((item, distance))
                return
            distance = self._measure(query, node.vantage)
            if distance <= radius:
                matches.append((node.vantage, distance))
            if distance - radius <= node.radius:
                visit(node.inside)
            if distance + radius >= node.radius:
                visit(node.outside)

        visit(self._root)
        matches.sort(key=lambda pair: pair[1])
        return matches

    # ------------------------------------------------------------ inspection
    def height(self) -> int:
        """Return the height of the tree (for diagnostics and tests)."""

        def depth(node: Optional[_VPNode]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(depth(node.inside), depth(node.outside))

        return depth(self._root)

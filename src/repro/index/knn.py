"""Common interface and helpers for metric indexes."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, List, Sequence, Tuple

from repro.exceptions import IndexingError

DistanceFn = Callable[[Any, Any], float]


class MetricIndexBase(ABC):
    """Abstract base class for metric indexes over arbitrary items.

    A metric index is built over a list of items and a distance callable
    assumed to satisfy the metric properties.  Implementations must provide
    nearest-neighbor and range queries and report how many distance
    evaluations the last query used (the key quantity compared in the
    paper's Figure 9b).
    """

    def __init__(self, items: Sequence[Any], distance: DistanceFn) -> None:
        if not items:
            raise IndexingError("cannot build an index over an empty item list")
        self._items = list(items)
        self._distance = distance
        self.last_query_distance_calls = 0

    @property
    def items(self) -> List[Any]:
        """The indexed items."""
        return list(self._items)

    def _measure(self, a: Any, b: Any) -> float:
        self.last_query_distance_calls += 1
        return self._distance(a, b)

    def knn(self, query: Any, k: int) -> List[Tuple[Any, float]]:
        """Return the ``k`` indexed items closest to ``query`` with distances.

        Resets ``last_query_distance_calls`` before delegating to the
        implementation, so the counter always reflects exactly one query and
        no subclass can forget the reset and report accumulated totals.
        """
        self.last_query_distance_calls = 0
        return self._knn(query, k)

    def range_search(self, query: Any, radius: float) -> List[Tuple[Any, float]]:
        """Return every indexed item within ``radius`` of ``query``.

        Resets ``last_query_distance_calls`` first; see :meth:`knn`.
        """
        self.last_query_distance_calls = 0
        return self._range_search(query, radius)

    @abstractmethod
    def _knn(self, query: Any, k: int) -> List[Tuple[Any, float]]:
        """Implementation hook for :meth:`knn` (counter already reset)."""

    @abstractmethod
    def _range_search(self, query: Any, radius: float) -> List[Tuple[Any, float]]:
        """Implementation hook for :meth:`range_search` (counter already reset)."""


def knn_query(index: MetricIndexBase, query: Any, k: int) -> List[Tuple[Any, float]]:
    """Convenience wrapper delegating to ``index.knn``."""
    return index.knn(query, k)


def range_query(index: MetricIndexBase, query: Any, radius: float) -> List[Tuple[Any, float]]:
    """Convenience wrapper delegating to ``index.range_search``."""
    return index.range_search(query, radius)

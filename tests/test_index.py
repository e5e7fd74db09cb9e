"""Tests for the metric indexes (VP-tree and linear scan)."""

import random

import pytest

from repro.exceptions import IndexingError
from repro.index.knn import knn_query, range_query
from repro.index.linear_scan import LinearScanIndex
from repro.index.vptree import VPTree
from repro.ted.ted_star import ted_star
from repro.trees.random_trees import random_tree_with_depth


def absolute_difference(a: float, b: float) -> float:
    """A trivially metric distance over numbers, handy for exact checks."""
    return abs(a - b)


@pytest.fixture
def number_items():
    rng = random.Random(0)
    return [float(rng.randrange(0, 1000)) for _ in range(200)]


class TestLinearScan:
    def test_knn_returns_sorted_nearest(self, number_items):
        index = LinearScanIndex(number_items, absolute_difference)
        result = index.knn(100.0, 5)
        assert len(result) == 5
        distances = [distance for _, distance in result]
        assert distances == sorted(distances)
        brute = sorted(abs(item - 100.0) for item in number_items)[:5]
        assert distances == brute

    def test_knn_counts_all_distance_calls(self, number_items):
        index = LinearScanIndex(number_items, absolute_difference)
        index.knn(5.0, 3)
        assert index.last_query_distance_calls == len(number_items)

    def test_range_search(self, number_items):
        index = LinearScanIndex(number_items, absolute_difference)
        result = index.range_search(500.0, 25.0)
        expected = sorted(item for item in number_items if abs(item - 500.0) <= 25.0)
        assert sorted(item for item, _ in result) == expected

    def test_invalid_arguments(self, number_items):
        index = LinearScanIndex(number_items, absolute_difference)
        with pytest.raises(IndexingError):
            index.knn(0.0, 0)
        with pytest.raises(IndexingError):
            index.range_search(0.0, -1.0)

    def test_empty_items_rejected(self):
        with pytest.raises(IndexingError):
            LinearScanIndex([], absolute_difference)


class TestVPTree:
    def test_knn_matches_linear_scan(self, number_items):
        vptree = VPTree(number_items, absolute_difference, seed=1)
        scan = LinearScanIndex(number_items, absolute_difference)
        for query in (0.0, 123.0, 999.0, 441.5):
            vp_result = vptree.knn(query, 7)
            scan_result = scan.knn(query, 7)
            assert [d for _, d in vp_result] == [d for _, d in scan_result]

    def test_range_matches_linear_scan(self, number_items):
        vptree = VPTree(number_items, absolute_difference, seed=1)
        scan = LinearScanIndex(number_items, absolute_difference)
        for query, radius in ((100.0, 30.0), (500.0, 5.0), (0.0, 1000.0)):
            vp_items = sorted(item for item, _ in vptree.range_search(query, radius))
            scan_items = sorted(item for item, _ in scan.range_search(query, radius))
            assert vp_items == scan_items

    def test_prunes_distance_evaluations(self, number_items):
        vptree = VPTree(number_items, absolute_difference, leaf_size=4, seed=1)
        vptree.knn(250.0, 1)
        assert vptree.last_query_distance_calls < len(number_items)

    def test_k_larger_than_items(self):
        items = [1.0, 2.0, 3.0]
        vptree = VPTree(items, absolute_difference)
        assert len(vptree.knn(0.0, 10)) == 3

    def test_duplicate_items_handled(self):
        items = [5.0] * 20 + [1.0, 9.0]
        vptree = VPTree(items, absolute_difference, leaf_size=2, seed=3)
        result = vptree.knn(5.0, 3)
        assert all(distance == 0.0 for _, distance in result)

    def test_invalid_arguments(self, number_items):
        with pytest.raises(IndexingError):
            VPTree(number_items, absolute_difference, leaf_size=0)
        vptree = VPTree(number_items, absolute_difference)
        with pytest.raises(IndexingError):
            vptree.knn(0.0, 0)
        with pytest.raises(IndexingError):
            vptree.range_search(0.0, -0.5)

    def test_height_reported(self, number_items):
        vptree = VPTree(number_items, absolute_difference, leaf_size=4, seed=1)
        assert vptree.height() >= 1

    def test_build_distance_calls_counted(self, number_items):
        vptree = VPTree(number_items, absolute_difference, seed=1)
        assert vptree.build_distance_calls > 0


class TestVPTreeOverTedStar:
    def test_knn_over_trees_matches_scan(self):
        rng = random.Random(7)
        trees = [random_tree_with_depth(rng.randint(2, 10), 3, seed=rng.randrange(10**9))
                 for _ in range(40)]
        metric = lambda a, b: ted_star(a, b, k=4)  # noqa: E731
        vptree = VPTree(trees, metric, leaf_size=4, seed=2)
        scan = LinearScanIndex(trees, metric)
        query = random_tree_with_depth(6, 3, seed=123)
        vp_distances = [d for _, d in vptree.knn(query, 5)]
        scan_distances = [d for _, d in scan.knn(query, 5)]
        assert vp_distances == scan_distances

    def test_query_helpers(self):
        trees = [random_tree_with_depth(5, 2, seed=i) for i in range(10)]
        metric = lambda a, b: ted_star(a, b, k=3)  # noqa: E731
        index = VPTree(trees, metric, seed=0)
        assert len(knn_query(index, trees[0], 3)) == 3
        assert all(d >= 0 for _, d in range_query(index, trees[0], 2.0))


class TestIndexesAgreeWithScan:
    """Plain VP-/BK-tree answers equal the scan's under a true metric."""

    def test_property_randomized_workloads(self):
        from repro.index.bktree import BKTree

        for seed in range(12):
            rng = random.Random(seed)
            items = [float(rng.randrange(0, 300)) for _ in range(rng.randint(5, 80))]
            items = list(dict.fromkeys(items))
            query = float(rng.randrange(0, 300))
            k = rng.randint(1, min(6, len(items)))
            scan = LinearScanIndex(items, absolute_difference)
            expected = [d for _, d in scan.knn(query, k)]
            for cls, kwargs in (
                (VPTree, dict(leaf_size=3, seed=seed)),
                (BKTree, {}),
                (LinearScanIndex, {}),
            ):
                index = cls(items, absolute_difference, **kwargs)
                assert [d for _, d in index.knn(query, k)] == expected, (cls, seed)
                radius = float(rng.randint(0, 60))
                assert sorted(d for _, d in index.range_search(query, radius)) == sorted(
                    d for _, d in scan.range_search(query, radius)
                ), (cls, seed)

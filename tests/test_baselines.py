"""Tests for the baseline similarities: HITS, ReFeX, NetSimile, OddBall, SimRank."""

import pytest

from repro.baselines.feature_distance import (
    canberra_distance,
    euclidean_distance,
    feature_distance,
    feature_knn,
    manhattan_distance,
    normalize_features,
)
from repro.baselines.hits_similarity import hits_node_similarity, hits_similarity_matrix
from repro.baselines.netsimile import clustering_coefficient, netsimile_features
from repro.baselines.oddball import oddball_features, oddball_feature_table
from repro.baselines.refex import refex_feature_matrix, refex_features
from repro.baselines.simrank import simrank, simrank_pair
from repro.exceptions import DistanceError
from repro.graph.graph import Graph


class TestHits:
    def test_matrix_shape(self, path_graph, star_graph):
        pytest.importorskip("numpy")
        similarity, nodes_a, nodes_b = hits_similarity_matrix(path_graph, star_graph)
        assert similarity.shape == (len(nodes_b), len(nodes_a))

    def test_values_non_negative(self, path_graph, star_graph):
        pytest.importorskip("numpy")
        similarity, _, _ = hits_similarity_matrix(path_graph, star_graph)
        assert (similarity >= 0).all()

    def test_structurally_similar_nodes_score_high(self, path_graph):
        pytest.importorskip("numpy")
        other = path_graph.copy()
        score_mid_mid = hits_node_similarity(path_graph, 2, other, 2)
        score_mid_end = hits_node_similarity(path_graph, 2, other, 0)
        score_end_end = hits_node_similarity(path_graph, 0, other, 0)
        assert score_mid_mid > score_mid_end > score_end_end

    def test_pair_lookup_unknown_node(self, path_graph, star_graph):
        pytest.importorskip("numpy")
        with pytest.raises(DistanceError):
            hits_node_similarity(path_graph, 99, star_graph, 0)

    def test_empty_graph_rejected(self, path_graph):
        with pytest.raises(DistanceError):
            hits_similarity_matrix(Graph(), path_graph)

    def test_is_not_symmetric_in_general(self, path_graph, star_graph):
        pytest.importorskip("numpy")
        # HITS similarity is a similarity score, not a metric distance: the
        # score of (u, v) need not equal a distance and self-similarity is not
        # maximal in general.  This documents the paper's "not a metric" claim.
        forward = hits_node_similarity(path_graph, 0, star_graph, 1)
        backward = hits_node_similarity(star_graph, 1, path_graph, 0)
        assert forward >= 0.0 and backward >= 0.0


class TestEgoNetFeatures:
    def test_oddball_star_center(self, star_graph):
        degree, ego_edges, total_degree, out_edges = oddball_features(star_graph, 0)
        assert degree == 5
        assert ego_edges == 5
        assert out_edges == 0
        assert total_degree == 10

    def test_oddball_path_midpoint(self, path_graph):
        degree, ego_edges, _, out_edges = oddball_features(path_graph, 2)
        assert degree == 2
        assert ego_edges == 2
        assert out_edges == 2

    def test_oddball_table_covers_all_nodes(self, path_graph):
        table = oddball_feature_table(path_graph)
        assert set(table) == set(path_graph.nodes())

    def test_clustering_coefficient_triangle(self):
        triangle = Graph([(0, 1), (1, 2), (2, 0)])
        assert clustering_coefficient(triangle, 0) == 1.0

    def test_clustering_coefficient_path(self, path_graph):
        assert clustering_coefficient(path_graph, 2) == 0.0

    def test_netsimile_feature_length(self, path_graph):
        assert len(netsimile_features(path_graph, 2)) == 7

    def test_netsimile_isolated_node(self):
        g = Graph()
        g.add_node(0)
        features = netsimile_features(g, 0)
        assert features == [0.0] * 7

    def test_netsimile_identical_for_symmetric_nodes(self, path_graph):
        assert netsimile_features(path_graph, 1) == netsimile_features(path_graph, 3)


class TestRefex:
    def test_feature_table_covers_all_nodes(self, small_powerlaw_graph):
        table = refex_feature_matrix(small_powerlaw_graph, recursions=1)
        assert set(table) == set(small_powerlaw_graph.nodes())

    def test_recursion_grows_feature_width(self, path_graph):
        narrow = refex_feature_matrix(path_graph, recursions=0, prune_correlated=False)
        wide = refex_feature_matrix(path_graph, recursions=2, prune_correlated=False)
        assert len(wide[0]) > len(narrow[0])

    def test_recursion_width_formula_without_pruning(self, path_graph):
        base = refex_feature_matrix(path_graph, recursions=0, prune_correlated=False)
        one = refex_feature_matrix(path_graph, recursions=1, prune_correlated=False)
        assert len(one[0]) == 3 * len(base[0])

    def test_pruning_never_widens(self, small_powerlaw_graph):
        pruned = refex_feature_matrix(small_powerlaw_graph, recursions=1, prune_correlated=True)
        unpruned = refex_feature_matrix(small_powerlaw_graph, recursions=1, prune_correlated=False)
        assert len(pruned[0]) <= len(unpruned[0])

    def test_symmetric_nodes_share_features(self, path_graph):
        table = refex_feature_matrix(path_graph, recursions=2)
        assert table[1] == table[3]
        assert table[0] == table[4]

    def test_single_node_query_matches_table(self, path_graph):
        table = refex_feature_matrix(path_graph, recursions=2)
        assert refex_features(path_graph, 2, recursions=2) == table[2]
        assert refex_features(path_graph, 2, feature_table=table) == table[2]

    def test_feature_collision_possible_for_different_neighborhoods(self):
        # Two graphs whose nodes differ structurally beyond the ego-net can
        # still collide in ego-net statistics: the weakness of feature-based
        # similarity the paper points out.  Degree-2 node in a long cycle vs
        # degree-2 node in a path have identical base features.
        cycle = Graph([(i, (i + 1) % 8) for i in range(8)])
        path = Graph([(i, i + 1) for i in range(7)])
        cycle_features = refex_feature_matrix(cycle, recursions=0, prune_correlated=False)[0]
        path_features = refex_feature_matrix(path, recursions=0, prune_correlated=False)[3]
        assert cycle_features == path_features

    def test_invalid_recursions(self, path_graph):
        with pytest.raises(ValueError):
            refex_feature_matrix(path_graph, recursions=-1)


class TestFeatureDistances:
    def test_euclidean(self):
        assert euclidean_distance([0, 0], [3, 4]) == 5.0

    def test_manhattan(self):
        assert manhattan_distance([0, 0], [3, 4]) == 7.0

    def test_canberra_ignores_double_zero(self):
        assert canberra_distance([0, 1], [0, 1]) == 0.0

    def test_length_mismatch_rejected(self):
        for fn in (euclidean_distance, manhattan_distance, canberra_distance):
            with pytest.raises(DistanceError):
                fn([1], [1, 2])

    def test_feature_distance_dispatch(self):
        assert feature_distance([0], [2], kind="manhattan") == 2.0
        with pytest.raises(DistanceError):
            feature_distance([0], [1], kind="chebyshev")

    def test_normalize_features_range(self):
        table = {"a": [0.0, 10.0], "b": [5.0, 20.0], "c": [10.0, 30.0]}
        normalised = normalize_features(table)
        for vector in normalised.values():
            assert all(0.0 <= value <= 1.0 for value in vector)
        assert normalised["a"] == [0.0, 0.0]
        assert normalised["c"] == [1.0, 1.0]

    def test_normalize_constant_column(self):
        table = {"a": [3.0], "b": [3.0]}
        assert normalize_features(table) == {"a": [0.0], "b": [0.0]}

    def test_normalize_empty(self):
        assert normalize_features({}) == {}

    def test_feature_knn_returns_closest(self):
        table = {"near": [1.0], "far": [10.0], "mid": [4.0]}
        result = feature_knn([0.0], table, 2)
        assert [node for node, _ in result] == ["near", "mid"]

    def test_feature_knn_invalid_k(self):
        with pytest.raises(DistanceError):
            feature_knn([0.0], {"a": [1.0]}, 0)


class TestSimrank:
    def test_self_similarity_is_one(self, path_graph):
        scores = simrank(path_graph, iterations=3)
        for node in path_graph.nodes():
            assert scores[(node, node)] == 1.0

    def test_symmetric_scores(self, path_graph):
        scores = simrank(path_graph, iterations=4)
        assert scores[(0, 4)] == pytest.approx(scores[(4, 0)])

    def test_structurally_equivalent_nodes_score_high(self, star_graph):
        scores = simrank(star_graph, iterations=4)
        # Two leaves of a star share their only neighbor: similarity = decay.
        assert scores[(1, 2)] == pytest.approx(0.8)

    def test_pair_helper(self, star_graph):
        assert simrank_pair(star_graph, 1, 2, iterations=4) == pytest.approx(0.8)

    def test_pair_helper_unknown_node(self, star_graph):
        with pytest.raises(DistanceError):
            simrank_pair(star_graph, 1, 99)

    def test_empty_graph_rejected(self):
        with pytest.raises(DistanceError):
            simrank(Graph())

    def test_inter_graph_nodes_not_supported(self, path_graph, star_graph):
        # SimRank is intra-graph only: scores exist solely for node pairs of
        # the same graph, which is the gap NED addresses.
        scores = simrank(path_graph, iterations=2)
        assert ("anything", 0) not in scores

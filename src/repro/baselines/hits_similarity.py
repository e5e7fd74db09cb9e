"""HITS-based inter-graph node similarity (Blondel et al., SIAM Review 2004).

The similarity matrix between all node pairs of two graphs ``G_A`` (adjacency
``A``) and ``G_B`` (adjacency ``B``) is computed by the fixed-point iteration

    S_{k+1} = B · S_k · Aᵀ  +  Bᵀ · S_k · A

normalised after every step (Frobenius norm), starting from the all-ones
matrix.  The entry ``S[j, i]`` converges (on even iterations) to the
similarity between node ``i`` of ``G_A`` and node ``j`` of ``G_B``.

The paper uses this measure as the "HITS" baseline in Figure 9: it can
compare inter-graph nodes without labels, but it is not a metric and it is
slow because a whole |V_A| × |V_B| matrix has to be iterated even when only
one pair is needed.

numpy is imported inside the functions that iterate the matrix, so importing
:mod:`repro.baselines` (and the experiment drivers built on it) works without
numpy; only calling the HITS baseline needs it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Tuple

from repro.exceptions import DistanceError
from repro.graph.graph import Graph

if TYPE_CHECKING:
    import numpy

Node = Hashable


def _adjacency_matrix(graph: Graph) -> Tuple[numpy.ndarray, List[Node]]:
    import numpy as np

    nodes = list(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    matrix = np.zeros((len(nodes), len(nodes)), dtype=float)
    for u, v in graph.edges():
        matrix[index[u], index[v]] = 1.0
        matrix[index[v], index[u]] = 1.0
    return matrix, nodes


def hits_similarity_matrix(
    graph_a: Graph,
    graph_b: Graph,
    iterations: int = 20,
    tolerance: float = 1e-9,
) -> Tuple[numpy.ndarray, List[Node], List[Node]]:
    """Return the converged similarity matrix between two graphs.

    Returns ``(S, nodes_a, nodes_b)`` where ``S[j, i]`` is the similarity
    between ``nodes_a[i]`` and ``nodes_b[j]``.  ``iterations`` is forced to an
    even number because the iteration oscillates between two limits and the
    even-iteration limit is the one Blondel et al. define as the similarity.
    """
    if graph_a.number_of_nodes() == 0 or graph_b.number_of_nodes() == 0:
        raise DistanceError("hits_similarity_matrix requires non-empty graphs")
    import numpy as np

    a_matrix, nodes_a = _adjacency_matrix(graph_a)
    b_matrix, nodes_b = _adjacency_matrix(graph_b)
    if iterations % 2 == 1:
        iterations += 1
    similarity = np.ones((len(nodes_b), len(nodes_a)), dtype=float)
    previous = similarity
    for step in range(iterations):
        updated = b_matrix @ similarity @ a_matrix.T + b_matrix.T @ similarity @ a_matrix
        norm = np.linalg.norm(updated)
        if norm == 0:
            similarity = np.zeros_like(updated)
            break
        updated /= norm
        if step % 2 == 1 and np.max(np.abs(updated - previous)) < tolerance:
            similarity = updated
            break
        if step % 2 == 1:
            previous = updated
        similarity = updated
    return similarity, nodes_a, nodes_b


def hits_node_similarity(
    graph_a: Graph,
    node_a: Node,
    graph_b: Graph,
    node_b: Node,
    iterations: int = 20,
) -> float:
    """Return the HITS-based similarity between one pair of inter-graph nodes.

    Note that the whole similarity matrix must be iterated even for a single
    pair, which is exactly the inefficiency the paper's Figure 9a exposes.
    """
    similarity, nodes_a, nodes_b = hits_similarity_matrix(graph_a, graph_b, iterations)
    index_a: Dict[Node, int] = {node: i for i, node in enumerate(nodes_a)}
    index_b: Dict[Node, int] = {node: i for i, node in enumerate(nodes_b)}
    if node_a not in index_a:
        raise DistanceError(f"node {node_a!r} not in first graph")
    if node_b not in index_b:
        raise DistanceError(f"node {node_b!r} not in second graph")
    return float(similarity[index_b[node_b], index_a[node_a]])

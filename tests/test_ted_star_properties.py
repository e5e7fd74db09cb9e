"""Property-based tests (hypothesis) for TED* metric properties.

These verify, on randomly generated unordered trees, the four metric
properties the paper proves in Section 7 plus the structural invariants the
algorithm relies on (integrality, invariance to node relabeling, and the
relation to tree size), and the two facts the batch kernel's solver-free
top levels and the closed-form degree tier rest on: the root level's
matching cost is always 0, and for k <= 3 the degree-multiset lower bound
is exact — so a store-wide bound survey pins every pair there, bitwise
equal to every exact path.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.tree_store import TreeStore, summarize_tree
from repro.ted.resolver import BOUND_TIERS, SURVEY_TIERS, BoundedNedDistance
from repro.trees.canonize import trees_isomorphic
from repro.trees.tree import Tree
from repro.ted.batch import BatchTedKernel, batch_available
from repro.ted.bounds import ted_star_degree_lower_bound
from repro.ted.ted_star import ted_star, ted_star_detailed
from repro.utils.rng import ensure_rng


@st.composite
def bounded_trees(draw, max_nodes=10, max_depth=4):
    """Generate a random tree with bounded size and depth."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = ensure_rng(seed)
    parents = [-1]
    depths = [0]
    for node in range(1, n):
        eligible = [i for i in range(node) if depths[i] < max_depth]
        parent = rng.choice(eligible) if eligible else 0
        parents.append(parent)
        depths.append(depths[parent] + 1)
    return Tree(parents)


@st.composite
def tie_heavy_trees(draw, max_width=12):
    """Wide trees of depth <= 3 whose nodes repeat a few degrees.

    Every level holds many nodes with equal collections, so most levels
    admit several optimal matchings.
    """
    parents = [-1]
    for fanout in draw(st.lists(st.integers(min_value=0, max_value=3), max_size=max_width)):
        node = len(parents)
        parents.append(0)
        for _ in range(fanout):
            child = len(parents)
            parents.append(node)
            parents.extend([child] * draw(st.integers(min_value=0, max_value=2)))
    return Tree(parents)


any_trees = st.one_of(bounded_trees(max_nodes=14), tie_heavy_trees())


def relabel_tree(tree: Tree, seed: int) -> Tree:
    """Rebuild ``tree`` with a different node numbering (same structure)."""
    rng = ensure_rng(seed)
    nodes = list(tree.nodes())
    non_root = nodes[1:]
    rng.shuffle(non_root)
    order = [0] + non_root
    # order[i] is the old node placed at... we need new ids respecting that a
    # parent appears before its children is NOT required by Tree, so a plain
    # permutation that keeps the root at index 0 is enough.
    new_id = {old: new for new, old in enumerate(order)}
    parents = [0] * tree.size()
    for old in nodes:
        parent_old = tree.parent(old)
        parents[new_id[old]] = -1 if parent_old == -1 else new_id[parent_old]
    return Tree(parents)


@settings(max_examples=60, deadline=None)
@given(bounded_trees())
def test_self_distance_is_zero(tree):
    assert ted_star(tree, tree) == 0.0


@settings(max_examples=60, deadline=None)
@given(bounded_trees(), bounded_trees())
def test_non_negativity(first, second):
    assert ted_star(first, second) >= 0.0


@settings(max_examples=60, deadline=None)
@given(bounded_trees(), bounded_trees())
def test_symmetry(first, second):
    assert ted_star(first, second) == ted_star(second, first)


@settings(max_examples=60, deadline=None)
@given(bounded_trees(), bounded_trees())
def test_identity_of_indiscernibles(first, second):
    distance = ted_star(first, second)
    assert (distance == 0.0) == trees_isomorphic(first, second)


@settings(max_examples=40, deadline=None)
@given(bounded_trees(max_nodes=8), bounded_trees(max_nodes=8), bounded_trees(max_nodes=8))
def test_triangle_inequality(first, second, third):
    d_xz = ted_star(first, third)
    d_xy = ted_star(first, second)
    d_yz = ted_star(second, third)
    assert d_xz <= d_xy + d_yz + 1e-9


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
@pytest.mark.parametrize("backend", ["hungarian", "scipy"])
def test_triangle_inequality_witness_at_k4(backend):
    """The smallest known triple where TED* as computed breaks the triangle
    inequality: scipy gives d(0, 24) = 9 > d(0, 15) + d(15, 24) = 1 + 7,
    hungarian gives 10 > 1 + 7.  A fix to the definition must remove the
    marker."""
    if backend == "scipy":
        pytest.importorskip("scipy")
    from repro.graph.generators import erdos_renyi_graph
    from repro.trees.adjacent import k_adjacent_tree

    graph = erdos_renyi_graph(60, 0.06, seed=4)
    trees = {node: k_adjacent_tree(graph, node, 4) for node in (0, 24, 15)}

    def distance(first, second):
        return ted_star(trees[first], trees[second], k=4, backend=backend)

    assert distance(0, 24) <= distance(0, 15) + distance(15, 24)


@settings(max_examples=60, deadline=None)
@given(bounded_trees(), bounded_trees())
def test_values_are_integers(first, second):
    distance = ted_star(first, second)
    assert abs(distance - round(distance)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(bounded_trees(), bounded_trees())
def test_upper_bounded_by_total_size(first, second):
    # Deleting every non-root node of one tree and inserting every non-root
    # node of the other is always a valid edit script under TED* operations.
    distance = ted_star(first, second)
    assert distance <= (first.size() - 1) + (second.size() - 1)


@settings(max_examples=60, deadline=None)
@given(bounded_trees(), bounded_trees())
def test_lower_bounded_by_size_difference(first, second):
    # Only insert/delete-leaf operations change the node count, one at a time.
    distance = ted_star(first, second)
    assert distance >= abs(first.size() - second.size())


@settings(max_examples=50, deadline=None)
@given(bounded_trees(), st.integers(min_value=0, max_value=2**31 - 1))
def test_invariant_to_node_relabeling(tree, seed):
    relabeled = relabel_tree(tree, seed)
    assert ted_star(tree, relabeled) == 0.0


@settings(max_examples=50, deadline=None)
@given(bounded_trees(), bounded_trees(), st.integers(min_value=0, max_value=2**31 - 1))
def test_distance_invariant_under_relabeling_of_operands(first, second, seed):
    assert ted_star(first, second) == ted_star(relabel_tree(first, seed), second)


@settings(max_examples=40, deadline=None)
@given(bounded_trees(max_nodes=8), bounded_trees(max_nodes=8))
def test_monotone_in_k(first, second):
    # Lemma 5: the distance over the top x levels never exceeds the distance
    # over the top y >= x levels.
    max_k = max(first.height(), second.height()) + 1
    previous = 0.0
    for k in range(1, max_k + 1):
        current = ted_star(first, second, k=k)
        assert current >= previous - 1e-9
        previous = current


@settings(max_examples=80, deadline=None)
@given(any_trees, any_trees, st.integers(min_value=1, max_value=6),
       st.sampled_from(["scipy", "hungarian"]))
def test_root_level_matching_cost_is_zero(first, second, k, backend):
    # Depth 1's re-canonization makes the padded side's root collection a
    # sub-multiset of the other's: the roots differ by exactly the padding
    # below, so their matching cost is 0 (the batch kernel skips the level).
    if backend == "scipy":
        pytest.importorskip("scipy")
    detailed = ted_star_detailed(first, second, k=k, backend=backend)
    costs = {cost.level: cost for cost in detailed.level_costs}
    assert costs[1].matching_cost == 0.0
    assert costs[1].bipartite_cost == (costs[2].padding_cost if k >= 2 else 0)


@pytest.mark.skipif(not batch_available(), reason="the batch TED* kernel needs numpy and SciPy")
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(any_trees, any_trees), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=3))
def test_degree_bound_is_exact_up_to_k3(pairs, k):
    # With at most three levels, depth 2 is the bottom of the view: its nodes
    # share one label, depth 1's costs are degree differences and sorted
    # degrees match optimally.  So the degree bound is the distance, and no
    # backend's choice among tied matchings can change it.
    pairs = [(first.truncate(k - 1), second.truncate(k - 1)) for first, second in pairs]
    kernel = BatchTedKernel()
    batch = kernel.ted_star_block(pairs, k=k)
    for (first, second), batch_value in zip(pairs, batch):
        lower = float(ted_star_degree_lower_bound(first, second, k))
        scipy_value = ted_star(first, second, k=k, backend="scipy")
        hungarian = ted_star(first, second, k=k, backend="hungarian")
        assert lower.hex() == scipy_value.hex() == hungarian.hex() == batch_value.hex()
    assert kernel.solver_calls == 0


@pytest.mark.skipif(not batch_available(), reason="the batch TED* kernel needs numpy and SciPy")
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(any_trees, any_trees), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=3))
def test_survey_is_exact_up_to_k3(pairs, k):
    # The store-wide survey closes every interval at k <= 3 (through the
    # signature, level-size or degree tier) and its value is the distance
    # under every exact path, bit for bit.
    pairs = [(first.truncate(k - 1), second.truncate(k - 1)) for first, second in pairs]
    store = TreeStore(k, [summarize_tree(i, second, k) for i, (_, second) in enumerate(pairs)])
    resolver = BoundedNedDistance(k=k)
    batch = BatchTedKernel().ted_star_block(pairs, k=k)
    for index, (first, second) in enumerate(pairs):
        survey = resolver.survey(summarize_tree("probe", first, k), store)
        assert survey.closed.all()
        assert SURVEY_TIERS[survey.tiers[index]] in BOUND_TIERS
        value = float(survey.lower[index])
        scipy_value = ted_star(first, second, k=k, backend="scipy")
        hungarian = ted_star(first, second, k=k, backend="hungarian")
        assert value.hex() == scipy_value.hex() == hungarian.hex() == batch[index].hex()

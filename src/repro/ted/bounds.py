"""Cheap bounds on TED* — the tier cascade behind every pruning decision —
plus the relations among TED*, exact TED and exact GED (Sections 11-12).

Distance resolution in this codebase is *tiered*: before anyone pays for an
exact O(k·n³) TED* computation, a cascade of ever-tighter, ever-costlier
summaries gets a chance to answer (or exclude) the pair.  The cascade is
orchestrated by :class:`repro.ted.resolver.BoundedNedDistance`; this module
supplies the per-tier mathematics.  In cascade order:

1. **Canonical signature** (O(1) on precomputed summaries) — equal AHU
   canonical strings mean isomorphic k-adjacent trees, hence TED* exactly 0
   (Section 7).  Decides the pair outright.
2. **Level-size bounds** (O(k)) — from the per-level sizes ``a_i, b_i``
   alone:

   * ``Σ_i |a_i − b_i| ≤ TED*`` — moves never change level sizes, so at
     least that many leaf insertions/deletions are unavoidable (it is
     exactly the padding cost ``Σ P_i``, and every ``M_i ≥ 0``).
   * ``TED* ≤ Σ_i |a_i − b_i| + Σ_{i≥2} min(a_i, b_i)`` — a constructive
     edit script realises it: insert the missing nodes top-down directly
     under their final parents, move each surviving node at most once, then
     delete the surplus bottom-up (the roots always coincide, so level 1
     contributes no move).  Equivalently, each level's bipartite matching
     cost satisfies ``M_i ≤ min(a_{i+1}, b_{i+1})``.

3. **Degree-multiset bounds** (O(Σ_i a_i log a_i)) — the level-size lower
   bound ignores branching structure; this tier adds it back.  At level
   ``i``, Algorithm 1 matches nodes by their children-label multisets, and
   the matching weight between two nodes is at least the difference of
   their child counts: ``|S_u Δ S_v| ≥ |deg(u) − deg(v)|``.  Minimising
   ``Σ |deg(u) − deg(v)|`` over all pairings of the (zero-padded) level
   degree multisets is an earth-mover-style transport problem on the line,
   solved exactly by pairing both multisets in sorted order.  Writing
   ``D_i`` for that optimal transport cost, ``m(G²_i) ≥ D_i`` and therefore
   ``M_i ≥ (D_i − P_{i+1}) / 2``, giving

   ``TED* ≥ Σ_i P_i + Σ_i max(0, (D_i − P_{i+1}) / 2)``

   which dominates the level-size lower bound (every added term is ≥ 0) and
   never exceeds TED* (it lower-bounds each ``M_i`` of Algorithm 1).

   **At k ≤ 3 the lower bound is TED* itself**, so this tier closes the
   interval (:data:`DEGREE_BOUND_EXACT_MAX_K`).  With ``TED* = Σ_i P_i +
   Σ_i M_i`` it suffices to show ``M_i = max(0, (D_i − P_{i+1}) / 2)`` on
   every level, in three steps:

   a. *The root's matching cost is 0.*  Level 1 holds one node per side, so
      ``D_1 = |a_2 − b_2| = P_2`` and the bound's term is 0.  Algorithm 1's
      ``M_1`` is 0 too: after depth 1's re-canonization the padded side's
      root collection is a sub-multiset of the other side's, so their
      symmetric difference is exactly ``P_2`` (pinned for every k by the
      property suite).  The bottom level ``k`` has only empty collections
      and ``P_{k+1} = 0``, so both its terms are 0 as well.
   b. *Depth-1 weights are |deg u − deg v| when depth 2 has one label.*  At
      k = 3 depth 2 is the bottom of the view: every node there, padding
      included, has an empty collection and hence the same canonical label
      (re-canonization only copies that label).  A depth-1 collection is
      then ``deg(u)`` copies of one label, padding nodes have degree 0, and
      ``|S_u Δ S_v| = |deg u − deg v|``.  (At k ≤ 2 every level is the
      root or the bottom, which step a covers.)
   c. *Sorted-order matching is optimal for those weights.*  For costs
      ``|x − y|`` on the line, uncrossing any two crossed pairs never
      raises the cost, so pairing both zero-padded degree multisets in
      sorted order is a minimum matching: ``m(G²_2) = D_2``.  Since
      ``D_2 ≥ |Σ deg − Σ deg| = |a_3 − b_3| = P_3``, the ``max`` is
      inactive and ``M_2 = (D_2 − P_3) / 2``, the bound's term.

   Every optimal matching has the same cost, so the value does not depend
   on the matching backend's tie-breaking: the degree bound equals scipy,
   hungarian and the batch kernel bit for bit at k ≤ 3.  From k = 4 on,
   depth 2 has several labels and the bound is only a bound.

4. **Exact TED*** (O(k·n³)) — :func:`repro.ted.ted_star.ted_star`, paid
   only when the interval left by tiers 1-3 still straddles the decision at
   hand (a kNN threshold, a range radius, a matrix threshold).

Two further inequalities from the paper relate TED* to the classical
distances and are used by the ablation benchmarks and the property tests:

* ``GED(t1, t2) ≤ 2 · TED*(t1, t2)`` — every TED* edit operation maps to
  exactly two GED edit operations on the tree seen as a graph (Equation 18).
* ``TED(t1, t2) ≤ δ_T(W+)(t1, t2)`` — the weighted TED* with ``w²_i = 4·i``
  dominates exact TED (Lemma 7).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.ted.ted_star import ted_star
from repro.ted.weighted import ted_star_upper_bound_weights
from repro.trees.tree import Tree


def ged_upper_bound_from_ted_star(first: Tree, second: Tree, k=None) -> float:
    """Return ``2 · TED*``, an upper bound on the GED of the two trees."""
    return 2.0 * ted_star(first, second, k=k)


def ted_upper_bound_from_weighted(first: Tree, second: Tree, k=None) -> float:
    """Return ``δ_T(W+)``, an upper bound on the exact TED of the two trees."""
    return ted_star_upper_bound_weights(first, second, k=k)


def level_size_sequence(tree: Tree, k: Optional[int] = None) -> Tuple[int, ...]:
    """Return the sizes of the paper-style levels ``1..k`` of ``tree``.

    Level 1 is the root level.  When ``k`` exceeds the tree's height the
    sequence is zero-padded, so sequences of trees extracted with the same
    ``k`` are always directly comparable.
    """
    sizes = [len(level) for level in tree.levels()]
    if k is None:
        return tuple(sizes)
    if k < len(sizes):
        raise ValueError(f"k={k} is smaller than the tree's {len(sizes)} levels")
    return tuple(sizes) + (0,) * (k - len(sizes))


def ted_star_level_size_bounds(
    sizes_first: Sequence[int], sizes_second: Sequence[int]
) -> Tuple[int, int]:
    """Return ``(lower, upper)`` bounds on TED* from per-level sizes alone.

    ``lower = Σ_i |a_i − b_i|`` and ``upper = lower + Σ_{i≥2} min(a_i, b_i)``
    (see the module docstring for why both hold).  Costs O(k) — no tree
    traversal, no matching — which is what makes bound-based pruning pay off
    when each exact TED* is O(k·n³).
    """
    width = max(len(sizes_first), len(sizes_second))
    lower = 0
    slack = 0
    for i in range(width):
        a = sizes_first[i] if i < len(sizes_first) else 0
        b = sizes_second[i] if i < len(sizes_second) else 0
        lower += abs(a - b)
        if i >= 1:  # the roots always coincide: level 1 contributes no move
            slack += min(a, b)
    return lower, lower + slack


def ted_star_lower_bound(first: Tree, second: Tree, k: Optional[int] = None) -> int:
    """Return the level-size lower bound on ``TED*(first, second)``."""
    lower, _ = ted_star_level_size_bounds(
        level_size_sequence(first, k), level_size_sequence(second, k)
    )
    return lower


def ted_star_upper_bound(first: Tree, second: Tree, k: Optional[int] = None) -> int:
    """Return the level-size upper bound on ``TED*(first, second)``."""
    _, upper = ted_star_level_size_bounds(
        level_size_sequence(first, k), level_size_sequence(second, k)
    )
    return upper


def degree_profile_sequence(
    tree: Tree, k: Optional[int] = None
) -> Tuple[Tuple[int, ...], ...]:
    """Return the per-level sorted child-count multisets of ``tree``.

    Entry ``i`` (0-based) is the ascending tuple of in-view child counts of
    the nodes on paper-style level ``i + 1``.  "In-view" matches the
    truncation semantics of :class:`repro.trees.levels.LevelView` /
    ``ted_star(..., k=k)``: nodes on the deepest retained level contribute
    degree 0 even if the original tree continues below it, so the resulting
    degree bounds never disagree with the k-truncated exact distance.  When
    ``k`` exceeds the tree's height the sequence is padded with empty
    levels, keeping profiles of trees summarised with the same ``k``
    directly comparable.
    """
    levels = tree.levels()
    if k is None:
        k = len(levels)
    elif k < len(levels):
        raise ValueError(f"k={k} is smaller than the tree's {len(levels)} levels")
    profiles = []
    for depth in range(k):
        if depth >= len(levels):
            profiles.append(())
        elif depth == k - 1:
            profiles.append((0,) * len(levels[depth]))
        else:
            profiles.append(
                tuple(sorted(len(tree.children(node)) for node in levels[depth]))
            )
    return tuple(profiles)


#: Largest number of levels for which the degree-multiset lower bound *is*
#: TED* (see the module docstring), so the degree tier closes the interval.
DEGREE_BOUND_EXACT_MAX_K = 3


def _sorted_transport_cost(first: Sequence[int], second: Sequence[int]) -> int:
    """Minimum ``Σ |x − y|`` over pairings of two zero-padded degree multisets.

    For costs ``|x − y|`` on the line, the optimal assignment pairs both
    multisets in sorted order (the classic no-crossing exchange argument), so
    the earth-mover-style matching cost reduces to an aligned L1 sum.  Both
    inputs must already be sorted ascending; the shorter one is padded with
    zeros *in front*, which keeps it sorted.
    """
    width = max(len(first), len(second))
    padded_first = (0,) * (width - len(first)) + tuple(first)
    padded_second = (0,) * (width - len(second)) + tuple(second)
    return sum(abs(x - y) for x, y in zip(padded_first, padded_second))


def ted_star_degree_multiset_bounds(
    profiles_first: Sequence[Tuple[int, ...]],
    profiles_second: Sequence[Tuple[int, ...]],
) -> Tuple[int, int]:
    """Return ``(lower, upper)`` TED* bounds from per-level degree multisets.

    ``lower = Σ_i P_i + Σ_i max(0, (D_i − P_{i+1}) / 2)`` where ``P_i`` is
    the level-size padding cost and ``D_i`` the sorted-order transport cost
    between the zero-padded degree multisets of level ``i`` (see the module
    docstring for the derivation).  The lower bound dominates
    :func:`ted_star_level_size_bounds`' and never exceeds exact TED*; the
    upper bound is the level-size one, except that with at most
    :data:`DEGREE_BOUND_EXACT_MAX_K` levels the lower bound is exact and
    the upper bound equals it.

    ``D_i − P_{i+1}`` is always even — both sides are congruent to
    ``a_{i+1} + b_{i+1}`` mod 2 — so the bound stays integral.
    """
    width = max(len(profiles_first), len(profiles_second))
    size_lower = 0
    slack = 0
    move_lower = 0
    for i in range(width):
        profile_a = profiles_first[i] if i < len(profiles_first) else ()
        profile_b = profiles_second[i] if i < len(profiles_second) else ()
        a, b = len(profile_a), len(profile_b)
        size_lower += abs(a - b)
        if i >= 1:  # the roots always coincide: level 1 contributes no move
            slack += min(a, b)
        next_a = len(profiles_first[i + 1]) if i + 1 < len(profiles_first) else 0
        next_b = len(profiles_second[i + 1]) if i + 1 < len(profiles_second) else 0
        padding_below = abs(next_a - next_b)
        transport = _sorted_transport_cost(profile_a, profile_b)
        move_lower += max(0, (transport - padding_below) // 2)
    if width <= DEGREE_BOUND_EXACT_MAX_K:
        return size_lower + move_lower, size_lower + move_lower
    return size_lower + move_lower, size_lower + slack


def ted_star_degree_lower_bound(
    first: Tree, second: Tree, k: Optional[int] = None
) -> int:
    """Return the degree-multiset lower bound on ``TED*(first, second)``."""
    lower, _ = ted_star_degree_multiset_bounds(
        degree_profile_sequence(first, k), degree_profile_sequence(second, k)
    )
    return lower


def tree_as_graph(tree: Tree) -> Graph:
    """Convert a rooted tree into an undirected graph (for GED baselines)."""
    graph = Graph()
    graph.add_nodes_from(tree.nodes())
    for parent, child in tree.edges():
        graph.add_edge(parent, child)
    return graph

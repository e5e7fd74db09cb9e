"""Array-native batch TED* kernel: segmented evaluation of whole blocks.

The per-pair kernel (:mod:`repro.ted.ted_star`) already avoids the
algorithmic traps — AHU-canonical inputs, label-pair memoized costs, SciPy
assignment — so what remains of a cold distance-matrix build is Python
overhead: per pair and per level, a dozen small array or list operations.
This module removes it by running Algorithm 1 for **every pair of a block at
once**: each level is one set of array operations over the concatenated
rows of all pairs (a *segmented* layout, one segment per pair), and the only
per-pair work left is the assignment solver itself, where a level has a
choice that later levels depend on.

The layout rests on :func:`repro.trees.canonize.canonical_form`: the
canonical representative numbers nodes in BFS order with children visited
contiguously, so the nodes of depth ``d`` occupy one contiguous id range and
a node's position within its level is its row in the level's matrices.  A
:class:`CompiledTree` is just the level sizes plus, per depth, each node's
parent position within the level above — enough to run Algorithm 1 without
touching a :class:`~repro.trees.tree.Tree` again.

For a level of ``n = max(size_left, size_right)`` nodes, pair ``p`` owns
``2n`` consecutive rows: its left nodes, padded with empty collections to
``n``, then its right nodes, padded likewise.  Bottom up, each level of
depth ``k-1 .. 2`` then takes

1. one flat ``bincount`` for the children-label *count rows* of every pair
   (a collection is a multiset; a count row over the pair's alphabet of the
   level below represents it exactly; rows are padded to the widest
   alphabet of the block, and the zero columns change nothing),
2. one joint sort keyed by pair id for the canonization labels (equal rows
   of one pair get one label, numbered from 0 within the pair),
3. one cost broadcast for the pairs that need the solver — ``n >= 2`` and
   more than one distinct collection — laying out each pair's ``n × n``
   float64 matrix of multiset symmetric differences back to back (in runs
   of a few hundred KiB, so hub blocks stay small in memory),
4. :func:`scipy.optimize.linear_sum_assignment` on each of those matrices;
   every other pair's assignment is the identity (its matrix is all zeros,
   or ``1 × 1``),
5. vector arithmetic for the padding and matching costs and for the
   re-canonization of the whole block.

A level whose collections are all empty (the bottom of the ``k``-level
view) costs only its padding.  The top two levels need less:

* **Depth 1** needs only each pair's optimal matching cost, since nothing
  above it reads its labels — and the optimal cost is the same whichever
  optimal matching a solver returns.  Where a pair's depth-2 nodes share
  one label (always at ``k <= 3``), a collection is just its size, the cost
  of a row pair is ``|deg u - deg v|`` and matching each side's degrees in
  sorted order is optimal: one segmented sort per side for the whole
  block, no canonization and no solver.  Pairs with a wider depth-2
  alphabet take steps 1–4 for the cost only.
* **The root level** is skipped: its matching cost is always 0.  After
  depth 1's re-canonization the padded side's root collection is a
  sub-multiset of the other side's, so their symmetric difference is
  exactly the padding of depth 1, which the cost subtracts.

So the solver runs only at depths ``>= 2``, or at depth 1 for pairs with a
wider alphabet — never at ``k <= 3``.

**Bit-identity.**  Values equal ``ted_star(..., backend="scipy")`` exactly,
not merely closely.  Every cost matrix entry is a multiset symmetric
difference, which depends only on which children share a label, never on
the label values; the count-row labels induce the same equalities as the
per-pair kernel's ``(len, content)`` ranking, so each solver call receives
the same float64 matrix, returns the same assignment and leads to the same
re-canonization, level after level, down to depth 1, whose optimal cost
every optimal matching shares.  All sums are of small integers (and
halves of them) in float64, hence exact in any order.  The property suite
asserts this over random blocks, and the benchmark's recorded digests
re-assert it on every run.

Pairs whose level sizes would make the arrays pathological
(``max_level_cells``) are evaluated in place by the per-pair kernel pinned
to the scipy backend — same values, bounded memory — and a block whose
combined arrays would exceed the budget is evaluated in halves.  When numpy
or SciPy are missing the kernel cannot be constructed at all
(:func:`batch_available` is the guard); the resolver then stays on the
per-pair path.

Consumers do not call this module directly: the kernel is an exact-tier
backend of :class:`repro.ted.resolver.BoundedNedDistance`
(``backend="batch"``, auto-adopted by sessions when the store side-channel
and SciPy are available), reached through ``resolve_many()`` /
``exact_many()`` block resolution, and the engine of every ``ned-serve``
worker.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import DistanceError
from repro.ted.ted_star import _canonical, ted_star
from repro.trees.tree import Tree
from repro.utils.validation import check_positive_int

#: Per-level cell budget before a pair falls back to the per-pair kernel:
#: a level of ``n = max(size_l, size_r)`` nodes over a children alphabet of
#: ``m`` labels stays array-native only while ``n*n`` (cost matrix) and
#: ``n*(m+1)`` (count rows) fit the budget.  The default admits levels of
#: ~2000 nodes (a ~32 MB float64 cost matrix) — far beyond the k-adjacent
#: trees the engine stores — while keeping adversarial inputs bounded.  The
#: same budget caps a whole block's level arrays.
DEFAULT_MAX_LEVEL_CELLS = 1 << 22

#: Compiled trees one kernel keeps (least recently used are evicted first).
#: Far above any store's size, so it only bounds a long-lived server that
#: keeps seeing new probe trees.
MAX_COMPILED_TREES = 1 << 16

#: Cost-matrix cells the solver step builds at once (512 KiB of float64):
#: a block of hub pairs is solved in runs, so its transient arrays stay this
#: size instead of growing with the block.  Values do not depend on it.
_SOLVE_CELLS = 1 << 16

#: Exclusive bound of the packed integer sort keys of :func:`_canonize_rows`.
_KEY_LIMIT = 1 << 62

_np = None
_lsa = None
_EMPTY = None  # shared empty position array (read-only by contract)


def _load_numpy():
    """Import numpy + SciPy's assignment solver lazily (tier-1 runs without)."""
    global _np, _lsa, _EMPTY
    if _np is None:
        import numpy

        from scipy.optimize import linear_sum_assignment

        _np = numpy
        _lsa = linear_sum_assignment
        _EMPTY = numpy.zeros(0, dtype=numpy.int64)
    return _np


def batch_available() -> bool:
    """True when numpy and SciPy are importable, i.e. the kernel can run."""
    try:
        _load_numpy()
    except ImportError:
        return False
    return True


class CompiledTree:
    """One tree pre-compiled into the arrays the kernel consumes.

    Built from the AHU-canonical parent array, whose BFS numbering makes
    both levels and sibling groups contiguous id ranges:

    * ``level_sizes[d]`` is the number of nodes of depth ``d``,
    * ``parent_positions(d)`` gives each depth-``d`` node's parent's
      position *within its own level* — the row that node contributes to
      in the level above's count rows.

    ``key`` is the per-pair kernel's ``_normalise_order`` sort key, so the
    batch kernel orients every pair exactly as ``ted_star`` would.
    """

    __slots__ = ("signature", "size", "height", "level_sizes", "key", "_positions", "_padded")

    def __init__(self, parents: Sequence[int], signature: str) -> None:
        np = _load_numpy()
        par = np.asarray(parents, dtype=np.int64)
        size = int(par.shape[0])
        if size > 1 and bool((np.diff(par[1:]) < 0).any()):
            raise DistanceError(
                "CompiledTree expects a canonical (BFS-ordered) parent array; "
                "compile through BatchTedKernel.compile, which canonicalizes"
            )
        counts = (
            np.bincount(par[1:], minlength=size)
            if size > 1
            else np.zeros(size, dtype=np.int64)
        )
        # child_starts[v] = first child id of node v (= 1 + children of all
        # earlier nodes); in BFS order, child_starts[end of level d] is the
        # end of level d+1 — which is how the level boundaries fall out.
        child_starts = np.ones(size + 1, dtype=np.int64)
        np.cumsum(counts, out=child_starts[1:])
        child_starts[1:] += 1
        starts = [0, 1]
        while starts[-1] < size:
            starts.append(int(child_starts[starts[-1]]))
        self.size = size
        self.height = len(starts) - 2
        self.signature = signature
        self.key = (size, self.height, signature)
        self.level_sizes = tuple(b - a for a, b in zip(starts, starts[1:]))
        self._positions = (_EMPTY,) + tuple(
            par[starts[d]:starts[d + 1]] - starts[d - 1]
            for d in range(1, len(starts) - 1)
        )
        self._padded = {}

    def sizes(self, k: int) -> Tuple[int, ...]:
        """Level sizes of depths ``0 .. k-1`` (zero beyond the height), memoized per k."""
        padded = self._padded.get(k)
        if padded is None:
            padded = self._padded[k] = (self.level_sizes + (0,) * k)[:k]
        return padded

    def parent_positions(self, depth: int):
        """Parent positions of the depth-``depth`` nodes (empty beyond the height)."""
        return self._positions[depth] if depth <= self.height else _EMPTY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledTree(size={self.size}, height={self.height})"


class BatchTedKernel:
    """Evaluate blocks of TED* pairs over pre-compiled tree arrays.

    One kernel instance memoizes compiled trees by canonical signature, so a
    store is compiled at most once per session however many blocks touch
    it; :meth:`precompile_store` does it eagerly for benchmarks and warm
    process starts.  The memo keeps the :data:`MAX_COMPILED_TREES` most
    recently used trees (``compiled_hits`` counts memo hits,
    ``compiled_evictions`` the trees dropped).  ``blocks`` /
    ``batched_pairs`` / ``fallback_pairs`` count the work split between the
    array path and the per-pair fallback, and ``solver_calls`` the
    assignment-solver calls of the array path (sessions surface them all
    via ``metrics_snapshot()['batch_kernel']``).
    """

    def __init__(self, max_level_cells: int = DEFAULT_MAX_LEVEL_CELLS) -> None:
        if not batch_available():
            raise DistanceError(
                "the batch TED* kernel needs numpy and SciPy "
                "(pip install numpy scipy), or use the per-pair backends"
            )
        check_positive_int(max_level_cells, "max_level_cells")
        self.max_level_cells = max_level_cells
        self._compiled: "OrderedDict[str, CompiledTree]" = OrderedDict()
        self.blocks = 0
        self.batched_pairs = 0
        self.fallback_pairs = 0
        self.compiled_evictions = 0
        self.compiled_hits = 0
        self.solver_calls = 0

    # ------------------------------------------------------------ compilation
    @property
    def compiled_trees(self) -> int:
        """Distinct isomorphism classes currently memoized."""
        return len(self._compiled)

    def compile(self, tree: Tree, signature: Optional[str] = None) -> CompiledTree:
        """Return (and memoize) the compiled form of ``tree``.

        Canonicalization is shared with the per-pair kernel's weak cache, so
        trees already touched by ``ted_star`` compile without re-deriving
        their canonical form.  ``signature`` (e.g. from a
        :class:`~repro.engine.tree_store.StoredTree`) is only a memo key
        hint; the canonical form is authoritative.
        """
        memo = self._compiled
        if signature is not None:
            cached = memo.get(signature)
            if cached is not None:
                memo.move_to_end(signature)
                self.compiled_hits += 1
                return cached
        canonical, canonical_signature = _canonical(tree)
        cached = memo.get(canonical_signature)
        if cached is not None:
            memo.move_to_end(canonical_signature)
            self.compiled_hits += 1
            return cached
        cached = CompiledTree(canonical.parent_array(), canonical_signature)
        memo[canonical_signature] = cached
        if len(memo) > MAX_COMPILED_TREES:
            memo.popitem(last=False)
            self.compiled_evictions += 1
        return cached

    def precompile_store(self, store) -> int:
        """Compile every entry of a tree store; returns the entry count.

        ``store`` is duck-typed (``entries()`` yielding objects with
        ``.tree`` / ``.signature`` — both :class:`~repro.engine.tree_store.
        TreeStore` and :class:`~repro.engine.shards.ShardedTreeStore` fit).
        """
        entries = store.entries()
        for entry in entries:
            self.compile(entry.tree, entry.signature)
        return len(entries)

    # ------------------------------------------------------- block evaluation
    def ted_star_block(self, pairs: Sequence[Tuple[object, object]], k: int) -> List[float]:
        """Return ``[ted_star(a, b, k, backend="scipy"), ...]`` for ``pairs``.

        Each pair element is a :class:`~repro.trees.tree.Tree` or any
        summary carrying ``.tree`` (and optionally ``.signature``).  Values
        are bit-identical to the per-pair scipy path; pairs whose level
        sizes exceed ``max_level_cells`` are evaluated through it directly.
        Every pair is validated before any work is counted, so a malformed
        pair raises :class:`~repro.exceptions.DistanceError` with the
        counters untouched.
        """
        check_positive_int(k, "k")
        resolved = [
            (_tree_and_signature(first), _tree_and_signature(second))
            for first, second in pairs
        ]
        np = _np
        oriented = []
        flat_sizes: List[int] = []
        for (tree_a, sig_a), (tree_b, sig_b) in resolved:
            left = self.compile(tree_a, sig_a)
            right = self.compile(tree_b, sig_b)
            if right.key < left.key:
                left, right = right, left
            oriented.append((left, right))
            flat_sizes += left.sizes(k)
            flat_sizes += right.sizes(k)
        # sizes[depth, side, pair]: side 0 is the left tree, 1 the right one.
        sizes = np.array(flat_sizes, dtype=np.int64).reshape(len(oriented), 2, k).T
        fits = _fits(np, sizes, self.max_level_cells).tolist()
        values = [0.0] * len(oriented)
        # Isomorphic pairs are exactly 0 and need no levels at all.
        segmented = [
            index for index, (left, right) in enumerate(oriented)
            if fits[index] and left.signature != right.signature
        ]
        if segmented:
            totals = self._evaluate(
                [oriented[index] for index in segmented], sizes[:, :, segmented], k
            )
            for index, total in zip(segmented, totals.tolist()):
                values[index] = total
        for index, fit in enumerate(fits):
            if not fit:
                (tree_a, _), (tree_b, _) = resolved[index]
                values[index] = ted_star(tree_a, tree_b, k=k, backend="scipy")
        batched = sum(fits)
        self.blocks += 1
        self.batched_pairs += batched
        self.fallback_pairs += len(fits) - batched
        return values

    def _evaluate(self, trees: List[Tuple[CompiledTree, CompiledTree]], sizes, k: int):
        """Algorithm 1 for oriented, non-isomorphic pairs, all at once.

        ``sizes[depth, side, pair]`` are the level sizes.  Returns the
        float64 distances.  Mirrors ``ted_star_detailed`` step for step (see
        the module docstring).  A level of ``H`` rows per side puts every
        pair's left rows first (pair ``p`` at ``starts[p] .. + n[p]``) and
        the right rows ``H`` further on.  A block whose level arrays would
        exceed ``max_level_cells`` is evaluated in halves, which changes no
        value.
        """
        np = _np
        count = len(trees)
        if count > 1 and _block_cells(np, sizes) > self.max_level_cells:
            half = count // 2
            return np.concatenate((
                self._evaluate(trees[:half], sizes[:, :, :half], k),
                self._evaluate(trees[half:], sizes[:, :, half:], k),
            ))
        # Trees in row order: every pair's left tree, then every right tree;
        # side_sizes[depth] lists their level sizes in that order.
        sides_of = [left for left, _ in trees] + [right for _, right in trees]
        side_sizes = np.ascontiguousarray(sizes).reshape(k, 2 * count)
        n = sizes.max(axis=1)
        padding = np.abs(sizes[:, 0] - sizes[:, 1])
        adopts = sizes[:, 0] < sizes[:, 1]  # the left side is the padded one
        ends = n.cumsum(axis=1)
        rows_per_side = ends[:, -1].tolist()
        starts = ends - n
        side_starts = np.concatenate((starts, starts + ends[:, -1:]), axis=1)
        pair_ids = np.arange(count)
        matching = np.zeros(count)
        alphabet = np.zeros(count, dtype=np.int64)  # distinct labels one level down
        labels = _EMPTY  # final labels of the real nodes one level down
        # No pass for the root level: its matching cost is always 0 (see the
        # module docstring).
        for depth in range(k - 1, 0, -1):
            width = int(alphabet.max())
            if width == 0:
                # No children in view (always true on the bottom level):
                # every collection is empty, so the matching cost is zero
                # and all nodes of a pair share one label.
                labels = np.zeros(int(side_sizes[depth].sum()), dtype=np.int64)
                alphabet = np.minimum(n[depth], 1)
                continue
            rows = rows_per_side[depth]
            # Each child's row: its side's first row plus its parent's
            # position within the level.
            children = side_starts[depth].repeat(side_sizes[depth + 1])
            children += np.concatenate(
                [tree.parent_positions(depth + 1) for tree in sides_of]
            )
            left_pair = pair_ids.repeat(n[depth])
            if depth == 1:
                # Nothing above depth 1 reads its labels: only the optimal
                # cost is needed, and it does not depend on which optimal
                # matching a solver would pick.
                bipartite = _degree_matching_cost(
                    np, np.bincount(children, minlength=2 * rows), left_pair, count
                )
                if width >= 2:
                    wide = alphabet >= 2
                    solved = self._match(
                        np, _count_rows(np, children, labels, rows, width),
                        left_pair, n[depth], starts[depth], wide,
                    )[3]
                    bipartite = np.where(wide, solved, bipartite)
            else:
                canon, distinct, partners, bipartite = self._match(
                    np, _count_rows(np, children, labels, rows, width),
                    left_pair, n[depth], starts[depth], True,
                )
                # Re-canonization: the padded (smaller-or-equal-by-order)
                # side adopts its partner's label, as in the per-pair
                # kernel, so both rows of a matched pair end with one label.
                shared = np.where(adopts[depth][left_pair], canon[partners], canon[:rows])
                final = np.empty_like(canon)
                final[:rows] = shared
                final[partners] = shared
                labels = final[_ranges(np, side_starts[depth], side_sizes[depth])]
                alphabet = distinct
            matching += np.maximum((bipartite - padding[depth + 1]) / 2.0, 0.0)
        # Padding and matching costs are integers and halves: exact in any order.
        return padding.sum(axis=0) + matching

    def _match(self, np, counts, left_pair, n, starts, eligible):
        """Canonize one level's count rows and match each pair's rows.

        ``eligible`` masks the pairs the solver may run for (the others
        keep the identity assignment).  Returns ``(labels, distinct,
        partners, bipartite)``: the pair-local canonization labels, each
        pair's number of distinct collections, each left row's matched
        right row and each pair's bipartite matching cost.
        """
        count = n.size
        rows = counts.shape[0] // 2
        canon, distinct = _canonize_rows(
            np, counts, np.concatenate((left_pair, left_pair)), count
        )
        # The assignment as partner rows (left row -> matched right row):
        # the identity unless the solver has a choice to make.
        partners = np.arange(rows, 2 * rows)
        solve = (eligible & (n >= 2) & (distinct >= 2)).nonzero()[0]
        if solve.size:
            _solve(np, counts, solve, n, starts, partners, self.max_level_cells)
            self.solver_calls += int(solve.size)
        row_costs = np.abs(counts[:rows] - counts.take(partners, axis=0)).sum(axis=1)
        bipartite = np.bincount(left_pair, weights=row_costs, minlength=count)
        return canon, distinct, partners, bipartite

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchTedKernel(compiled={len(self._compiled)}, "
            f"batched={self.batched_pairs}, fallback={self.fallback_pairs})"
        )


def _tree_and_signature(obj) -> Tuple[Tree, Optional[str]]:
    """Accept a Tree or a StoredTree-style summary; return (tree, signature)."""
    tree = getattr(obj, "tree", obj)
    if not isinstance(tree, Tree):
        raise DistanceError(
            f"batch kernel pairs must be Trees or summaries with .tree, "
            f"got {type(obj).__name__}"
        )
    return tree, getattr(obj, "signature", None)


def _extents(np, sizes):
    """Per depth and pair: the padded level size ``n`` and the nodes one level down."""
    n = np.maximum(sizes[:, 0], sizes[:, 1])
    below = np.zeros_like(n)
    np.add(sizes[1:, 0], sizes[1:, 1], out=below[:-1])
    return n, below


def _fits(np, sizes, budget: int):
    """Level-size screen per pair: do its level arrays fit the cell budget?"""
    n, below = _extents(np, sizes)
    return (n * np.maximum(n, 2 * below + 1) <= budget).all(axis=0)


def _block_cells(np, sizes) -> int:
    """Largest level array of a block: its count rows or its cost matrices."""
    n, below = _extents(np, sizes)
    count_rows = 2 * n.sum(axis=1) * (below.max(axis=1) + 1)
    cost_cells = (n * n).sum(axis=1)
    return int(np.maximum(count_rows, cost_cells).max())


def _ranges(np, starts, lengths):
    """Concatenation of ``arange(start, start + length)`` over the segments."""
    ends = lengths.cumsum()
    ranges = (starts - ends + lengths).repeat(lengths)
    ranges += np.arange(ranges.size)
    return ranges


def _count_rows(np, children, labels, rows: int, width: int):
    """Children-label count rows of a level's ``2 * rows`` rows, ``width`` wide."""
    return np.bincount(
        children * width + labels, minlength=2 * rows * width
    ).reshape(2 * rows, width)


def _degree_matching_cost(np, degrees, left_pair, pairs: int):
    """Each pair's optimal matching cost when collections are just sizes.

    If all children of a pair's level share one label, the cost between two
    rows is ``|deg u - deg v|``, and matching each side's degrees in sorted
    order is optimal.  One sort of the packed key ``pair * (max + 1) +
    degree`` per side sorts every pair's rows within its own segment, so
    position ``i`` of both sorted sides belongs to the same pair and the
    pair parts cancel in the difference.
    """
    rows = left_pair.size
    key = left_pair * (int(degrees.max()) + 1)
    gaps = np.abs(np.sort(key + degrees[:rows]) - np.sort(key + degrees[rows:]))
    return np.bincount(left_pair, weights=gaps, minlength=pairs)


def _canonize_rows(np, counts, row_pair, pairs: int):
    """Joint canonization: equal count rows of one pair get one label.

    Rows are ranked by one sort of an integer key that packs the pair id
    and the row's counts (mixed radix; re-ranked whenever the next column
    would overflow it).  Returns ``(labels, distinct)``: labels count from
    0 within each pair, and ``distinct[p]`` is pair ``p``'s number of
    distinct collections.  Label *values* differ from the per-pair
    kernel's ``(len, content)`` ranking, which is fine: symmetric-difference
    costs depend only on which collections are equal.
    """
    key = row_pair
    bound = pairs  # key values lie in [0, bound)
    base = int(counts.max()) + 1
    for column in counts.T:
        if bound > _KEY_LIMIT // base:
            unique, key = np.unique(key, return_inverse=True)
            bound = unique.size
        key = key * base + column
        bound *= base
    order = key.argsort()
    ordered = key[order]
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    labels = np.empty(key.size, dtype=np.int64)
    labels[order] = new.cumsum() - 1
    distinct = np.bincount(row_pair[order[new]], minlength=pairs)
    return labels - (distinct.cumsum() - distinct)[row_pair], distinct


def _solve(np, counts, solve, n, starts, partners, budget: int) -> None:
    """Run the assignment solver for the pairs in ``solve``; write ``partners``.

    Pairs go in runs whose cost matrices hold at most :data:`_SOLVE_CELLS`
    cells (a larger pair runs alone), so a block of hub pairs never holds
    all its matrices at once.
    """
    limit = min(budget, _SOLVE_CELLS)
    width = counts.shape[1]
    first = cells = 0
    for index, size in enumerate(n[solve].tolist()):
        if cells and cells + size * size * width > limit:
            _solve_run(np, counts, solve[first:index], n, starts, partners, limit)
            first = index
            cells = 0
        cells += size * size * width
    _solve_run(np, counts, solve[first:], n, starts, partners, limit)


def _solve_run(np, counts, solve, n, starts, partners, limit: int) -> None:
    """One run of :func:`_solve`: one broadcast, then one solver call per pair.

    The cost matrices are laid out back to back in one flat float64 array,
    so each solver call sees its pair's own contiguous ``n × n`` matrix —
    exactly the per-pair kernel's.  Entry ``(i, j)`` is
    ``|counts[left row i] - counts[right row j]|.sum()``: over count rows,
    the multiset symmetric-difference size (float64 sums of small integers
    are exact).  The broadcast goes in chunks of left rows of at most
    ``limit`` cells, which is value-exact.
    """
    sizes = n[solve]
    left_rows = _ranges(np, starts[solve], sizes)
    # Each left row's first right row: its pair's right rows start one side
    # (``partners.size`` rows) after its left rows.
    right_starts = (starts[solve] + partners.size).repeat(sizes)
    row_sizes = sizes.repeat(sizes)  # cost entries per left row
    offsets = row_sizes.cumsum() - row_sizes  # each row's first entry
    left_counts = counts.take(left_rows, axis=0)
    cost = np.empty(int(offsets[-1] + row_sizes[-1]))
    step = max(1, limit // (counts.shape[1] * int(sizes.max())))
    for first in range(0, row_sizes.size, step):
        chunk = slice(first, first + step)
        diff = left_counts[chunk].repeat(row_sizes[chunk], axis=0)
        diff -= counts.take(_ranges(np, right_starts[chunk], row_sizes[chunk]), axis=0)
        np.abs(diff, out=diff)
        begin = int(offsets[first])
        diff.sum(axis=1, dtype=np.float64, out=cost[begin:begin + diff.shape[0]])
    matched = []
    begin = 0
    for size in sizes.tolist():
        matched.append(_lsa(cost[begin:begin + size * size].reshape(size, size))[1])
        begin += size * size
    partners[left_rows] = right_starts + np.concatenate(matched)

"""Tests for the array-native batch TED* kernel (repro.ted.batch).

The contract under test is *bit-identity*: every value the batch kernel (or
any surface it backs — ``backend="batch"`` resolvers, ``resolve_many``,
session matrix builds) produces must equal ``ted_star(..., backend="scipy")``
exactly, not approximately, while the resolution bookkeeping (per-tier
counters, cache accounting, sidecars) stays indistinguishable from the
per-pair path.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.engine import NedSession, TreeStore
from repro.exceptions import DistanceError
from repro.graph.generators import barabasi_albert_graph
from repro.ted import batch as batch_module
from repro.ted.batch import (
    BatchTedKernel,
    CompiledTree,
    batch_available,
    DEFAULT_MAX_LEVEL_CELLS,
)
from repro.ted.resolver import (
    BATCH_BACKEND,
    CACHE_TIER,
    EXACT_TIER,
    BoundedNedDistance,
)
from repro.ted.ted_star import ted_star
from repro.trees.random_trees import random_tree_with_depth
from repro.trees.tree import Tree
from repro.utils.rng import ensure_rng

pytestmark = pytest.mark.skipif(
    not batch_available(), reason="the batch TED* kernel needs numpy and SciPy"
)


@st.composite
def bounded_trees(draw, max_nodes=12, max_depth=4):
    """Random tree with bounded size and depth (parents drawn per node)."""
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


def scipy_reference(pairs, k):
    return [ted_star(a, b, k=k, backend="scipy") for a, b in pairs]


def bits(values):
    """Exact float representations, so comparisons are bitwise."""
    return [value.hex() for value in values]


def hub_tree(*hubs):
    """Root -> one hub per argument; a hub's ``copies[i]`` children have ``i`` children each."""
    parents = [-1]
    for copies in hubs:
        hub = len(parents)
        parents.append(0)
        for children, count in enumerate(copies):
            for _ in range(count):
                node = len(parents)
                parents.append(hub)
                parents.extend([node] * children)
    return Tree(parents)


#: A cell budget that keeps trees of up to ~5 nodes on the array path and
#: sends any level of 9+ nodes to the per-pair fallback.
SMALL_BUDGET = 64


@st.composite
def mixed_blocks(draw):
    """A 20-80 pair block mixing every shape the segmented layout must handle.

    A shared probe against many trees (the engine's usual block), identical
    and isomorphic pairs, trees shorter than ``k`` on either side, and wide
    trees whose levels exceed :data:`SMALL_BUDGET`, interleaved at random.
    """
    k = draw(st.integers(min_value=2, max_value=5))
    probe = draw(bounded_trees(max_nodes=6, max_depth=3))
    pairs = []
    for _ in range(draw(st.integers(min_value=20, max_value=80))):
        kind = draw(st.sampled_from(["probe", "identical", "short", "wide", "random"]))
        if kind == "probe":
            other = draw(bounded_trees(max_nodes=8, max_depth=4))
            pair = (probe, other)
        elif kind == "identical":
            tree = draw(bounded_trees(max_nodes=8, max_depth=4))
            pair = (tree, Tree(tree.parent_array()))
        elif kind == "short":
            # At most k - 1 levels; bounded_trees needs max_depth >= 1.
            short = Tree([-1]) if k == 2 else draw(bounded_trees(max_nodes=4, max_depth=k - 2))
            pair = (short, draw(bounded_trees(max_nodes=8, max_depth=4)))
        elif kind == "wide":
            width = draw(st.integers(min_value=9, max_value=14))
            pair = (Tree([-1] + [0] * width), probe)
        else:
            pair = (
                draw(bounded_trees(max_nodes=10, max_depth=4)),
                draw(bounded_trees(max_nodes=10, max_depth=4)),
            )
        pairs.append(pair if draw(st.booleans()) else pair[::-1])
    return pairs, k


@pytest.fixture(scope="module")
def store():
    # k = 4: at k <= 3 the degree tier pins every pair, so sessions and
    # resolvers over this store would never reach the kernel.
    return TreeStore.from_graph(barabasi_albert_graph(30, 2, seed=7), k=4)


class TestBatchKernelBitIdentity:
    def test_available_in_this_environment(self):
        assert batch_available()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(bounded_trees(), bounded_trees()),
                    min_size=1, max_size=6),
           st.integers(min_value=1, max_value=6))
    def test_block_identical_to_per_pair_scipy(self, pairs, k):
        kernel = BatchTedKernel()
        assert kernel.ted_star_block(pairs, k=k) == scipy_reference(pairs, k)

    @settings(max_examples=40, deadline=None)
    @given(bounded_trees(), st.integers(min_value=1, max_value=6))
    def test_tie_pairs_are_exactly_zero(self, tree, k):
        kernel = BatchTedKernel()
        other = Tree(tree.parent_array())
        assert kernel.ted_star_block([(tree, tree), (tree, other)], k=k) == [0.0, 0.0]

    @settings(max_examples=40, deadline=None)
    @given(bounded_trees(), st.integers(min_value=1, max_value=6))
    def test_symmetry(self, tree, k):
        kernel = BatchTedKernel()
        mirror = random_tree_with_depth(8, 2, seed=5)
        forward, backward = kernel.ted_star_block(
            [(tree, mirror), (mirror, tree)], k=k
        )
        assert forward == backward

    def test_single_node_trees(self):
        kernel = BatchTedKernel()
        single = Tree([-1])
        star = Tree([-1, 0, 0, 0])
        pairs = [(single, single), (single, star), (star, single)]
        for k in (1, 2, 3):
            assert kernel.ted_star_block(pairs, k=k) == scipy_reference(pairs, k)

    def test_ragged_level_sizes(self):
        # A chain against a star: one side's levels are all singletons, the
        # other collapses everything into level 1 — maximally ragged.
        chain = Tree([-1, 0, 1, 2, 3])
        star = Tree([-1, 0, 0, 0, 0])
        bushy = Tree([-1, 0, 0, 1, 1, 2, 2, 3])
        pairs = [(chain, star), (chain, bushy), (star, bushy)]
        for k in (1, 2, 3, 4, 5):
            kernel = BatchTedKernel()
            assert kernel.ted_star_block(pairs, k=k) == scipy_reference(pairs, k)

    @settings(max_examples=30, deadline=None)
    @given(bounded_trees(max_nodes=10), bounded_trees(max_nodes=10))
    def test_k_cutoffs_agree_at_every_depth(self, first, second):
        kernel = BatchTedKernel()
        max_k = max(first.height(), second.height()) + 2
        for k in range(1, max_k + 1):
            assert kernel.ted_star_block([(first, second)], k=k) == scipy_reference(
                [(first, second)], k
            )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(bounded_trees(), bounded_trees()),
                    min_size=2, max_size=5),
           st.integers(min_value=2, max_value=5))
    def test_fallback_boundary_values_identical(self, pairs, k):
        # A 1-cell budget forces every non-trivial pair down the per-pair
        # fallback; a mid-size budget splits the block. Values never change.
        for cells in (1, 8, DEFAULT_MAX_LEVEL_CELLS):
            kernel = BatchTedKernel(max_level_cells=cells)
            assert kernel.ted_star_block(pairs, k=k) == scipy_reference(pairs, k)

    @settings(max_examples=20, deadline=None)
    @given(mixed_blocks(), st.sampled_from([SMALL_BUDGET, 256, DEFAULT_MAX_LEVEL_CELLS]),
           st.randoms(use_true_random=False))
    def test_mixed_blocks_bitwise_permutation_and_singletons(self, block, cells, rnd):
        pairs, k = block
        kernel = BatchTedKernel(max_level_cells=cells)
        values = kernel.ted_star_block(pairs, k=k)
        # Each value equals the per-pair scipy kernel's, bit for bit.
        assert bits(values) == bits(scipy_reference(pairs, k))
        # Permuting the block permutes its values.
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        permuted = kernel.ted_star_block([pairs[i] for i in order], k=k)
        assert bits(permuted) == bits([values[i] for i in order])
        # Every value equals its pair evaluated as a one-pair block.
        singles = [kernel.ted_star_block([pair], k=k)[0] for pair in pairs]
        assert bits(singles) == bits(values)

    def test_wide_alphabet_levels(self):
        # Level 1 holds one node whose children carry 42 distinct labels,
        # two of each: the packed sort key of that level's count rows would
        # overflow 64 bits without re-ranking between columns.
        wide = hub_tree([2] * 42)
        other = hub_tree([2] * 41 + [1])
        pairs = [(wide, other), (other, wide), (wide, Tree([-1, 0, 1, 1]))]
        kernel = BatchTedKernel()
        assert bits(kernel.ted_star_block(pairs, k=4)) == bits(scipy_reference(pairs, 4))
        assert kernel.fallback_pairs == 0

    def test_small_budget_interleaves_fallback_and_batched_pairs(self):
        wide = Tree([-1] + [0] * 10)
        small = Tree([-1, 0, 0, 1])
        chain = Tree([-1, 0, 1])
        pairs = [(small, chain), (wide, small), (chain, small), (small, wide), (chain, chain)]
        kernel = BatchTedKernel(max_level_cells=SMALL_BUDGET)
        values = kernel.ted_star_block(pairs, k=3)
        assert bits(values) == bits(scipy_reference(pairs, 3))
        assert (kernel.batched_pairs, kernel.fallback_pairs) == (3, 2)

    def test_fallback_pairs_are_counted(self):
        tiny = BatchTedKernel(max_level_cells=1)
        left = random_tree_with_depth(20, 3, seed=1)
        right = random_tree_with_depth(20, 3, seed=2)
        tiny.ted_star_block([(left, right)], k=4)
        assert tiny.fallback_pairs == 1 and tiny.batched_pairs == 0
        full = BatchTedKernel()
        full.ted_star_block([(left, right)], k=4)
        assert full.batched_pairs == 1 and full.fallback_pairs == 0


class TestSolverFreeTopLevels:
    """No root level; depth 1 is a closed-form degree matching when it can be."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(bounded_trees(), bounded_trees()), max_size=40),
           st.randoms(use_true_random=False))
    def test_k3_block_never_calls_the_solver(self, drawn, rnd):
        # Random pairs plus wide, tie-heavy, identical, short and ragged ones.
        wide = hub_tree([3, 4, 2])
        ties = hub_tree([0, 6, 6])
        star = Tree([-1] + [0] * 7)
        pairs = drawn + [
            (wide, ties), (ties, wide), (Tree([-1, 0, 1, 2, 3]), star), (star, ties),
            (wide, Tree(wide.parent_array())), (Tree([-1]), wide),
            (random_tree_with_depth(30, 3, seed=3), random_tree_with_depth(25, 4, seed=4)),
        ]
        rnd.shuffle(pairs)
        reference = scipy_reference(pairs, 3)
        kernel = BatchTedKernel()

        def refuse(*_args, **_kwargs):
            raise AssertionError("the assignment solver was called")

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(batch_module, "_lsa", refuse)
            values = kernel.ted_star_block(pairs, k=3)
        assert bits(values) == bits(reference)
        assert kernel.solver_calls == 0

    def test_k4_block_reaches_the_solver(self, monkeypatch):
        calls = []
        solver = batch_module._lsa

        def counting(matrix):
            calls.append(matrix.shape)
            return solver(matrix)

        monkeypatch.setattr(batch_module, "_lsa", counting)
        pairs = [(hub_tree([2, 1, 3], [0, 2]), hub_tree([1, 3, 2], [1, 1])),
                 (hub_tree([0, 2, 2, 1]), hub_tree([1, 1, 1, 2], [2]))]
        kernel = BatchTedKernel()
        assert bits(kernel.ted_star_block(pairs, k=4)) == bits(scipy_reference(pairs, 4))
        assert calls and kernel.solver_calls == len(calls)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(bounded_trees(max_nodes=10, max_depth=2), min_size=1, max_size=8),
           st.lists(st.lists(st.lists(st.integers(min_value=0, max_value=3),
                                      min_size=1, max_size=4),
                             min_size=1, max_size=3),
                    min_size=1, max_size=8),
           st.randoms(use_true_random=False))
    def test_mixed_depth1_alphabets_bitwise_and_equivariant(self, shallow, hubs, rnd):
        # At k = 4, pairs of height <= 2 have one depth-2 label (closed form);
        # hub pairs have several (canonization + solver) — in one block.
        hubs = [hub_tree(*copies) for copies in hubs]
        pairs = [(tree, shallow[-1 - i % len(shallow)]) for i, tree in enumerate(shallow)]
        pairs += [(tree, hubs[-1 - i % len(hubs)]) for i, tree in enumerate(hubs)]
        rnd.shuffle(pairs)
        kernel = BatchTedKernel()
        values = kernel.ted_star_block(pairs, k=4)
        assert bits(values) == bits(scipy_reference(pairs, 4))
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        permuted = kernel.ted_star_block([pairs[i] for i in order], k=4)
        assert bits(permuted) == bits([values[i] for i in order])


class TestBatchKernelCompilation:
    def test_compilation_memoized_by_signature(self, store):
        kernel = BatchTedKernel()
        entry = store.entries()[0]
        first = kernel.compile(entry.tree, entry.signature)
        again = kernel.compile(entry.tree, entry.signature)
        assert first is again
        # An isomorphic tree under a different node numbering compiles to
        # the same object: the canonical form is the memo key.
        assert kernel.compile(Tree(entry.tree.parent_array())) is first

    def test_precompile_store_counts_entries(self, store):
        kernel = BatchTedKernel()
        assert kernel.precompile_store(store) == len(store)
        assert kernel.compiled_trees <= len(store)  # isomorphs collapse
        assert kernel.compiled_trees >= 1

    def test_compiled_tree_rejects_non_canonical_order(self):
        # Parents of canonical (BFS) arrays are non-decreasing; this one
        # interleaves levels.
        with pytest.raises(DistanceError):
            CompiledTree([-1, 0, 1, 0], signature="bogus")

    def test_stored_tree_summaries_accepted_directly(self, store):
        kernel = BatchTedKernel()
        entries = store.entries()[:4]
        pairs = [(entries[0], entries[1]), (entries[2], entries[3])]
        expected = scipy_reference(
            [(a.tree, b.tree) for a, b in pairs], store.k
        )
        assert kernel.ted_star_block(pairs, k=store.k) == expected

    def test_rejects_non_tree_pairs(self):
        kernel = BatchTedKernel()
        with pytest.raises(DistanceError):
            kernel.ted_star_block([("not", "trees")], k=2)

    def test_malformed_pair_mid_block_counts_nothing(self):
        # The bad pair sits between good ones (one of them a fallback pair):
        # the block raises and the counters still describe returned work only.
        kernel = BatchTedKernel(max_level_cells=SMALL_BUDGET)
        good = (Tree([-1, 0, 0]), Tree([-1, 0, 1]))
        wide = (Tree([-1] + [0] * 10), Tree([-1, 0]))
        expected = kernel.ted_star_block([good, wide], k=3)
        before = (kernel.blocks, kernel.batched_pairs, kernel.fallback_pairs,
                  kernel.compiled_trees, kernel.compiled_evictions)
        with pytest.raises(DistanceError):
            kernel.ted_star_block([good, wide, (good[0], "not a tree"), good], k=3)
        assert (kernel.blocks, kernel.batched_pairs, kernel.fallback_pairs,
                kernel.compiled_trees, kernel.compiled_evictions) == before
        assert kernel.ted_star_block([good, wide], k=3) == expected

    def test_compiled_memo_capped_lru(self, monkeypatch):
        cap = 8
        monkeypatch.setattr(batch_module, "MAX_COMPILED_TREES", cap)
        kernel = BatchTedKernel()
        anchor = Tree([-1, 0, 0, 1])
        probes = [Tree([-1] + [0] * width) for width in range(1, 31)]
        values = [kernel.ted_star_block([(probe, anchor)], k=3)[0] for probe in probes]
        assert bits(values) == bits(scipy_reference([(p, anchor) for p in probes], 3))
        # The memo holds the cap; the anchor, touched by every block, is
        # never the least recently used entry and survives.
        assert kernel.compiled_trees == cap
        assert kernel.compiled_evictions == len(probes) + 1 - cap
        kernel.compile(anchor)
        assert kernel.compiled_evictions == len(probes) + 1 - cap
        # Evicted probes recompile on demand, with unchanged values.
        again = [kernel.ted_star_block([(probe, anchor)], k=3)[0] for probe in probes]
        assert bits(again) == bits(values)
        assert kernel.compiled_trees == cap

    def test_max_level_cells_validated(self):
        with pytest.raises(Exception):
            BatchTedKernel(max_level_cells=0)


class TestBatchBackendResolver:
    def _pairs(self, store, count=40):
        entries = store.entries()
        rng = ensure_rng(3)
        return [
            (entries[rng.randrange(len(entries))], entries[rng.randrange(len(entries))])
            for _ in range(count)
        ]

    def test_backend_batch_matches_scipy_pair_for_pair(self, store):
        batch = BoundedNedDistance(k=store.k, backend=BATCH_BACKEND, cache_size=64)
        scipy = BoundedNedDistance(k=store.k, backend="scipy", cache_size=64)
        for first, second in self._pairs(store):
            value_b, interval_b = batch.resolve(first, second)
            value_s, interval_s = scipy.resolve(first, second)
            assert value_b == value_s
            assert interval_b == interval_s
        assert batch.counters == scipy.counters
        assert batch.cache_len() == scipy.cache_len()

    def test_matching_backend_property(self, store):
        assert BoundedNedDistance(k=3, backend=BATCH_BACKEND).matching_backend == "scipy"
        assert BoundedNedDistance(k=3, backend="scipy").matching_backend == "scipy"
        assert BoundedNedDistance(k=3, backend="auto").matching_backend == "auto"

    def test_backend_batch_constructs_its_own_kernel(self):
        resolver = BoundedNedDistance(k=3, backend=BATCH_BACKEND)
        assert resolver.batch_active
        assert resolver.batch_kernel is not None

    def test_attach_refused_for_value_incompatible_backend(self):
        resolver = BoundedNedDistance(k=3, backend="hungarian")
        assert resolver.attach_batch_kernel(BatchTedKernel()) is False
        assert not resolver.batch_active

    def test_attach_accepted_for_scipy_compatible_backends(self):
        for backend in ("auto", "scipy"):
            resolver = BoundedNedDistance(k=3, backend=backend)
            assert resolver.attach_batch_kernel(BatchTedKernel()) is True
            assert resolver.batch_active

    def test_detach_rejected_under_batch_backend(self):
        resolver = BoundedNedDistance(k=3, backend=BATCH_BACKEND)
        with pytest.raises(DistanceError):
            resolver.attach_batch_kernel(None)
        detachable = BoundedNedDistance(k=3, backend="scipy")
        detachable.attach_batch_kernel(BatchTedKernel())
        assert detachable.attach_batch_kernel(None) is False
        assert not detachable.batch_active

    def test_exact_many_no_counters_no_cache(self, store):
        resolver = BoundedNedDistance(k=store.k, backend=BATCH_BACKEND, cache_size=64)
        pairs = self._pairs(store, count=10)
        before = resolver.counters.copy()
        values = resolver.exact_many(pairs)
        assert values == scipy_reference(
            [(a.tree, b.tree) for a, b in pairs], store.k
        )
        assert resolver.counters == before
        assert resolver.cache_len() == 0

    def test_exact_many_without_kernel_degrades_per_pair(self, store):
        resolver = BoundedNedDistance(k=store.k, backend="scipy")
        pairs = self._pairs(store, count=6)
        assert resolver.exact_many(pairs) == scipy_reference(
            [(a.tree, b.tree) for a, b in pairs], store.k
        )


class TestResolveMany:
    def _resolver(self, store, **kwargs):
        kwargs.setdefault("backend", BATCH_BACKEND)
        kwargs.setdefault("cache_size", 128)
        return BoundedNedDistance(k=store.k, **kwargs)

    def _pairs(self, store, count=50):
        entries = store.entries()
        rng = ensure_rng(11)
        return [
            (entries[rng.randrange(len(entries))], entries[rng.randrange(len(entries))])
            for _ in range(count)
        ]

    def test_equivalent_to_sequential_resolve(self, store):
        pairs = self._pairs(store)
        blocked = self._resolver(store)
        sequential = self._resolver(store)
        block = blocked.resolve_many(pairs)
        loop = [sequential.resolve(first, second) for first, second in pairs]
        assert block == loop
        assert blocked.counters == sequential.counters
        assert blocked.cache_len() == sequential.cache_len()

    def test_equivalent_under_threshold(self, store):
        pairs = self._pairs(store)
        blocked = self._resolver(store)
        sequential = self._resolver(store)
        block = blocked.resolve_many(pairs, threshold=3.0)
        loop = [sequential.resolve(a, b, threshold=3.0) for a, b in pairs]
        assert block == loop
        assert blocked.counters == sequential.counters

    def test_bounds_false_equivalent_to_exact_loop(self, store):
        pairs = self._pairs(store, count=30)
        blocked = self._resolver(store)
        sequential = self._resolver(store)
        block = blocked.resolve_many(pairs, bounds=False)
        loop = [sequential.exact(a, b) for a, b in pairs]
        assert [value for value, _ in block] == loop
        assert blocked.counters == sequential.counters
        for value, interval in block:
            assert interval.tier in (EXACT_TIER, CACHE_TIER)
            assert interval.lower == interval.upper == value

    def test_within_block_dedup_counts_followers_as_cache_hits(self, store):
        entries = store.entries()
        # Distinct entry objects, equal signatures would dedup too — here the
        # very same pair repeated three times must pay exactly one evaluation.
        pair = (entries[0], entries[1])
        resolver = self._resolver(store)
        results = resolver.resolve_many([pair, pair, pair], bounds=False)
        values = {value for value, _ in results}
        assert len(values) == 1
        assert resolver.counters.exact_evaluations == 1
        assert resolver.counters.cache_hits == 2

    def test_empty_block(self, store):
        assert self._resolver(store).resolve_many([]) == []


class TestSessionBatchPolicy:
    def test_store_session_auto_attaches(self, store):
        with NedSession(store) as session:
            assert session.resolver.batch_active
            snapshot = session.metrics_snapshot()
            assert set(snapshot["batch_kernel"]) == {
                "blocks", "batched_pairs", "fallback_pairs", "compiled_trees",
                "compiled_evictions", "compiled_hits", "solver_calls",
            }

    def test_batch_false_opts_out(self, store):
        with NedSession(store, batch=False) as session:
            assert not session.resolver.batch_active
            assert "batch_kernel" not in session.metrics_snapshot()

    def test_batch_false_conflicts_with_batch_backend(self, store):
        with pytest.raises(DistanceError):
            NedSession(store, backend=BATCH_BACKEND, batch=False)

    def test_batch_true_with_hungarian_rejected(self, store):
        with pytest.raises(DistanceError):
            NedSession(store, backend="hungarian", batch=True)

    def test_storeless_session_stays_per_pair_by_default(self):
        with NedSession(None, k=3) as session:
            assert not session.resolver.batch_active
        with NedSession(None, k=3, batch=True) as session:
            assert session.resolver.batch_active

    def test_exact_matrix_identical_and_marked(self, store):
        with NedSession(store) as batched, NedSession(store, batch=False) as plain:
            fast = batched.pairwise_matrix(mode="exact")
            slow = plain.pairwise_matrix(mode="exact")
            assert fast.values == slow.values
            assert fast.executor_used == "serial[batch]"
            assert slow.executor_used == "serial"
            assert batched.stats.as_dict() == plain.stats.as_dict()
            kernel = batched.resolver.batch_kernel
            assert kernel.batched_pairs + kernel.fallback_pairs > 0

    def test_bound_prune_matrix_identical(self, store):
        with NedSession(store) as batched, NedSession(store, batch=False) as plain:
            fast = batched.pairwise_matrix(mode="bound-prune")
            slow = plain.pairwise_matrix(mode="bound-prune")
            assert fast.values == slow.values
            assert batched.stats.as_dict() == plain.stats.as_dict()

    def test_exact_top_l_identical(self, store):
        probe = store.entries()[0]
        with NedSession(store, mode="exact") as batched, \
                NedSession(store, mode="exact", batch=False) as plain:
            assert batched.top_l(probe, 5) == plain.top_l(probe, 5)
            assert batched.stats.as_dict() == plain.stats.as_dict()

    @pytest.mark.parametrize("mode", ["exact", "bound-prune"])
    def test_closed_form_matrix_and_top_l_identical_without_the_kernel(self, mode):
        # At k = 3 the bound survey decides every pair: the per-pair path's
        # values, and the kernel never runs.
        shallow = TreeStore.from_graph(barabasi_albert_graph(30, 2, seed=7), k=3)
        probe = shallow.entries()[0]
        with NedSession(shallow, mode=mode) as batched, \
                NedSession(shallow, mode=mode, batch=False) as plain:
            fast = batched.pairwise_matrix(mode=mode)
            assert fast.values == plain.pairwise_matrix(mode=mode).values
            assert batched.top_l(probe, 5) == plain.top_l(probe, 5)
            assert batched.stats.exact_evaluations == 0
            kernel = batched.resolver.batch_kernel
            assert kernel.batched_pairs == kernel.blocks == 0

    def test_exact_batch_latency_histogram_observed(self, store):
        with NedSession(store) as session:
            session.pairwise_matrix(mode="exact")
            histograms = session.metrics_snapshot()["histograms"]
            assert "resolver.exact_batch_seconds" in histograms


class TestBatchSidecarInterop:
    def test_sidecar_roundtrip_under_batch_backend(self, store, tmp_path):
        writer = BoundedNedDistance(k=store.k, backend=BATCH_BACKEND, cache_size=64)
        entries = store.entries()
        expected = {}
        for first, second in zip(entries, entries[5:15]):
            expected[(first.signature, second.signature)] = writer.distance(
                first, second
            )
        path = tmp_path / "cache.sidecar"
        written = writer.save_cache(path)
        assert written == writer.cache_len()
        reader = BoundedNedDistance(k=store.k, backend=BATCH_BACKEND, cache_size=64)
        assert reader.load_cache(path) == written

    def test_batch_sidecar_interoperates_with_scipy(self, store, tmp_path):
        # Batch values realise scipy matching, so the sidecar records
        # backend="scipy" and flows both directions.
        writer = BoundedNedDistance(k=store.k, backend=BATCH_BACKEND, cache_size=64)
        entries = store.entries()
        writer.distance(entries[0], entries[1])
        path = tmp_path / "cache.sidecar"
        writer.save_cache(path)
        scipy_reader = BoundedNedDistance(k=store.k, backend="scipy", cache_size=64)
        assert scipy_reader.load_cache(path) == 1
        scipy_reader.save_cache(path)
        batch_reader = BoundedNedDistance(
            k=store.k, backend=BATCH_BACKEND, cache_size=64
        )
        assert batch_reader.load_cache(path) == 1

    def test_auto_sidecar_still_rejected_by_batch(self, store, tmp_path):
        # "auto" could have resolved to hungarian in another environment;
        # the mismatch guard stays strict about it.
        writer = BoundedNedDistance(k=store.k, backend="auto", cache_size=64)
        entries = store.entries()
        writer.distance(entries[0], entries[1])
        path = tmp_path / "cache.sidecar"
        writer.save_cache(path)
        reader = BoundedNedDistance(k=store.k, backend=BATCH_BACKEND, cache_size=64)
        with pytest.raises(DistanceError):
            reader.load_cache(path)

    def test_warm_from_batch_resolver_into_scipy(self, store):
        source = BoundedNedDistance(k=store.k, backend=BATCH_BACKEND, cache_size=64)
        entries = store.entries()
        source.distance(entries[0], entries[1])
        target = BoundedNedDistance(k=store.k, backend="scipy", cache_size=64)
        assert target.warm_from(source) == 1

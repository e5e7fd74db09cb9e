"""Bulk k-adjacent tree extraction with per-node summaries and persistence.

The pair-at-a-time API (:func:`repro.core.ned.ned`) re-extracts the same
k-adjacent trees on every call.  A :class:`TreeStore` instead walks a graph
*once*, extracts and summarises the k-adjacent tree of every node of
interest, and keeps three things per node:

* the :class:`~repro.trees.tree.Tree` itself (what exact TED* consumes),
* the per-level size sequence (what the O(k) level-size bounds consume),
* the per-level degree multisets (what the earth-mover-style
  degree-multiset bounds consume — see :mod:`repro.ted.bounds`), and
* the AHU canonical signature (equal signatures ⇒ isomorphic trees ⇒
  NED distance exactly 0, Section 7).

Together these are exactly the summaries the tier cascade of
:class:`repro.ted.resolver.BoundedNedDistance` resolves distances from;
``packed_summaries()`` packs them once as arrays, for the store-wide bound
survey (:mod:`repro.ted.survey`).

Stores are the unit every other engine component is built from: distance
matrices (:mod:`repro.engine.matrix`) take one or two stores, and the search
engine (:mod:`repro.engine.search`) indexes a store's entries.  ``save()`` /
``load()`` persist a store to disk so the extraction cost is paid once per
graph, not once per process — the precompute-once / query-many split that
makes repeated sweeps (Figures 9–11) cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import GraphError, TreeError
from repro.graph.graph import Graph
from repro.ted.bounds import degree_profile_sequence, level_size_sequence
from repro.ted.survey import PackedSummaries
from repro.trees.adjacent import k_adjacent_tree
from repro.trees.canonize import canonical_string
from repro.trees.tree import Tree
from repro.utils.io import atomic_pickle_dump, load_validated_payload
from repro.utils.validation import check_positive_int

Node = Hashable

_FORMAT = "repro-tree-store"
# Version 2 added the persisted per-level degree multisets; version-1 stores
# still load (the profiles are recomputed from the trees on the way in).
_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


@dataclass(frozen=True)
class StoredTree:
    """One node's precomputed k-adjacent tree plus its cheap summaries."""

    node: Node
    tree: Tree
    level_sizes: Tuple[int, ...]
    signature: str
    degree_profiles: Tuple[Tuple[int, ...], ...]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoredTree(node={self.node!r}, size={self.tree.size()})"


def summarize_tree(node: Node, tree: Tree, k: int) -> StoredTree:
    """Build the :class:`StoredTree` entry for an already extracted tree.

    The tree must fit within ``k`` levels: a deeper tree would make the
    level-size summaries (and hence the TED* bounds) disagree with
    ``ted_star(..., k=k)``, which truncates to ``k`` levels — pruning could
    then silently drop true neighbors.
    """
    try:
        level_sizes = level_size_sequence(tree, k)
        degree_profiles = degree_profile_sequence(tree, k)
    except ValueError:
        raise GraphError(
            f"tree of node {node!r} has {tree.height() + 1} levels, deeper than "
            f"k={k}; extract it with the store's k (e.g. truncate(k - 1))"
        ) from None
    return StoredTree(
        node=node,
        tree=tree,
        level_sizes=level_sizes,
        signature=canonical_string(tree),
        degree_profiles=degree_profiles,
    )


def _copy_entry(entry: StoredTree) -> StoredTree:
    """Return a ``StoredTree`` whose tree shares no live objects with ``entry``.

    The summaries (level sizes, signature, degree profiles) are immutable and
    safe to share; the :class:`Tree` carries the mutable ``graph_nodes``
    attachment and is rebuilt from its parent array.
    """
    tree = Tree(entry.tree.parent_array())
    graph_nodes = getattr(entry.tree, "graph_nodes", None)
    if graph_nodes is not None:
        tree.graph_nodes = tuple(graph_nodes)  # type: ignore[attr-defined]
    return StoredTree(
        node=entry.node,
        tree=tree,
        level_sizes=entry.level_sizes,
        signature=entry.signature,
        degree_profiles=entry.degree_profiles,
    )


def _encode_entry(entry: StoredTree) -> dict:
    """Turn one entry into the on-disk record shared by stores and shards.

    Records carry parent arrays (plus the original graph-node attachments
    k-adjacent extraction adds) rather than live objects, so the on-disk
    format is independent of :class:`Tree` internals.
    """
    return {
        "node": entry.node,
        "parents": entry.tree.parent_array(),
        "graph_nodes": getattr(entry.tree, "graph_nodes", None),
        "level_sizes": entry.level_sizes,
        "signature": entry.signature,
        "degree_profiles": entry.degree_profiles,
    }


def _decode_entry(record: dict, k: int, version: int) -> StoredTree:
    """Rebuild one :class:`StoredTree` from its on-disk record.

    ``version`` is the store format version the record was written under;
    version-1 records predate the degree summaries, which are recomputed so
    upgraded stores prune exactly like fresh ones.
    """
    tree = Tree(record["parents"])
    if record["graph_nodes"] is not None:
        tree.graph_nodes = tuple(record["graph_nodes"])  # type: ignore[attr-defined]
    if version >= 2:
        profiles = tuple(tuple(level) for level in record["degree_profiles"])
    else:
        profiles = degree_profile_sequence(tree, k)
    return StoredTree(
        node=record["node"],
        tree=tree,
        level_sizes=tuple(record["level_sizes"]),
        signature=record["signature"],
        degree_profiles=profiles,
    )


def _check_payload_k(payload: dict, path: "Union[str, Path]") -> int:
    """Validate a persisted payload's ``k`` before any entry is decoded.

    A corrupted header must surface as a clear "not a valid TreeStore file"
    error, not as whatever arbitrary exception ``degree_profile_sequence``
    raises mid-upgrade with a garbage ``k``.
    """
    k = payload.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise GraphError(
            f"{path} is not a valid TreeStore file (k must be a positive int, got {k!r})"
        )
    return k


class TreeStore:
    """Precomputed k-adjacent trees (and summaries) for a set of graph nodes.

    Build one with :meth:`from_graph`, persist it with :meth:`save`, restore
    it with :meth:`load`.  Entries preserve the node order they were built
    with, which keeps every downstream result (matrix rows, scan order,
    tie-breaking) deterministic.

    Example
    -------
    >>> from repro.graph.generators import grid_road_graph
    >>> store = TreeStore.from_graph(grid_road_graph(5, 5, seed=1), k=3)
    >>> len(store)
    25
    >>> store.tree(0).size() == store.entry(0).tree.size()
    True
    """

    def __init__(self, k: int, entries: Sequence[StoredTree]) -> None:
        check_positive_int(k, "k")
        self.k = k
        self._entries: Dict[Node, StoredTree] = {}
        for entry in entries:
            if entry.node in self._entries:
                raise GraphError(f"duplicate node {entry.node!r} in TreeStore")
            self._entries[entry.node] = entry
        # Memoized packed parent arrays / signatures / bound summaries; sound
        # because entries are immutable after construction (there is no
        # add/remove API).
        self._packed: Optional[List[List[int]]] = None
        self._packed_signatures: Optional[List[str]] = None
        self._packed_summaries: Optional[PackedSummaries] = None

    # ---------------------------------------------------------------- factory
    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        k: int,
        nodes: Optional[Iterable[Node]] = None,
    ) -> "TreeStore":
        """Extract, summarise and store the k-adjacent trees of ``nodes``.

        ``nodes`` defaults to every node of ``graph`` (insertion order).  The
        graph must be undirected — the directed variant splits into incoming
        and outgoing trees and is not yet store-backed.
        """
        check_positive_int(k, "k")
        if graph.directed:
            raise GraphError("TreeStore.from_graph expects an undirected Graph")
        selected = list(nodes) if nodes is not None else graph.nodes()
        entries = [
            summarize_tree(node, k_adjacent_tree(graph, node, k), k) for node in selected
        ]
        return cls(k, entries)

    def subset(self, nodes: Iterable[Node]) -> "TreeStore":
        """Return a new store restricted to ``nodes`` (in the given order).

        Entries are deep-copied: the subset shares no live :class:`Tree`
        objects (or their mutable ``graph_nodes`` attachments) with the
        parent store, so mutating a tree through one store cannot silently
        corrupt the other, and ``save()`` of a subset is independent of the
        parent's fate.
        """
        return TreeStore(self.k, [_copy_entry(self.entry(node)) for node in nodes])

    # -------------------------------------------------------------- accessors
    def nodes(self) -> List[Node]:
        """Return the stored nodes in build order."""
        return list(self._entries)

    def entries(self) -> List[StoredTree]:
        """Return all entries in build order."""
        return list(self._entries.values())

    def entry(self, node: Node) -> StoredTree:
        """Return the full entry of ``node``."""
        try:
            return self._entries[node]
        except KeyError:
            raise GraphError(f"node {node!r} is not in this TreeStore") from None

    def tree(self, node: Node) -> Tree:
        """Return the k-adjacent tree of ``node``."""
        return self.entry(node).tree

    def level_sizes(self, node: Node) -> Tuple[int, ...]:
        """Return the per-level sizes of ``node``'s k-adjacent tree."""
        return self.entry(node).level_sizes

    def degree_profiles(self, node: Node) -> Tuple[Tuple[int, ...], ...]:
        """Return the per-level degree multisets of ``node``'s tree."""
        return self.entry(node).degree_profiles

    def signature(self, node: Node) -> str:
        """Return the AHU canonical signature of ``node``'s k-adjacent tree."""
        return self.entry(node).signature

    def packed_parent_arrays(self) -> List[List[int]]:
        """Return every entry's parent array, in build order.

        This is the store's wire format for worker processes:
        :func:`repro.serving.shm.export_store` flattens it once into shared
        memory, after which a bare entry index names a tree in every worker
        — the zero-copy alternative to serializing parent arrays into every
        block.

        The packing is memoized (entries are immutable), so one run that
        both exports the store and pre-compiles the batch TED* kernel
        walks every tree once, not once per consumer.  The outer list is a
        fresh copy per call; the inner arrays are shared and must be
        treated as read-only.
        """
        if self._packed is None:
            self._packed = [
                entry.tree.parent_array() for entry in self._entries.values()
            ]
        return list(self._packed)

    def packed_signatures(self) -> List[str]:
        """Return every entry's canonical signature, aligned with
        :meth:`packed_parent_arrays`.

        The serving layer ships this alongside the shared-memory parent
        arrays so workers can validate that an index they were handed names
        the tree the server meant (signatures are content hashes of the
        packed layout, cheap to compare and already computed).
        """
        if self._packed_signatures is None:
            self._packed_signatures = [
                entry.signature for entry in self._entries.values()
            ]
        return list(self._packed_signatures)

    def packed_summaries(self) -> PackedSummaries:
        """Return the bound summaries of every entry as arrays, in build order.

        What :meth:`repro.ted.resolver.BoundedNedDistance.survey` reads to
        bound one probe against the whole store in a few array operations
        (level sizes, sorted degrees, signature ids; see
        :mod:`repro.ted.survey`).  Memoized like :meth:`packed_parent_arrays`;
        needs numpy.
        """
        if self._packed_summaries is None:
            self._packed_summaries = PackedSummaries.pack(self.k, self._entries.values())
        return self._packed_summaries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: Node) -> bool:
        return node in self._entries

    def __iter__(self) -> Iterator[StoredTree]:
        return iter(self._entries.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeStore(k={self.k}, nodes={len(self._entries)})"

    # ------------------------------------------------------------ persistence
    def save(self, path: Union[str, Path]) -> None:
        """Persist the store to ``path``.

        The payload records parent arrays (plus the original graph-node
        attachments k-adjacent extraction adds) rather than live objects, so
        the on-disk format is independent of :class:`Tree` internals.
        """
        payload = {
            "format": _FORMAT,
            "version": _VERSION,
            "k": self.k,
            "entries": [_encode_entry(entry) for entry in self._entries.values()],
        }
        atomic_pickle_dump(payload, Path(path))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TreeStore":
        """Restore a store previously written by :meth:`save`."""
        payload = load_validated_payload(
            path, _FORMAT, _SUPPORTED_VERSIONS, "TreeStore", GraphError
        )
        version = payload["version"]
        k = _check_payload_k(payload, path)
        try:
            entries = [_decode_entry(record, k, version) for record in payload["entries"]]
            return cls(k, entries)
        except (IndexError, KeyError, TypeError, ValueError, TreeError) as error:
            raise GraphError(
                f"{path} is not a valid TreeStore file ({type(error).__name__}: {error})"
            ) from error

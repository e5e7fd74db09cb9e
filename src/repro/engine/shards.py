"""Sharded on-disk tree stores: a manifest plus N lazily loaded shard files.

:meth:`TreeStore.save` writes one pickle that must be rebuilt wholesale in
memory — fine for laptop graphs, a wall for graphs whose trees do not all
fit at once.  :class:`ShardedTreeStore` splits the same entry records across
``N`` shard files under one directory, described by a small manifest that
carries only the header (format, version, ``k``) and the node→shard layout.
Loading the manifest is O(nodes); the shard payloads are read on first
touch, and at most ``max_resident`` shards are kept in memory under an LRU
policy, so random-access ``entry()`` workloads run in bounded memory.

The store exposes the same surface as :class:`TreeStore` — ``entry()`` /
``nodes()`` / ``entries()`` / ``packed_parent_arrays()`` / iteration /
summaries — so the distance-matrix builders (:mod:`repro.engine.matrix`)
and the search engine (:mod:`repro.engine.search`) consume either store
unchanged.  Note that those batch consumers materialize every entry for the
duration of a build anyway; the sharded layout's wins are elsewhere: the
precompute-once / query-many split across *processes* (Sections 6–7 — write
the shards once, attach them from any number of sweep processes), bounded
memory for random-access workloads, and incremental-friendly files (one
shard can be rewritten without touching the rest).

Layout::

    <directory>/
        manifest.bin      # header + per-shard node lists (build order)
        shard-0000.bin    # header + the entry records of its nodes
        shard-0001.bin
        ...

Both file kinds carry the same format/version header discipline as
:class:`TreeStore`: a format marker checked first, then an integer version,
then ``k`` — so a truncated or foreign file fails with a clear error before
any entry is decoded.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Dict, Hashable, Iterable, Iterator, List, Tuple, Union

from repro.exceptions import GraphError, TreeError
from repro.engine.tree_store import (
    StoredTree,
    TreeStore,
    _check_payload_k,
    _copy_entry,
    _decode_entry,
    _encode_entry,
)
from repro.ted.survey import PackedSummaries
from repro.trees.tree import Tree
from repro.utils.io import atomic_pickle_dump, load_validated_payload
from repro.utils.timer import clock

Node = Hashable

_MANIFEST_FORMAT = "repro-tree-store-manifest"
_SHARD_FORMAT = "repro-tree-store-shard"
_VERSION = 1
_SUPPORTED_VERSIONS = (1,)

#: File name of the manifest inside a sharded-store directory.
MANIFEST_NAME = "manifest.bin"

#: Resident-shard budget used unless the caller picks one.
DEFAULT_MAX_RESIDENT = 4


def _shard_file_name(index: int) -> str:
    return f"shard-{index:04d}.bin"


def save_sharded(
    store: "Union[TreeStore, ShardedTreeStore]",
    directory: Union[str, Path],
    shards: int = 4,
) -> Path:
    """Write ``store`` as a manifest plus ``shards`` shard files.

    Entries are split into contiguous runs of build order, so shard files
    preserve the deterministic node order every downstream result depends
    on.  Returns the manifest path (what :meth:`ShardedTreeStore.load`
    takes; the directory also works).
    """
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise GraphError(f"shards must be a positive int, got {shards!r}")
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    entries = store.entries()
    count = len(entries)
    shards = min(shards, count) or 1
    shard_records = []
    for index in range(shards):
        # Balanced contiguous split: shard sizes differ by at most one and
        # no shard is ever empty, unlike a ceil-division split whose last
        # shards can end up degenerate.
        block = entries[count * index // shards:count * (index + 1) // shards]
        payload = {
            "format": _SHARD_FORMAT,
            "version": _VERSION,
            "k": store.k,
            "shard": index,
            "entries": [_encode_entry(entry) for entry in block],
        }
        atomic_pickle_dump(payload, target / _shard_file_name(index))
        shard_records.append({
            "file": _shard_file_name(index),
            "nodes": [entry.node for entry in block],
        })
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _VERSION,
        "k": store.k,
        "entry_count": len(entries),
        "shards": shard_records,
    }
    # The manifest is written last (and atomically, like the shards): a
    # directory without a manifest is simply "no sharded store yet", never a
    # half-readable one.
    manifest_path = target / MANIFEST_NAME
    atomic_pickle_dump(manifest, manifest_path)
    return manifest_path


def _load_headered(path: Path, expected_format: str, kind: str) -> dict:
    """Load one manifest/shard file through the shared header validation."""
    try:
        return load_validated_payload(
            path, expected_format, _SUPPORTED_VERSIONS, kind, GraphError
        )
    except FileNotFoundError:
        raise GraphError(
            f"{path} does not exist (incomplete sharded TreeStore?)"
        ) from None


class ShardedTreeStore:
    """A :class:`TreeStore` persisted as a manifest plus lazy shard files.

    Construct with :meth:`load` (attach an existing directory) or write one
    from a dense store with :func:`save_sharded`.  ``max_resident`` bounds
    how many shards are simultaneously decoded in the internal LRU;
    ``entry()`` touches exactly one shard, bulk accessors stream through all
    of them in order.

    Example
    -------
    >>> from repro.graph.generators import grid_road_graph
    >>> import tempfile
    >>> dense = TreeStore.from_graph(grid_road_graph(4, 4, seed=1), k=2)
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     _ = save_sharded(dense, tmp, shards=3)
    ...     sharded = ShardedTreeStore.load(tmp)
    ...     (len(sharded), sharded.entry(0).tree == dense.entry(0).tree)
    (16, True)
    """

    def __init__(
        self,
        directory: Union[str, Path],
        max_resident: int = DEFAULT_MAX_RESIDENT,
    ) -> None:
        if not isinstance(max_resident, int) or isinstance(max_resident, bool) or max_resident < 1:
            raise GraphError(f"max_resident must be a positive int, got {max_resident!r}")
        path = Path(directory)
        if path.name == MANIFEST_NAME:
            path = path.parent
        self.directory = path
        self.max_resident = max_resident
        manifest_path = path / MANIFEST_NAME
        manifest = _load_headered(
            manifest_path, _MANIFEST_FORMAT, "sharded TreeStore manifest"
        )
        self._manifest_version = manifest["version"]
        self.k = _check_payload_k(manifest, manifest_path)
        try:
            shard_records = list(manifest["shards"])
            self._shard_files: List[str] = [str(record["file"]) for record in shard_records]
            self._shard_nodes: List[List[Node]] = [
                list(record["nodes"]) for record in shard_records
            ]
            entry_count = manifest["entry_count"]
        except (KeyError, TypeError) as error:
            raise GraphError(
                f"{manifest_path} is not a valid sharded TreeStore manifest "
                f"({type(error).__name__}: {error})"
            ) from error
        self._locations: Dict[Node, Tuple[int, int]] = {}
        for shard_index, nodes in enumerate(self._shard_nodes):
            for position, node in enumerate(nodes):
                if node in self._locations:
                    raise GraphError(
                        f"duplicate node {node!r} in sharded TreeStore manifest "
                        f"{manifest_path}"
                    )
                self._locations[node] = (shard_index, position)
        if entry_count != len(self._locations):
            raise GraphError(
                f"{manifest_path} is not a valid sharded TreeStore manifest "
                f"(entry_count={entry_count!r} but the shard layout names "
                f"{len(self._locations)} nodes)"
            )
        # LRU of decoded shards: shard index -> entries in shard order.
        self._resident: "OrderedDict[int, List[StoredTree]]" = OrderedDict()
        #: Total shard files decoded over this store's lifetime (laziness
        #: and eviction are observable through this counter).
        self.shard_loads = 0
        #: Resident shards dropped by the LRU over this store's lifetime.
        self.evictions = 0
        # Optional MetricsRegistry (duck-typed); see attach_metrics.
        self.metrics = None
        # Optional FaultPlan / RetryPolicy (duck-typed); see attach_resilience.
        self.faults = None
        self.retry = None
        # Memoized packed parent arrays / signatures (entries are immutable
        # on disk); built by ONE streaming pass that never touches the
        # resident LRU — both accessors fill both memos, so the pass (and
        # its ``shards.stream_decodes`` count) happens at most once.
        self._packed: Optional[List[List[int]]] = None
        self._packed_signatures: Optional[List[str]] = None
        # Memoized bound summaries, packed by their own streaming pass only
        # when a survey first asks for them.
        self._packed_summaries: Optional[PackedSummaries] = None

    def attach_metrics(self, registry) -> None:
        """Route this store's shard traffic into a metrics registry.

        Records ``shards.load_seconds`` per decode, counts ``shards.loads``
        and ``shards.evictions``, and keeps a ``shards.resident`` gauge in
        step with the LRU.  A session attaches its own registry when it
        adopts a sharded store; detach by passing ``None``.
        """
        self.metrics = registry
        if registry is not None:
            registry.set_gauge("shards.resident", len(self._resident))

    def attach_resilience(self, faults=None, retry=None) -> None:
        """Wire fault injection and shard-decode retries into this store.

        ``faults`` (a :class:`repro.resilience.FaultPlan`) activates the
        ``"shards.decode"`` site inside :meth:`_decode_shard`; ``retry`` (a
        :class:`repro.resilience.RetryPolicy`) re-attempts failed decodes
        with backoff — transient faults (slow NFS, injected one-shots) heal
        invisibly, persistent corruption still surfaces as the original
        typed :class:`~repro.exceptions.GraphError`.  A session attaches
        both when it adopts the store; ``None`` detaches either.
        """
        self.faults = faults
        self.retry = retry

    @classmethod
    def load(
        cls,
        directory: Union[str, Path],
        max_resident: int = DEFAULT_MAX_RESIDENT,
    ) -> "ShardedTreeStore":
        """Attach the sharded store under ``directory`` (or its manifest path)."""
        return cls(directory, max_resident=max_resident)

    # -------------------------------------------------------------- shard I/O
    def _decode_shard(self, index: int) -> List[StoredTree]:
        """Decode and validate one shard file — no LRU, counters or metrics.

        This is the pure read used both by :meth:`_shard` (which adds the
        residency bookkeeping) and by streaming consumers like
        :meth:`packed_parent_arrays` that must not disturb the hot working
        set.
        """
        path = self.directory / self._shard_files[index]
        if self.faults is not None and self.faults.fire("shards.decode"):
            # One-shot corruption: truncate the shard file on disk, then
            # decode it — the real validation path produces the typed error,
            # and (unlike an "error" fault) retries keep failing, which is
            # exactly the persistent-corruption shape.
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)])
        payload = _load_headered(path, _SHARD_FORMAT, "TreeStore shard")
        if payload.get("k") != self.k:
            raise GraphError(
                f"shard {path} was written with k={payload.get('k')!r}, but the "
                f"manifest says k={self.k}; the sharded store is corrupt"
            )
        expected_nodes = self._shard_nodes[index]
        try:
            records = payload["entries"]
            entries = [_decode_entry(record, self.k, 2) for record in records]
        except (KeyError, TypeError, ValueError, TreeError) as error:
            raise GraphError(
                f"{path} is not a valid TreeStore shard "
                f"({type(error).__name__}: {error})"
            ) from error
        if [entry.node for entry in entries] != expected_nodes:
            raise GraphError(
                f"shard {path} does not match the manifest's node layout "
                f"(truncated or stale shard file?)"
            )
        return entries

    def _decode_with_retry(self, index: int) -> List[StoredTree]:
        """Decode one shard under the attached retry policy (if any)."""
        if self.retry is None:
            return self._decode_shard(index)
        return self.retry.call(
            lambda: self._decode_shard(index),
            site="shards.decode",
            metrics=self.metrics,
        )

    def _shard(self, index: int) -> List[StoredTree]:
        """Return one shard's entries, decoding it on first touch (LRU)."""
        resident = self._resident.get(index)
        if resident is not None:
            self._resident.move_to_end(index)
            return resident
        load_started = clock() if self.metrics is not None else 0.0
        entries = self._decode_with_retry(index)
        self._resident[index] = entries
        self._resident.move_to_end(index)
        self.shard_loads += 1
        evicted = 0
        while len(self._resident) > self.max_resident:
            self._resident.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        if self.metrics is not None:
            self.metrics.observe("shards.load_seconds", clock() - load_started)
            self.metrics.inc("shards.loads")
            if evicted:
                self.metrics.inc("shards.evictions", evicted)
            self.metrics.set_gauge("shards.resident", len(self._resident))
        return entries

    def resident_shard_count(self) -> int:
        """Return how many shards are currently decoded in memory."""
        return len(self._resident)

    @property
    def shard_count(self) -> int:
        """Number of shard files behind this store."""
        return len(self._shard_files)

    # -------------------------------------------------------------- accessors
    def nodes(self) -> List[Node]:
        """Return the stored nodes in build order (no shard is touched)."""
        return [node for nodes in self._shard_nodes for node in nodes]

    def entries(self) -> List[StoredTree]:
        """Return all entries in build order (streams through every shard)."""
        return [entry for index in range(self.shard_count) for entry in self._shard(index)]

    def entry(self, node: Node) -> StoredTree:
        """Return the full entry of ``node`` (touches exactly one shard)."""
        try:
            shard_index, position = self._locations[node]
        except KeyError:
            raise GraphError(f"node {node!r} is not in this TreeStore") from None
        return self._shard(shard_index)[position]

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

        Same wire format as :meth:`TreeStore.packed_parent_arrays` — the
        shared-memory export flattens it once for every worker process, and
        the batch TED* kernel pre-compiles from the same layout.

        Unlike :meth:`entries`, this *streams*: resident shards are read
        without touching their recency, and non-resident shards are decoded
        transiently (``shards.stream_decodes`` in the metrics) without
        entering the LRU — packing the whole store no longer evicts the hot
        working set or bumps ``shard_loads``/``evictions``.  The packing is
        memoized; the outer list is a fresh copy per call and the inner
        arrays are shared, read-only by contract.
        """
        self._ensure_packed()
        return list(self._packed)

    def packed_signatures(self) -> List[str]:
        """Return every entry's canonical signature, aligned with
        :meth:`packed_parent_arrays`.

        Filled by the *same* streaming pass as the parent arrays (the pass
        runs at most once per store, whichever accessor is called first), so
        exporting a store for serving — arrays into shared memory plus
        signatures for index validation — costs exactly one transient decode
        per non-resident shard (``shards.stream_decodes``), never two.
        """
        self._ensure_packed()
        return list(self._packed_signatures)

    def packed_summaries(self) -> PackedSummaries:
        """Return the bound summaries of every entry as arrays, in build order.

        Same contract as :meth:`TreeStore.packed_summaries`.  Packed by a
        streaming pass of its own (like :meth:`packed_parent_arrays`, it
        never touches the resident LRU), the first time a survey asks, so a
        store that is never surveyed keeps no summaries and a store that is
        only surveyed builds no parent arrays.
        """
        if self._packed_summaries is None:
            self._packed_summaries = PackedSummaries.pack(self.k, self._stream_entries())
        return self._packed_summaries

    def _stream_entries(self) -> Iterator[StoredTree]:
        """Every entry in build order, shard by shard, outside the LRU.

        Resident shards are read in place; the others are decoded
        transiently (``shards.stream_decodes``) and dropped after use.
        """
        for index in range(self.shard_count):
            resident = self._resident.get(index)
            if resident is None:
                entries = self._decode_with_retry(index)
                if self.metrics is not None:
                    self.metrics.inc("shards.stream_decodes")
            else:
                entries = resident
            yield from entries

    def _ensure_packed(self) -> None:
        if self._packed is not None:
            return
        packed: List[List[int]] = []
        signatures: List[str] = []
        for entry in self._stream_entries():
            packed.append(entry.tree.parent_array())
            signatures.append(entry.signature)
        self._packed = packed
        self._packed_signatures = signatures

    def subset(self, nodes: Iterable[Node]) -> TreeStore:
        """Return a dense, independent :class:`TreeStore` over ``nodes``.

        Like :meth:`TreeStore.subset`, the entries are deep-copied so the
        subset is decoupled from this store's shard cache.
        """
        return TreeStore(self.k, [_copy_entry(self.entry(node)) for node in nodes])

    def to_store(self) -> TreeStore:
        """Materialize the whole sharded store as a dense :class:`TreeStore`."""
        return TreeStore(self.k, [_copy_entry(entry) for entry in self.entries()])

    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, node: Node) -> bool:
        return node in self._locations

    def __iter__(self) -> Iterator[StoredTree]:
        for index in range(self.shard_count):
            for entry in self._shard(index):
                yield entry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedTreeStore(k={self.k}, nodes={len(self)}, "
            f"shards={self.shard_count}, resident<={self.max_resident})"
        )


def sharded_store_exists(directory: Union[str, Path]) -> bool:
    """True when ``directory`` holds a sharded-store manifest."""
    path = Path(directory)
    if path.name == MANIFEST_NAME:
        return path.exists()
    return (path / MANIFEST_NAME).exists()

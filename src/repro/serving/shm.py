"""Zero-copy export of a tree store into ``multiprocessing.shared_memory``.

The packed parent arrays are the store's whole exact-tier working set
(:meth:`~repro.engine.tree_store.TreeStore.packed_parent_arrays`): every
tree is one small int array, and TED* needs nothing else.  This module
flattens all of them into **one** shared-memory segment —

::

    [ offsets : int64 x (n + 1) | values : int64 x total ]

— where entry ``i``'s parent array is ``values[offsets[i]:offsets[i+1]]``.
The server exports once; each worker attaches the segment by name and
reads it through a stdlib ``memoryview`` cast to int64 in place
(:class:`AttachedStore`), so N workers share one resident copy of the
store instead of decoding N pickles.  The
acceptance check for "attached, not copied" is the store's own
``shards.stream_decodes`` counter: exporting a sharded store costs exactly
one streaming pass, and workers perform zero decodes.

Lifecycle is the sharp edge.  POSIX shared memory outlives processes, so a
leaked segment survives the test run in ``/dev/shm``:

* the server owns unlinking, via :meth:`StoreExport.close` — idempotent,
  so shutdown paths that overlap (signal handler + ``finally``) unlink
  **exactly once**, even after a worker crash;
* workers must *not* unlink (a crashing worker would tear the store out
  from under its siblings).  Python's ``resource_tracker`` would do
  exactly that at worker exit, so :func:`attach_store` unregisters the
  attachment from tracking (Python 3.13+ has ``track=False`` for the same
  purpose; we fall back to unregistering on older runtimes).

Everything here is stdlib (``multiprocessing.shared_memory``, ``array``
and ``memoryview``), so the worker path runs without numpy.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import DistanceError

#: ``memoryview``/``array`` format code of the segment's int64 words.
_WORD = "q"
_WORD_BYTES = 8


@dataclass(frozen=True)
class StoreHandle:
    """The small picklable description workers need to attach a store.

    ``name`` is the shared-memory segment; ``entry_count``/``values_length``
    recover the two views' shapes; ``k`` is the store's tree depth;
    ``signatures`` (AHU-canonical, aligned with entry order) let a worker
    both validate the indices it is handed and memoize compiled trees.
    """

    name: str
    entry_count: int
    values_length: int
    k: int
    signatures: Tuple[str, ...]


class StoreExport:
    """The server-side owner of one exported store segment.

    Create with :func:`export_store`; pass :attr:`handle` to workers; call
    :meth:`close` (idempotent, unlink-exactly-once) when serving stops.
    Context-manager use closes on exit.
    """

    def __init__(self, shm, handle: StoreHandle) -> None:
        self._shm = shm
        self.handle = handle
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def __enter__(self) -> "StoreExport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Close *and unlink* the segment; safe to call any number of times.

        The export is the one owner of the segment's lifetime: overlapping
        shutdown paths (atexit + ``finally`` + signal handling) all funnel
        here, and the flag makes the unlink happen exactly once — a second
        unlink of a POSIX shm name raises, and a *missed* one leaks the
        segment into ``/dev/shm`` past the process's death.
        """
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        self._shm.unlink()


def export_store(store, metrics=None) -> StoreExport:
    """Flatten ``store``'s packed parent arrays into one shared segment.

    ``store`` is duck-typed (:class:`~repro.engine.tree_store.TreeStore` or
    :class:`~repro.engine.shards.ShardedTreeStore` — anything with
    ``packed_parent_arrays()`` / ``packed_signatures()`` / ``k``).  Counts
    ``serving.shm_exports`` and ``serving.shm_export_bytes`` into
    ``metrics`` when given.
    """
    from multiprocessing import shared_memory

    packed = store.packed_parent_arrays()
    signatures = tuple(store.packed_signatures())
    words = array(_WORD, [0])
    for parents in packed:
        words.append(words[-1] + len(parents))
    total = words[-1]
    for parents in packed:
        words.extend(parents)
    nbytes = max(_WORD_BYTES, len(words) * _WORD_BYTES)
    shm = shared_memory.SharedMemory(create=True, size=nbytes)
    view = _words(shm, len(words))
    view[:] = words
    view.release()
    handle = StoreHandle(
        name=shm.name,
        entry_count=len(packed),
        values_length=total,
        k=store.k,
        signatures=signatures,
    )
    if metrics is not None:
        metrics.inc("serving.shm_exports")
        metrics.inc("serving.shm_export_bytes", nbytes)
    return StoreExport(shm, handle)


def _words(shm, count: int) -> memoryview:
    """The first ``count`` int64 words of a segment, as a writable view.

    The caller must ``release()`` it before the segment closes: a live view
    is an exported pointer, and ``SharedMemory.close`` refuses those.
    """
    return shm.buf[:count * _WORD_BYTES].cast(_WORD)


def _attach_untracked(name: str):
    """Attach an existing segment without taking over its lifetime.

    An attaching process does not own the segment, so it must neither
    unlink it at exit nor disturb the owner's tracker bookkeeping.  Python
    3.13+ exposes ``track=False`` for exactly this.  On older runtimes the
    attach re-registers the name — but every attacher here (the worker
    pool's children) shares the server's ``resource_tracker`` process, and
    its cache is a per-name *set*: the re-registration is an idempotent
    no-op, and the server's single ``unlink()`` unregisters cleanly.  (An
    explicit ``unregister`` on attach would be worse: it removes the
    *owner's* entry from the shared set, and the owner's later unlink then
    trips a tracker-side KeyError.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track= parameter; see docstring
        return shared_memory.SharedMemory(name=name)


class AttachedStore:
    """A worker-side zero-copy view of an exported store.

    Casts the attached buffer to one int64 ``memoryview`` — no decode, no
    copy — and serves parent arrays by entry index.  Close detaches (never
    unlinks; the server's :class:`StoreExport` owns that).
    """

    def __init__(self, handle: StoreHandle) -> None:
        self.handle = handle
        self._shm = _attach_untracked(handle.name)
        self._base = handle.entry_count + 1
        self._view = _words(self._shm, self._base + handle.values_length)
        self._closed = False

    def __len__(self) -> int:
        return self.handle.entry_count

    @property
    def k(self) -> int:
        return self.handle.k

    def parent_array(self, index: int) -> List[int]:
        """Entry ``index``'s parent array, as the plain list Tree expects."""
        if not 0 <= index < self.handle.entry_count:
            raise DistanceError(
                f"store index {index} out of range [0, {self.handle.entry_count})"
            )
        start = self._base + self._view[index]
        stop = self._base + self._view[index + 1]
        return self._view[start:stop].tolist()

    def signature(self, index: int) -> str:
        """Entry ``index``'s canonical signature (for validation/memo keys)."""
        return self.handle.signatures[index]

    def close(self) -> None:
        """Detach the views and the segment (idempotent; never unlinks)."""
        if self._closed:
            return
        self._closed = True
        # The view aliases shm.buf; release it first or close() raises
        # BufferError for exported pointers.
        self._view.release()
        self._shm.close()

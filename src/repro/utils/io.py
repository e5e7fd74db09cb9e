"""Durable-file helpers shared by the persistence layer.

Every persisted artifact (tree stores, store shards and manifests, distance
-cache sidecars) follows the same header discipline: a pickled dict whose
``format`` marker is checked first, then an integer ``version`` against the
versions the running build understands — so a truncated, foreign or
future-format file fails with one clear, uniform error before any entry is
decoded, and the check lives in exactly one place.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import Callable, Optional, Sequence, Type, Union

# Test seam for crash-consistency checks: called after the temp file is fully
# written and before os.replace — the window where a process kill must leave
# the previous file intact.  Installed via repro.resilience.inject_io_faults;
# None (the default) costs one comparison per dump.
_REPLACE_HOOK: Optional[Callable[[Path], None]] = None


def set_replace_hook(
    hook: Optional[Callable[[Path], None]],
) -> Optional[Callable[[Path], None]]:
    """Install the pre-``os.replace`` hook; returns the previous one."""
    global _REPLACE_HOOK
    previous = _REPLACE_HOOK
    _REPLACE_HOOK = hook
    return previous


def atomic_pickle_dump(payload: object, path: Path) -> None:
    """Write a pickle so a killed process never leaves a partial file.

    Stores, shards and cache sidecars are written at the end of long sweeps;
    if the process dies mid-dump, a truncated file would make every later
    warm run fail until someone deletes it by hand.  Dump to a sibling temp
    file and rename — ``os.replace`` is atomic on POSIX and Windows.
    """
    temp = path.with_name(path.name + ".tmp")
    try:
        with temp.open("wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        if _REPLACE_HOOK is not None:
            _REPLACE_HOOK(path)
        os.replace(temp, path)
    except BaseException:
        try:
            temp.unlink()
        except FileNotFoundError:
            pass
        raise


#: What ``pickle.load`` raises on corrupt bytes.  Mutated files produce
#: every one of these (a bad opcode, a truncated frame, a non-UTF-8 string,
#: a wrong argument type, a huge length); ``MemoryError`` comes from a
#: corrupt size the loader cannot allocate.
_DECODE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    MemoryError,
    OverflowError,
    TypeError,
    ValueError,
)


def load_validated_payload(
    path: Union[str, Path],
    expected_format: str,
    supported_versions: Sequence[int],
    kind: str,
    error_cls: Type[Exception],
) -> dict:
    """Read a persisted payload and validate its format/version header.

    Unpickling failures (truncated/corrupt/foreign bytes), a path that names
    a directory, a wrong or missing ``format`` marker, and an unsupported
    ``version`` all raise ``error_cls`` with a message naming ``kind`` and
    the path.  A missing file raises :class:`FileNotFoundError` untouched —
    callers with a more helpful story for that case (e.g. an incomplete
    shard set) wrap it themselves.  Returns the validated payload dict,
    ``version`` included.
    """
    try:
        with Path(path).open("rb") as handle:
            payload = pickle.load(handle)
    except (IsADirectoryError, *_DECODE_ERRORS) as error:
        raise error_cls(
            f"{path} is not a {kind} file ({type(error).__name__}: {error})"
        ) from error
    if not isinstance(payload, dict) or payload.get("format") != expected_format:
        raise error_cls(f"{path} is not a {kind} file")
    version = payload.get("version")
    if version not in supported_versions:
        supported = ", ".join(str(v) for v in supported_versions)
        raise error_cls(
            f"unsupported {kind} format version {version!r} in {path}: this build "
            f"reads versions {supported}; re-create the file or upgrade"
        )
    return payload

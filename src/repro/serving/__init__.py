"""Multi-process NED serving: one resident store, many cheap clients.

Before this package existed, :meth:`repro.engine.session.NedSession.serve`
was an asyncio facade *inside one process*: every client still had to open
its own session, decode its own copy of the packed store, and re-warm its
own exact-distance cache.  The serving package is the process/protocol
split that removes those N per-process copies:

* a **server process** (:class:`~repro.serving.server.NedServiceServer`,
  ``ned-serve``) owns the sharded store, the single warm sidecar-backed
  cache and the batch-tick loop;
* the store's packed parent arrays are exported **once** into
  :mod:`multiprocessing.shared_memory` (:mod:`repro.serving.shm`), and N
  worker processes read it zero-copy through int64 ``memoryview`` casts
  (:mod:`repro.serving.workers`) to evaluate exact TED* blocks — one
  resident copy of the data, no per-worker pickles.  This pool is the only
  place exact blocks leave the process: it isolates worker crashes (the
  service degrades to local evaluation), while in-process matrix builds
  stay serial, because shipping a k = 4 block costs more than it saves;
* clients speak a small HTTP/JSON protocol
  (:mod:`repro.serving.protocol`, :class:`~repro.serving.client.
  NedServiceClient`) whose wire schema is the session's frozen plan
  objects, versioned and strictly validated;
* batch ticks adapt (:mod:`repro.serving.ticks`): the tick size grows and
  shrinks against a target tick latency, trading latency against
  throughput from the observed ``serving.batch_size`` /
  ``serving.tick_seconds`` stream;
* backpressure reuses the typed failure semantics of
  :mod:`repro.resilience` — a full queue sheds with
  :class:`~repro.exceptions.OverloadError`, an expired request answers
  with :class:`~repro.exceptions.DeadlineError`, both travelling the wire
  as typed JSON errors; and
* every request is metered into a per-tenant
  :class:`~repro.obs.MetricsRegistry`, folded into the ``/v1/telemetry``
  endpoint with :func:`repro.obs.merge_snapshots`.

The package is stdlib-only, shared-memory workers included; numpy and
SciPy only speed the workers up (the batch TED* kernel) when importable.
"""

from repro.serving.protocol import (
    SCHEMA_VERSION,
    WIRE_FORMAT,
    decode_plan,
    decode_result,
    encode_plan,
    encode_result,
)
from repro.serving.ticks import AdaptiveTicks

__all__ = [
    "AdaptiveTicks",
    "SCHEMA_VERSION",
    "WIRE_FORMAT",
    "decode_plan",
    "decode_result",
    "encode_plan",
    "encode_result",
    "NedServiceServer",
    "NedServiceClient",
    "AttachedStore",
    "SharedWorkerPool",
    "export_store",
]

#: Lazily resolved exports: the server/client pull in http.server /
#: http.client and the engine session machinery, the shm/worker surface
#: pulls in multiprocessing; importing repro.serving for the protocol tables
#: alone (e.g. from the linter) must stay cheap.
_LAZY_EXPORTS = {
    "NedServiceServer": ("repro.serving.server", "NedServiceServer"),
    "NedServiceClient": ("repro.serving.client", "NedServiceClient"),
    "AttachedStore": ("repro.serving.shm", "AttachedStore"),
    "SharedWorkerPool": ("repro.serving.workers", "SharedWorkerPool"),
    "export_store": ("repro.serving.shm", "export_store"),
}


def __getattr__(name):
    target = _LAZY_EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(target[0]), target[1])

"""The NED service server: one warm session, many processes, HTTP in front.

:class:`NedServiceServer` is the server-process side of the serving split.
It owns exactly one warm :class:`~repro.engine.session.NedSession` (store,
resolver, sidecar-backed cache) and wires three layers around it:

* **Shared-memory workers** (``workers > 0``): the store's packed parent
  arrays are exported once (:func:`repro.serving.shm.export_store`) and a
  :class:`~repro.serving.workers.SharedWorkerPool` is attached as the
  session's block dispatcher, so the exact tier of every request fans out
  across N processes sharing one resident copy of the data.
* **Batch ticks**: requests drain through the session's own
  :class:`~repro.engine.session.SessionServer` (running on a private
  asyncio loop thread), with adaptive tick sizing by default — HTTP
  handler threads submit plans into it and await their futures, so
  concurrent clients' plans are batched, deduplicated and cache-shared
  exactly like in-process ``execute_batch`` callers.
* **The wire**: a stdlib ``ThreadingHTTPServer`` speaking
  :mod:`repro.serving.protocol` — ``POST /v1/plans`` with a versioned JSON
  envelope, typed JSON errors (an :class:`~repro.exceptions.OverloadError`
  shed and a :class:`~repro.exceptions.DeadlineError` expiry keep their
  types across the wire), per-tenant metrics keyed by the envelope's
  tenant field, and ``GET /v1/telemetry`` folding every tenant registry
  plus the session's own into one snapshot via
  :func:`repro.obs.merge_snapshots`.

Shutdown discipline: :meth:`close` is idempotent and tears down in
dependency order — HTTP front first (stop admitting), then the tick loop
(drain), then the worker pool, then the shared segment, whose
unlink-exactly-once lives in :meth:`repro.serving.shm.StoreExport.close`
and holds even when the pool died earlier.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.session import NedSession, Plan
from repro.exceptions import (
    DeadlineError,
    DistanceError,
    OverloadError,
    ReproError,
    WireFormatError,
)
from repro.obs import MetricsRegistry, merge_snapshots
from repro.serving.protocol import (
    F_ENTRIES,
    F_K,
    F_QUEUE_DEPTH,
    F_STATUS,
    F_TENANTS,
    F_TICK_LIMIT,
    F_MERGED,
    F_WORKERS,
    PATH_PLANS,
    PATH_STATUS,
    PATH_TELEMETRY,
    decode_request,
    encode_error,
    encode_error_response,
    encode_response,
    encode_result,
)
from repro.utils.timer import clock

#: What the status endpoint reports while the server accepts requests.
STATUS_SERVING = "serving"

#: Largest request body the service reads.  A longer declared
#: ``Content-Length`` is answered with 413 before any of the body is read.
MAX_REQUEST_BYTES = 8 * 1024 * 1024

#: Seconds a persistent connection may sit idle (or stall mid-request)
#: before the server closes it; clients resend on a fresh connection.
IDLE_TIMEOUT_S = 30.0

#: Seconds between the HTTP loop's shutdown checks: :meth:`NedServiceServer.close`
#: waits up to this long for the loop to notice (the stdlib default is 0.5 s).
SHUTDOWN_POLL_S = 0.05


class _HTTPServer(ThreadingHTTPServer):
    """The service's HTTP front: daemonic per-connection threads.

    ``server_close`` must not block on a client that keeps an idle
    keep-alive connection open — shutdown discipline belongs to
    :meth:`NedServiceServer.close`, not to whichever client forgot to
    hang up.  It therefore stops reading every open connection: a handler
    idling between requests sees end of input and exits at once, and one
    mid-request still sends its reply first.  A request a handler reads
    after ``server_close`` began (Linux still queues data on a socket whose
    reading side is shut) is not answered: the connection just ends.
    """

    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._open: Set[socket.socket] = set()
        self._open_lock = threading.Lock()
        self.closing = False
        super().__init__(*args, **kwargs)

    def process_request(self, request: Any, client_address: Any) -> None:
        # Registered on the accepting thread, so a connection accepted
        # before shutdown() returns is always seen by server_close().
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        self.closing = True
        super().server_close()
        with self._open_lock:
            open_connections = list(self._open)
        for connection in open_connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer or the handler closed it meanwhile


class NedServiceServer:
    """Serve one :class:`NedSession` to many client processes over HTTP.

    Parameters
    ----------
    session:
        The warm session to serve.  Must own a store (its ``k`` types the
        wire probes).  The server does not close it — the caller that
        opened the session (usually the CLI) owns its sidecar lifecycle.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    workers:
        Shared-memory worker processes for the exact tier; ``0`` serves
        single-process.
    max_batch:
        Tick sizing for the underlying :class:`SessionServer`:
        ``"adaptive"`` (default), a fixed int, an
        :class:`~repro.serving.ticks.AdaptiveTicks` instance, or ``None``
        for unbounded ticks.
    max_queue_depth, request_deadline:
        Backpressure knobs, forwarded to :meth:`NedSession.serve` (both
        default from the session's resilience policy).
    min_pairs:
        Smallest exact block worth dispatching to the workers.
    """

    def __init__(
        self,
        session: NedSession,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        max_batch: Any = "adaptive",
        max_queue_depth: Optional[int] = None,
        request_deadline: Optional[float] = None,
        min_pairs: Optional[int] = None,
    ) -> None:
        if session.store is None:
            raise DistanceError(
                "the NED service serves a store-backed session; open the "
                "session with a TreeStore or ShardedTreeStore"
            )
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 0:
            raise DistanceError(f"workers must be an int >= 0, got {workers!r}")
        self.session = session
        self.k = session.k
        self.host = host
        self.workers = workers
        self._requested_port = port
        self._max_batch = max_batch
        self._max_queue_depth = max_queue_depth
        self._request_deadline = request_deadline
        self._export = None
        self._pool = None
        if workers > 0:
            from repro.serving.shm import export_store
            from repro.serving.workers import DEFAULT_MIN_PAIRS, SharedWorkerPool

            self._export = export_store(session.store, metrics=session.metrics)
            self._pool = SharedWorkerPool(
                self._export.handle,
                session.store,
                workers=workers,
                backend=session.resolver.matching_backend,
                metrics=session.metrics,
                min_pairs=min_pairs if min_pairs is not None else DEFAULT_MIN_PAIRS,
                faults=session.faults,
            )
            session.attach_block_dispatcher(self._pool)
        #: Per-tenant request registries (tenant -> MetricsRegistry).
        self._tenants: Dict[str, MetricsRegistry] = {}
        self._tenants_guard = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._server = None  # the live SessionServer, set by the loop thread
        self._started = threading.Event()
        self._http: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self.port: Optional[int] = None
        self._closed = False

    # --------------------------------------------------------------- lifecycle
    def __enter__(self) -> "NedServiceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def start(self) -> "NedServiceServer":
        """Bind the HTTP front and start the tick loop; returns self."""
        if self._closed:
            raise DistanceError("this NedServiceServer is closed")
        if self._http is not None:
            return self
        if self._pool is not None:
            # Fork every worker *before* the HTTP/tick threads exist:
            # forking a multi-threaded process can deadlock the child (it
            # inherits locks mid-acquisition), which would wedge pool
            # shutdown and with it the whole server teardown.
            self._pool.warm()
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop_main, name="ned-serve-ticks", daemon=True
        )
        self._loop_thread.start()
        self._started.wait()
        self._http = _HTTPServer(
            (self.host, self._requested_port), _make_handler(self)
        )
        self.port = self._http.server_address[1]
        self._http_thread = threading.Thread(
            target=self._http.serve_forever, args=(SHUTDOWN_POLL_S,),
            name="ned-serve-http", daemon=True,
        )
        self._http_thread.start()
        return self

    def _loop_main(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._serve())
        finally:
            self._loop.close()

    async def _serve(self) -> None:
        self._stop_event = asyncio.Event()
        async with self.session.serve(
            max_batch=self._max_batch,
            max_queue_depth=self._max_queue_depth,
            request_deadline=self._request_deadline,
        ) as server:
            self._server = server
            self._started.set()
            await self._stop_event.wait()
        self._server = None

    def close(self) -> None:
        """Stop serving and release every process-shared resource (idempotent).

        Teardown runs front-to-back — HTTP, tick loop, worker pool, shared
        segment — and each stage is individually idempotent, so overlapping
        shutdown paths (context manager + signal handler) cannot unlink the
        segment twice or hang on a dead pool.
        """
        if self._closed:
            return
        self._closed = True
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            self._http_thread.join()
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._loop_thread.join()
        if self._pool is not None:
            self.session.attach_block_dispatcher(None)
            self._pool.close()
        if self._export is not None:
            # Exactly-once unlink lives inside StoreExport.close; reaching
            # it from every shutdown path (including after a worker crash)
            # is what keeps /dev/shm free of leaked store segments.
            self._export.close()

    @property
    def address(self) -> str:
        """The server's ``host:port`` (after :meth:`start`)."""
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------ request path
    def _tenant_registry(self, tenant: Optional[str]) -> Optional[MetricsRegistry]:
        if tenant is None:
            return None
        with self._tenants_guard:
            registry = self._tenants.get(tenant)
            if registry is None:
                registry = MetricsRegistry()
                self._tenants[tenant] = registry
            return registry

    def _record_request(
        self, tenant: Optional[str], plans: int, seconds: float
    ) -> None:
        # Exactly one registry per request: the tenant's when the envelope
        # names one, the session's otherwise.  The registries *partition*
        # the request metrics, so the telemetry endpoint's merged view sums
        # to the true totals instead of double-counting tenanted traffic.
        registry = self._tenant_registry(tenant)
        if registry is None:
            registry = self.session.metrics
        registry.inc("serving.requests")
        registry.inc("serving.request_plans", plans)
        registry.observe("serving.request_seconds", seconds)

    async def _gather(self, plans: List[Plan]) -> List[Any]:
        server = self._server
        if server is None:
            raise OverloadError("the serving tick loop is not running")
        return await asyncio.gather(
            *(server.submit(plan) for plan in plans), return_exceptions=True
        )

    def handle_plans(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """Decode → batch-execute → encode one request; never raises.

        Per-plan failures (a shed ``OverloadError``, an expired
        ``DeadlineError``, a ``DistanceError`` from a bad plan) land in
        their own result slots as typed JSON errors with HTTP 200 — the
        envelope succeeded, the plan didn't.  Envelope-level failures map
        the error type onto the status code (400 malformed, 503 shed,
        504 expired) with a typed JSON error body either way.
        """
        started = clock()
        tenant: Optional[str] = None
        plan_count = 0
        try:
            faults = self.session.faults
            if faults is not None:
                faults.fire("serving.request")
            plans, tenant = decode_request(payload, self.k)
            plan_count = len(plans)
            future = asyncio.run_coroutine_threadsafe(self._gather(plans), self._loop)
            results = future.result()
            slots = [
                encode_error(result)
                if isinstance(result, BaseException)
                else encode_result(plan, result)
                for plan, result in zip(plans, results)
            ]
            status, response = 200, encode_response(slots)
        except WireFormatError as error:
            status, response = 400, encode_error_response(error)
        except OverloadError as error:
            status, response = 503, encode_error_response(error)
        except DeadlineError as error:
            status, response = 504, encode_error_response(error)
        except ReproError as error:
            status, response = 500, encode_error_response(error)
        self._record_request(tenant, plan_count, clock() - started)
        return status, response

    # -------------------------------------------------------------- inspection
    def telemetry_payload(self) -> Dict[str, Any]:
        """The ``/v1/telemetry`` body: per-tenant snapshots + the merged view.

        The merged section folds the session's registry (resolver tiers,
        shards, ticks, worker exports) with every tenant's request registry
        through :func:`repro.obs.merge_snapshots` — counters add, gauges
        keep maxima, histograms merge.
        """
        with self._tenants_guard:
            tenants = {
                name: registry.snapshot() for name, registry in self._tenants.items()
            }
        merged = merge_snapshots(
            [self.session.metrics.snapshot(), *tenants.values()]
        )
        return {F_TENANTS: tenants, F_MERGED: merged}

    def status_payload(self) -> Dict[str, Any]:
        """The ``/v1/status`` body: liveness plus the knobs clients care about."""
        server = self._server
        return {
            F_STATUS: STATUS_SERVING,
            F_K: self.k,
            F_ENTRIES: len(self.session.store),
            F_WORKERS: self.workers,
            F_QUEUE_DEPTH: server.queue_depth_hwm if server is not None else 0,
            F_TICK_LIMIT: server.tick_limit if server is not None else None,
        }


def _make_handler(service: NedServiceServer):
    """Build the request-handler class bound to one server instance."""

    class Handler(BaseHTTPRequestHandler):
        # Persistent connections: a client keeps one per thread, and the
        # server closes it after IDLE_TIMEOUT_S without a request.
        protocol_version = "HTTP/1.1"
        timeout = IDLE_TIMEOUT_S
        # A reply is two writes, headers then body.  With Nagle's algorithm
        # the body waits for the client's delayed ACK of the headers, about
        # 40 ms per request on a reused connection.
        disable_nagle_algorithm = True

        def setup(self) -> None:
            super().setup()
            service.session.metrics.inc("serving.connections")

        def parse_request(self) -> bool:
            if self.server.closing:
                self.close_connection = True
                return False
            return super().parse_request()

        # Quiet by default: the service's telemetry endpoint is the
        # observable surface, not per-request stderr lines.
        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            pass

        def _send(
            self, status: int, payload: Dict[str, Any], close: bool = False
        ) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                # Also sets close_connection: this connection ends here.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _reject(self, status: int, message: str, unread: bool = True) -> None:
            # Refused before decoding.  After a bad or oversized length the
            # body is still unread, so the connection cannot be reused.
            service.session.metrics.inc("serving.rejected_bodies")
            self._send(
                status, encode_error_response(WireFormatError(message)), close=unread
            )

        def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            if self.path != PATH_PLANS:
                # The body is left unread, so the connection ends here.
                self._send(
                    404,
                    encode_error_response(
                        WireFormatError(f"unknown endpoint {self.path!r}")
                    ),
                    close=True,
                )
                return
            declared = self.headers.get("Content-Length") or "0"
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if length < 0:
                self._reject(
                    400,
                    "Content-Length must be a non-negative integer, "
                    f"got {declared!r}",
                )
                return
            if length > MAX_REQUEST_BYTES:
                self._reject(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_REQUEST_BYTES}-byte limit",
                )
                return
            raw = self.rfile.read(length)
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as error:
                self._reject(
                    400, f"request body is not valid JSON: {error}", unread=False
                )
                return
            status, response = service.handle_plans(payload)
            self._send(status, response)

        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            if self.path == PATH_TELEMETRY:
                self._send(200, service.telemetry_payload())
            elif self.path == PATH_STATUS:
                self._send(200, service.status_payload())
            else:
                self._send(
                    404,
                    encode_error_response(
                        WireFormatError(f"unknown endpoint {self.path!r}")
                    ),
                )

    return Handler

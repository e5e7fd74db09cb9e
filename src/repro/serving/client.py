"""The NED service client: session-shaped calls over the wire.

:class:`NedServiceClient` mirrors the session's batched surface —
``execute_batch(plans)`` / ``execute(plan)`` — against a running
:class:`~repro.serving.server.NedServiceServer`.  Plans are encoded with
:mod:`repro.serving.protocol`, results decode back to exactly what an
in-process session returns (point lists, ``MatrixResult``), and typed
service errors survive the round trip: a shed request raises
:class:`~repro.exceptions.OverloadError` here, an expired one
:class:`~repro.exceptions.DeadlineError`, a malformed payload
:class:`~repro.exceptions.WireFormatError` — same types, same handling,
whether the session is local or behind the service.

The client is deliberately dumb.  Each thread that calls it keeps one
persistent HTTP/1.1 ``http.client`` connection, so a thread's calls share
one TCP connection and many threads can share one client object, as
benchmark senders do.  The server closes a connection after
:data:`~repro.serving.server.IDLE_TIMEOUT_S` idle seconds, and after a
reply that leaves a request body unread.  A call whose *reused* connection
fails with a connection error before any reply arrives is resent once on a
fresh connection: plans are read-only, so a resend cannot change an
answer.  There are no other retries (that is
:class:`repro.resilience.RetryPolicy`'s job, composed by the caller), and
no state beyond the address, the default tenant and the connections, which
:meth:`NedServiceClient.close` hangs up.
"""

from __future__ import annotations

import json
import threading
import weakref
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import WireFormatError
from repro.serving.protocol import (
    PATH_PLANS,
    PATH_STATUS,
    PATH_TELEMETRY,
    decode_response,
    encode_request,
)


class NedServiceClient:
    """Talk to one NED service endpoint.

    Parameters
    ----------
    host, port:
        The server's bind address (:attr:`NedServiceServer.port`).
    tenant:
        Default tenant key stamped on every request envelope (individual
        calls may override); the server meters requests per tenant.
    timeout:
        Socket timeout in seconds for each HTTP call.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        tenant: Optional[str] = None,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout = timeout
        self._local = threading.local()
        # Every thread's connection, for close(); a finished thread's
        # connection drops out once it is collected.
        self._connections: "weakref.WeakSet[HTTPConnection]" = weakref.WeakSet()
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection; a later call reconnects."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    # ------------------------------------------------------------------- HTTP
    def _connection(self) -> HTTPConnection:
        """This thread's persistent connection (connects on first request)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
            self._local.connection = connection
            with self._connections_lock:
                self._connections.add(connection)
        return connection

    def _call(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Any:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # The server closed the idle connection before this request
                # reached it; close() lets the resend open a fresh one.
                connection.close()
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
            raw = response.read()
        except (HTTPException, OSError) as error:
            connection.close()
            raise WireFormatError(
                f"NED service at {self.host}:{self.port} unreachable "
                f"({type(error).__name__}: {error})"
            ) from error
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise WireFormatError(
                f"NED service response is not valid JSON: {error}"
            ) from error

    # -------------------------------------------------------------- execution
    def execute_batch(
        self,
        plans: Sequence[Any],
        tenant: Optional[str] = None,
        return_exceptions: bool = False,
    ) -> List[Any]:
        """Execute many plans in one request; results align with ``plans``.

        Mirrors :meth:`NedSession.execute_batch`: by default the first
        failed plan's typed exception is raised; with
        ``return_exceptions=True`` each failure stays in its result slot.
        Envelope-level failures (malformed request, whole-request shed)
        always raise their typed exception.
        """
        payload = encode_request(
            plans, tenant=tenant if tenant is not None else self.tenant
        )
        slots = decode_response(self._call("POST", PATH_PLANS, payload))
        if not return_exceptions:
            for slot in slots:
                if isinstance(slot, BaseException):
                    raise slot
        return slots

    def execute(self, plan: Any, tenant: Optional[str] = None) -> Any:
        """Execute one plan and return its decoded result (or raise typed)."""
        return self.execute_batch([plan], tenant=tenant)[0]

    # -------------------------------------------------------------- inspection
    def telemetry(self) -> Dict[str, Any]:
        """The server's ``/v1/telemetry`` payload (tenants + merged)."""
        return self._call("GET", PATH_TELEMETRY)

    def status(self) -> Dict[str, Any]:
        """The server's ``/v1/status`` payload."""
        return self._call("GET", PATH_STATUS)

"""The Request Manager: GDMP's authenticated RPC layer.

§4.1: "Client requests are sent to the GDMP server through the Request
Manager.  The Request Manager is the client-server communication module ...
Using the Globus IO and Globus Data Conversion libraries, the Request
Manager provides a limited Remote Procedure Call functionality."  And:
"Every client request to a GDMP server is authenticated and authorized by a
security service."

This module is a thin protocol profile over the shared service bus
(:mod:`repro.services`): the server is a :class:`ServiceEndpoint` whose
middleware chain counts operations, verifies the caller's proxy chain
against the trusted CAs, maps the identity through the gridmap, and sheds
deadline-expired requests, and applies idempotent calls exactly once;
the client is a :class:`ServiceClient` that attaches the proxy chain to
every call, mints the serial of each idempotent one, and maps
faults/timeouts to :class:`RemoteError` / :class:`RequestTimeout`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.netsim.channels import MessageNetwork
from repro.netsim.topology import Host
from repro.security.ca import CertificateAuthority
from repro.security.credentials import Credential
from repro.security.gridmap import GridMap
from repro.services.bus import (
    ServiceClient,
    ServiceEndpoint,
    ServiceError,
    ServiceRequest,
)
from repro.services.middleware import (
    DeadlineMiddleware,
    ExactlyOnceMiddleware,
    GsiAuthenticator,
    GsiAuthMiddleware,
    MetricsMiddleware,
    ServerMonitorMiddleware,
)
from repro.services.tracelog import TraceLog
from repro.simulation.kernel import Process, Simulator
from repro.simulation.monitor import Monitor

__all__ = [
    "GdmpError",
    "RequestTimeout",
    "RemoteError",
    "AuthenticatedRequest",
    "RequestServer",
    "RequestClient",
]

REQUEST_MESSAGE_SIZE = 512


class GdmpError(ServiceError):
    """GDMP operation failure."""


class RequestTimeout(GdmpError):
    """No reply from the remote GDMP server within the deadline."""

    retryable = True


class RemoteError(GdmpError):
    """An error raised by a remote handler, re-raised at the caller."""

    def __init__(self, operation: str, server: str, message: str):
        super().__init__(f"{operation}@{server}: {message}")
        self.operation = operation
        self.server = server
        self.remote_message = message


def _request_timeout(operation: str, server: str, timeout: float) -> RequestTimeout:
    return RequestTimeout(f"{operation}@{server}: no reply within {timeout}s")


@dataclass(frozen=True)
class AuthenticatedRequest:
    """What a handler receives after the security layer has done its job."""

    operation: str
    payload: Any
    caller_host: str
    subject: str      # the presented (proxy) subject
    identity: str     # the authenticated end-entity DN
    account: str      # gridmap-mapped local account


Handler = Callable[[AuthenticatedRequest], Generator]


class RequestServer(ServiceEndpoint):
    """Server half: a dispatch table behind the security middleware."""

    SERVICE = "gdmp"

    def __init__(
        self,
        sim: Simulator,
        msgnet: MessageNetwork,
        host: Host,
        credential: Credential,
        trusted_cas: list[CertificateAuthority],
        gridmap: GridMap,
        service: str = SERVICE,
        tracelog: Optional[TraceLog] = None,
        metrics=None,
    ):
        monitor = Monitor()
        self.credential = credential
        self.trusted_cas = trusted_cas
        self.gridmap = gridmap
        self.authenticator = GsiAuthenticator(trusted_cas, gridmap)
        #: the exactly-once store; services register their replay
        #: counters on it
        self.exactly_once = ExactlyOnceMiddleware()
        middlewares = [
            ServerMonitorMiddleware(monitor),
            GsiAuthMiddleware(self.authenticator, monitor),
            DeadlineMiddleware(monitor, metrics=metrics, service=service),
            self.exactly_once,
        ]
        if metrics is not None:
            middlewares.insert(0, MetricsMiddleware(metrics, service=service))
        super().__init__(
            sim,
            msgnet,
            host,
            service,
            middlewares=tuple(middlewares),
            tracelog=tracelog,
            monitor=monitor,
            message_size=REQUEST_MESSAGE_SIZE,
            process_name=f"gdmp-request-manager@{host.name}",
        )

    def register(self, operation: str, handler: Handler) -> None:
        """Bind a handler generator to an operation name.  Handlers receive
        an :class:`AuthenticatedRequest` built from the middleware's
        verification result."""

        def adapter(request: ServiceRequest):
            auth = request.state["auth"]
            result = yield from handler(
                AuthenticatedRequest(
                    operation=request.operation,
                    payload=request.payload,
                    caller_host=request.caller_host,
                    subject=auth.subject,
                    identity=auth.identity,
                    account=auth.account,
                )
            )
            return result

        super().register(operation, adapter)


class RequestClient(ServiceClient):
    """Client half: issue authenticated calls to remote GDMP servers."""

    def __init__(
        self,
        sim: Simulator,
        msgnet: MessageNetwork,
        host: Host,
        credential: Credential,
        service: str = RequestServer.SERVICE,
        tracelog: Optional[TraceLog] = None,
    ):
        super().__init__(
            sim,
            msgnet,
            host,
            service,
            tracelog=tracelog,
            message_size=REQUEST_MESSAGE_SIZE,
            remote_error=RemoteError,
            timeout_error=_request_timeout,
        )
        self.credential = credential
        self._serials = itertools.count(1)
        #: serials of the idempotent calls still in flight
        self.in_flight: set[int] = set()

    def call(
        self,
        server_host: str,
        operation: str,
        payload: Any = None,
        size: int = REQUEST_MESSAGE_SIZE,
        timeout: Optional[float] = None,
        idempotent: bool = False,
    ) -> Process:
        """Invoke ``operation`` on the GDMP server at ``server_host``.

        With ``timeout`` set, a missing reply (crashed server, dropped
        message) raises :class:`RequestTimeout` after that many seconds;
        without it the call waits indefinitely (in-order FIFO delivery
        means no reply can be merely late).  The late reply of a timed-out
        call is discarded on arrival, never misdelivered to a later call.

        An ``idempotent`` call is applied at most once however often the
        retry middleware re-sends it: it carries a serial minted here and
        this client's floor (its lowest serial still in flight) for the
        server's :class:`ExactlyOnceMiddleware`.  The serial leaves the
        in-flight set however the call ends — reply, error, or the
        process being killed."""
        meta = {"chain": self.credential.chain}

        def run():
            serial = None
            if idempotent:
                serial = next(self._serials)
                self.in_flight.add(serial)
                meta["serial"] = serial
                meta["floor"] = min(self.in_flight)
            try:
                outcome = yield from self.invoke(
                    server_host, operation, payload,
                    size=size, timeout=timeout, meta=meta,
                )
            finally:
                self.in_flight.discard(serial)
            return outcome.payload

        return self.sim.spawn(
            run(), name=f"{self.service}-call {operation}@{server_host}"
        )

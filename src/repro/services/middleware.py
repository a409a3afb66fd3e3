"""Composable server-side middleware for the service bus.

A middleware is a callable ``middleware(request, call_next)`` returning a
generator; it may inspect/augment the :class:`ServiceRequest`, delegate to
``call_next(request)`` with ``yield from``, and post-process the result.
The chain is composed once at endpoint construction, outermost first.

The stock middlewares reproduce what the bespoke GDMP and GridFTP servers
each implemented privately:

* :class:`ServerMonitorMiddleware` — per-operation request counters;
* :class:`GsiAuthMiddleware` — GSI chain verification + gridmap mapping
  (the paper's "every client request ... is authenticated and authorized
  by a security service");
* :class:`DeadlineMiddleware` — shed requests whose propagated deadline
  already passed before dispatch (the caller has given up; doing the work
  would only waste simulated server time);
* :class:`MetricsMiddleware` — per-operation RPC latency histograms and
  outcome counters in a :class:`~repro.telemetry.metrics.MetricsRegistry`;
* :class:`ExactlyOnceMiddleware` — apply each idempotent call once and
  replay its result to transport retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.security.ca import CertificateAuthority, CertificateError, verify_chain
from repro.security.gridmap import AuthorizationError, GridMap
from repro.services.bus import ServiceError, ServiceFault, ServiceRequest
from repro.simulation.monitor import Monitor

__all__ = [
    "AuthResult",
    "GsiAuthenticator",
    "GsiAuthMiddleware",
    "ServerMonitorMiddleware",
    "DeadlineMiddleware",
    "MetricsMiddleware",
    "ExactlyOnceMiddleware",
]


@dataclass(frozen=True)
class AuthResult:
    """What GSI verification establishes about a caller."""

    subject: str    # the presented (proxy) subject
    identity: str   # the authenticated end-entity DN
    account: str    # gridmap-mapped local account


class GsiAuthenticator:
    """Chain verification + gridmap authorization, shared by every
    service that authenticates callers (GDMP RPC and GridFTP ADAT)."""

    def __init__(self, trusted_cas: list[CertificateAuthority], gridmap: GridMap):
        self.trusted_cas = trusted_cas
        self.gridmap = gridmap

    def authenticate(self, chain, now: float) -> AuthResult:
        """Verify a presented certificate chain; raises
        :class:`CertificateError` / :class:`AuthorizationError`."""
        if not chain:
            raise CertificateError("no credential presented")
        identity = verify_chain(chain, self.trusted_cas, now)
        account = self.gridmap.authorize(identity)
        return AuthResult(
            subject=chain[0].subject, identity=identity, account=account
        )


class GsiAuthMiddleware:
    """Authenticate + authorize before any dispatch.

    Expects the caller's proxy chain in ``request.meta["chain"]``; on
    success stores the :class:`AuthResult` in ``request.state["auth"]``,
    on failure counts ``auth_failures`` and faults with ``security: ...``.
    """

    def __init__(
        self, authenticator: GsiAuthenticator, monitor: Optional[Monitor] = None
    ):
        self.authenticator = authenticator
        self.monitor = monitor

    def __call__(self, request: ServiceRequest, call_next):
        try:
            request.state["auth"] = self.authenticator.authenticate(
                request.meta.get("chain"), request.sim.now
            )
        except (CertificateError, AuthorizationError) as exc:
            if self.monitor is not None:
                self.monitor.count("auth_failures")
            raise ServiceError(f"security: {exc}") from exc
        result = yield from call_next(request)
        return result


class ServerMonitorMiddleware:
    """Count every arriving request as ``{prefix}{operation}``."""

    def __init__(self, monitor: Monitor, prefix: str = "op_"):
        self.monitor = monitor
        self.prefix = prefix

    def __call__(self, request: ServiceRequest, call_next):
        self.monitor.count(f"{self.prefix}{request.operation}")
        result = yield from call_next(request)
        return result


class DeadlineMiddleware:
    """Shed requests whose propagated deadline expired before dispatch."""

    def __init__(self, monitor: Optional[Monitor] = None, metrics=None,
                 service: str = ""):
        self.monitor = monitor
        self.metrics = metrics
        self.service = service

    def __call__(self, request: ServiceRequest, call_next):
        context = request.context
        if (
            context is not None
            and context.deadline is not None
            and request.sim.now > context.deadline
        ):
            if self.monitor is not None:
                self.monitor.count("deadline_expired")
            if self.metrics is not None:
                self.metrics.counter(
                    "rpc.deadline_sheds",
                    service=self.service,
                    operation=request.operation,
                ).inc()
            raise ServiceError(
                f"deadline exceeded before dispatch of {request.operation!r}"
            )
        result = yield from call_next(request)
        return result


class MetricsMiddleware:
    """Record per-operation RPC latency and outcomes into a registry.

    Placed outermost in a chain it times the whole server-side handling
    (middlewares + handler, in simulated time) of every request and counts
    outcomes: ``ok``, ``error`` (:class:`ServiceError`, including deadline
    sheds), ``fault`` (protocol-level :class:`ServiceFault`).  Series:

    * ``rpc.latency{service,operation}`` — histogram, seconds;
    * ``rpc.requests{service,operation,outcome}`` — counter.
    """

    def __init__(self, registry, service: str):
        self.registry = registry
        self.service = service

    def __call__(self, request: ServiceRequest, call_next):
        start = request.sim.now
        outcome = "ok"
        try:
            result = yield from call_next(request)
        except ServiceFault:
            outcome = "fault"
            raise
        except ServiceError:
            outcome = "error"
            raise
        finally:
            registry = self.registry
            registry.counter(
                "rpc.requests",
                service=self.service,
                operation=request.operation,
                outcome=outcome,
            ).inc()
            registry.histogram(
                "rpc.latency",
                service=self.service,
                operation=request.operation,
            ).observe(request.sim.now - start)
        return result


class ExactlyOnceMiddleware:
    """Apply each idempotent call once; replay its result to retries.

    An idempotent call (``RequestClient.call(..., idempotent=True)``)
    carries two numbers in ``request.meta``: its ``serial``, minted once
    per logical call and reused by every retry, and the client's
    ``floor``, the lowest serial it still has in flight.  Records are
    keyed on (caller host, reply service, serial):

    * a serial with a record gets the stored result back, counted under
      the counter its operation family registered via
      :meth:`count_replays`;
    * a floor above the caller's last one drops every record below it —
      the client will never re-send those serials;
    * a serial below the floor with no record is a stale duplicate (its
      caller already has its answer, or gave up on it): it is answered
      with a non-retryable error and not applied.

    This is RIFL's "first incomplete sequence number" (Lee et al., SOSP
    2015).  No time window is involved: message delays are fixed at send
    time, so a delayed duplicate can land after any window has expired,
    while the floor needs no clock.  Each caller's records span at most
    the serials between its oldest in-flight call and its newest landed
    one.  Only successful results are recorded, so a write that failed
    stays retryable.  Sits innermost, after auth and deadline shedding.

    The lookup and the record bracket the handler, so a handler behind
    an idempotent call must complete without yielding: one that held the
    clock would let a retry pass the lookup and apply the write twice
    (``tests/services/test_idempotent_handlers.py`` drives each one).
    """

    def __init__(self):
        #: (caller host, reply service) -> serial -> recorded result
        self.records: dict[tuple[str, str], dict[int, Any]] = {}
        #: (caller host, reply service) -> highest floor seen
        self.floors: dict[tuple[str, str], int] = {}
        self._replay_counters: dict[str, tuple] = {}

    def count_replays(self, family: str, name: str, metrics) -> None:
        """Count replays of ``{family}.*`` operations as counter ``name``
        in ``metrics`` (``None``: not counted)."""
        self._replay_counters[family] = (metrics, name)

    def __call__(self, request: ServiceRequest, call_next):
        if "serial" not in request.meta:
            return call_next(request)       # not idempotent: no extra stage
        return self._once(request, call_next)

    def _once(self, request: ServiceRequest, call_next):
        serial = request.meta["serial"]
        caller = (request.caller_host, request.reply_service)
        records = self.records.setdefault(caller, {})
        floor = self.floors.get(caller, 0)
        if request.meta["floor"] > floor:
            floor = self.floors[caller] = request.meta["floor"]
            for done in [s for s in records if s < floor]:
                del records[done]
        if serial in records:
            metrics, name = self._replay_counters.get(
                request.operation.split(".", 1)[0], (None, "")
            )
            if metrics is not None:
                metrics.counter(name).inc()
            return records[serial]
        if serial < floor:
            raise ServiceError(
                f"{request.operation}: stale duplicate of call {serial} "
                f"(caller floor {floor})"
            )
        result = yield from call_next(request)
        records[serial] = result
        return result

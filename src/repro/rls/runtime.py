"""Assembly of the Replica Location Service inside a `DataGrid`.

:class:`RlsConfig` is the opt-in knob (``DataGrid(..., rls=RlsConfig())``)
and :class:`RlsRuntime` is what the grid builds from it: one Local
Replica Catalog per site (an indexed `GdmpCatalog` behind the site's own
``catalog.*`` endpoint), the `RliService` on the index host, one
:class:`DigestPusher` standing process per site, and the per-site
:class:`~repro.rls.router.RlsCatalogProxy` routers the clients use.

The runtime also carries the *ground truth* helpers experiments verify
against — with no central catalog, "what does the grid hold?" is the
union over the per-site LRC backends, read directly in memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..simulation.kernel import Interrupt, Process, Simulator
from ..gdmp.request_manager import REQUEST_MESSAGE_SIZE, RequestClient
from .digest import (
    DigestConfig,
    DigestSource,
    ReplicaLocationIndex,
    digest_wire_size,
)
from .rli import RliService

__all__ = ["RlsConfig", "DigestPusher", "RlsRuntime"]


@dataclass(frozen=True)
class RlsConfig:
    """Opt-in configuration for the two-tier replica location service."""

    #: digest cadence and bloom sizing (shared by every site)
    digest: DigestConfig = field(default_factory=DigestConfig)
    #: host carrying the RLI (defaults to the grid's catalog host)
    rli_host: Optional[str] = None
    #: deadline on RLI lookups and LRC probes — a black-holed endpoint
    #: costs a timeout and a fallback, never a hung lookup
    lookup_timeout: float = 30.0
    #: client-side proxy caching (as for the central CatalogProxy)
    cache: bool = True
    #: stagger first pushes across sites (fraction of a period apart)
    #: so ten sites don't all push in the same instant
    stagger: bool = True


class DigestPusher:
    """Standing per-site process pushing soft-state digests to the RLI.

    Every period the site's :class:`DigestSource` builds the next full
    or delta digest and pushes it over ``rli.push_digest``; the source
    is only acknowledged when the index replies, so digests lost to
    faults (black-holed RLI, dropped messages) are simply folded into
    the next attempt.  Soft state: nothing here retries in a tight loop
    or escalates — convergence comes from the cadence itself.
    """

    def __init__(
        self,
        sim: Simulator,
        client: RequestClient,
        rli_host: str,
        source: DigestSource,
        phase: float = 0.0,
        metrics=None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.rli_host = rli_host
        self.source = source
        self.phase = phase
        self.metrics = metrics
        self.process: Optional[Process] = None
        self.stats = {
            "pushes": 0,
            "pushes_full": 0,
            "pushes_delta": 0,
            "pushes_lost": 0,
            "bytes_pushed": 0,
        }

    def start(self) -> Process:
        self.process = self.sim.spawn(
            self._run(), name=f"rls-digest-pusher@{self.source.site}"
        )
        return self.process

    def stop(self) -> None:
        if self.process is not None and self.process.is_alive:
            self.process.interrupt("rls-shutdown")

    def running(self) -> bool:
        return self.process is not None and self.process.is_alive

    def push_once(self):
        """Generator: build, push, and (on success) acknowledge one digest."""
        payload = self.source.next_digest()
        size = digest_wire_size(payload)
        period = self.source.config.period
        try:
            reply = yield self.client.call(
                self.rli_host,
                "rli.push_digest",
                payload,
                size=REQUEST_MESSAGE_SIZE + size,
                timeout=max(period * 0.5, 1.0),
            )
        except Interrupt:
            raise
        except Exception:
            # lost push (down/black-holed index): soft state, the next
            # period's digest carries everything this one did
            self.stats["pushes_lost"] += 1
            self._count("lost")
            return False
        self.source.ack(payload)
        self.stats["pushes"] += 1
        self.stats["bytes_pushed"] += size
        self.stats[f"pushes_{payload['kind']}"] += 1
        self._count(payload["kind"], size)
        return True

    def _run(self):
        try:
            if self.phase > 0:
                yield self.sim.timeout(self.phase)
            while True:
                yield from self.push_once()
                yield self.sim.timeout(self.source.config.period)
        except Interrupt:
            return

    def _count(self, kind: str, size: int = 0) -> None:
        if self.metrics is None:
            return
        self.metrics.counter(
            "rls.digest.pushes", site=self.source.site, kind=kind
        ).inc()
        if size:
            self.metrics.counter(
                "rls.digest.bytes", site=self.source.site
            ).inc(size)


class RlsRuntime:
    """Everything the grid assembled for RLS mode, in one place."""

    def __init__(
        self,
        config: RlsConfig,
        rli_host: str,
        rli_service: RliService,
    ) -> None:
        self.config = config
        self.rli_host = rli_host
        self.rli_service = rli_service
        #: site name -> that site's LRC backend (GdmpCatalog)
        self.backends: Dict[str, object] = {}
        #: site name -> that site's ReplicaCatalogService
        self.services: Dict[str, object] = {}
        self.sources: Dict[str, DigestSource] = {}
        self.pushers: Dict[str, DigestPusher] = {}
        self.started = False

    @property
    def index(self) -> ReplicaLocationIndex:
        return self.rli_service.index

    def start(self) -> None:
        """Spawn the standing digest pushers (idempotent)."""
        if self.started:
            return
        self.started = True
        for pusher in self.pushers.values():
            pusher.start()

    def stop(self) -> None:
        for pusher in self.pushers.values():
            pusher.stop()
        self.started = False

    # -- ground truth (direct memory reads for experiment verification) ----

    def holders(self, lfn: str) -> List[str]:
        """Sites whose LRC records a replica of ``lfn`` (the union the
        index approximates)."""
        return [
            site
            for site, backend in self.backends.items()
            if backend.lfn_exists(lfn)
        ]

    def all_lfns(self) -> List[str]:
        names: set[str] = set()
        for backend in self.backends.values():
            names.update(backend.list_lfns())
        return sorted(names)

    def total_entries(self) -> int:
        return sum(len(b.list_lfns()) for b in self.backends.values())

    def push_stats(self) -> Dict[str, int]:
        totals = {
            "pushes": 0,
            "pushes_full": 0,
            "pushes_delta": 0,
            "pushes_lost": 0,
            "bytes_pushed": 0,
        }
        for pusher in self.pushers.values():
            for key in totals:
                totals[key] += pusher.stats[key]
        return totals

    def fingerprint(self) -> str:
        """Deterministic digest of index state + push accounting."""
        pushes = ",".join(
            f"{site}:{self.pushers[site].stats['pushes']}"
            f"/{self.pushers[site].stats['pushes_lost']}"
            for site in sorted(self.pushers)
        )
        return self.index.fingerprint() + "##" + pushes

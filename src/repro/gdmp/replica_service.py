"""The Replica Catalog Service: a central catalog accessed over the WAN.

§4.2: "The current Globus Replica Catalog implementation uses the LDAP
protocol to interface with the database backend.  We do not currently
distribute or replicate the replica catalog but instead, for simplicity,
use a central replica catalog and a single LDAP server."

:class:`ReplicaCatalogService` hosts the catalog (the LDAP server site);
:class:`CatalogProxy` is what every site's GDMP uses — identical API, each
call paying one authenticated round trip to the catalog host.

Two additions take the WAN out of the per-file cost ("Grid Data Management
in Action" found exactly this catalog traffic to be the first production
bottleneck):

* **batched envelopes** — ``*_bulk`` operations carry N registrations or
  lookups in one request message (sized as one header plus a per-item
  increment), so a transfer set costs one round trip per *set*, not per
  file;
* **a client-side location cache** — each site's proxy remembers
  ``info``/``locations`` answers, invalidated by that site's own writes
  and by catalog-replication applies (see
  :mod:`repro.gdmp.catalog_replication`).  Reads of files another site
  changed meanwhile may be one staleness-window old — the same window the
  replicated catalog already admits — and the §4.3 alternate-replica
  failover absorbs a stale source going away.
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.gdmp_catalog import GdmpCatalog, LogicalFileInfo
from repro.catalog.replica_catalog import CatalogError
from repro.gdmp.request_manager import (
    REQUEST_MESSAGE_SIZE,
    AuthenticatedRequest,
    GdmpError,
    RemoteError,
    RequestClient,
    RequestServer,
)
from repro.simulation.kernel import Process

__all__ = ["ReplicaCatalogService", "CatalogProxy", "BULK_ITEM_SIZE"]

SERVICE_NAME = "replica-catalog"

#: Wire-size increment per batched item: one envelope carrying N
#: registrations costs a header plus N compact records, far below N full
#: request messages.
BULK_ITEM_SIZE = 96

#: Histogram bounds for bulk-envelope batch sizes (items per envelope).
_BATCH_BOUNDS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
)


class ReplicaCatalogService:
    """Hosts the central :class:`GdmpCatalog` behind the request manager."""

    def __init__(self, server: RequestServer, catalog: Optional[GdmpCatalog] = None,
                 metrics=None):
        self.catalog = catalog or GdmpCatalog()
        self.server = server
        #: optional MetricsRegistry: bulk batch-size histograms per op
        self.metrics = metrics
        #: called with (operation, payload) after each successful write —
        #: the hook :mod:`repro.gdmp.catalog_replication` propagates from.
        self.write_listeners: list = []
        #: writes arrive as idempotent calls: the request server's
        #: exactly-once middleware replays a retried write's result
        #: instead of re-applying it (no duplicate LFNs from a retried
        #: ``publish``, no double notifications)
        server.exactly_once.count_replays(
            "catalog", "catalog.txn_replays", metrics
        )
        for op in (
            "publish",
            "publish_bulk",
            "add_replica",
            "add_replica_bulk",
            "adopt",
            "adopt_bulk",
            "remove_replica",
            "remove_replica_bulk",
            "locations",
            "locations_bulk",
            "info",
            "info_bulk",
            "search",
            "site_files",
            "lfn_exists",
            "list_lfns",
        ):
            server.register(f"catalog.{op}", getattr(self, f"_op_{op}"))

    # Handlers are generators (the request manager spawns them); catalog
    # operations themselves are in-memory and immediate.
    def _observe_batch(self, op: str, n_items: int) -> None:
        if self.metrics is not None:
            self.metrics.histogram(
                "catalog.bulk.batch_size", bounds=_BATCH_BOUNDS, op=op
            ).observe(n_items)

    def _notify_write(self, operation: str, payload) -> None:
        for listener in self.write_listeners:
            listener(operation, payload)

    def _op_publish(self, request: AuthenticatedRequest):
        p = request.payload
        try:
            lfn = self.catalog.publish(
                p["site"],
                size=p["size"],
                modified=p["modified"],
                crc=p["crc"],
                lfn=p.get("lfn"),
                **p.get("attributes", {}),
            )
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        self._notify_write("publish", {**p, "lfn": lfn})
        return lfn
        yield  # pragma: no cover - marks this function as a generator

    def _op_publish_bulk(self, request: AuthenticatedRequest):
        p = request.payload
        self._observe_batch("publish", len(p["files"]))
        try:
            lfns = self.catalog.publish_bulk(p["site"], p["files"])
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        # propagate with the generated LFNs filled in, so replicas replay
        # the registration byte-for-byte
        files = [
            {**item, "lfn": lfn} for item, lfn in zip(p["files"], lfns)
        ]
        self._notify_write(
            "publish_bulk", {"site": p["site"], "files": files, "lfns": lfns}
        )
        return lfns
        yield  # pragma: no cover

    def _op_add_replica(self, request: AuthenticatedRequest):
        p = request.payload
        try:
            self.catalog.add_replica(p["lfn"], p["site"])
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        self._notify_write("add_replica", p)
        return True
        yield  # pragma: no cover

    def _op_add_replica_bulk(self, request: AuthenticatedRequest):
        p = request.payload
        self._observe_batch("add_replica", len(p["lfns"]))
        try:
            self.catalog.add_replicas(list(p["lfns"]), p["site"])
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        self._notify_write("add_replica_bulk", p)
        return True
        yield  # pragma: no cover

    def _op_adopt(self, request: AuthenticatedRequest):
        p = request.payload
        try:
            self.catalog.adopt(
                p["lfn"],
                p["site"],
                size=p["size"],
                modified=p["modified"],
                crc=p["crc"],
                attributes=p.get("attributes"),
            )
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        self._notify_write("adopt", p)
        return True
        yield  # pragma: no cover

    def _op_adopt_bulk(self, request: AuthenticatedRequest):
        p = request.payload
        self._observe_batch("adopt", len(p["files"]))
        try:
            self.catalog.adopt_bulk(list(p["files"]), p["site"])
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        self._notify_write(
            "adopt_bulk", {**p, "lfns": [item["lfn"] for item in p["files"]]}
        )
        return True
        yield  # pragma: no cover

    def _op_remove_replica(self, request: AuthenticatedRequest):
        p = request.payload
        try:
            self.catalog.remove_replica(p["lfn"], p["site"])
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        self._notify_write("remove_replica", p)
        return True
        yield  # pragma: no cover

    def _op_remove_replica_bulk(self, request: AuthenticatedRequest):
        p = request.payload
        self._observe_batch("remove_replica", len(p["lfns"]))
        try:
            self.catalog.remove_replicas(list(p["lfns"]), p["site"])
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        self._notify_write("remove_replica_bulk", p)
        return True
        yield  # pragma: no cover

    def _op_locations(self, request: AuthenticatedRequest):
        return self.catalog.locations(request.payload["lfn"])
        yield  # pragma: no cover

    def _op_locations_bulk(self, request: AuthenticatedRequest):
        self._observe_batch("locations", len(request.payload["lfns"]))
        return self.catalog.locations_bulk(list(request.payload["lfns"]))
        yield  # pragma: no cover

    def _op_info(self, request: AuthenticatedRequest):
        try:
            return self.catalog.info(request.payload["lfn"])
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        yield  # pragma: no cover

    def _op_info_bulk(self, request: AuthenticatedRequest):
        self._observe_batch("info", len(request.payload["lfns"]))
        try:
            return self.catalog.info_bulk(
                list(request.payload["lfns"]),
                missing_ok=request.payload.get("missing_ok", False),
            )
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        yield  # pragma: no cover

    def _op_search(self, request: AuthenticatedRequest):
        try:
            return self.catalog.search(request.payload["filter"])
        except CatalogError as exc:
            raise GdmpError(str(exc)) from exc
        yield  # pragma: no cover

    def _op_site_files(self, request: AuthenticatedRequest):
        return self.catalog.site_files(request.payload["site"])
        yield  # pragma: no cover

    def _op_lfn_exists(self, request: AuthenticatedRequest):
        return self.catalog.lfn_exists(request.payload["lfn"])
        yield  # pragma: no cover

    def _op_list_lfns(self, request: AuthenticatedRequest):
        return self.catalog.list_lfns()
        yield  # pragma: no cover


class _NegativeEntry:
    """Cached proof of absence: the remote application error an ``info``
    lookup produced for an unknown LFN.  Served back without an RPC
    until a write to that LFN invalidates it."""

    __slots__ = ("error",)

    def __init__(self, error: RemoteError) -> None:
        self.error = error


class CatalogProxy:
    """Site-side view of the central catalog.  Every method returns a
    :class:`Process` (a network round trip to the catalog host — or an
    immediate local completion on a location-cache hit).

    Negative lookups are cached too: an ``info`` miss (unknown LFN) and a
    ``lfn_exists`` answer are remembered until a write to that LFN
    invalidates them, so repeated probes for absent files — which the
    RLI lookup path amplifies — cost no envelopes."""

    def __init__(
        self,
        client: RequestClient,
        catalog_host: str,
        cache: bool = True,
    ):
        self.client = client
        self.catalog_host = catalog_host
        #: reads go here; catalog replication points it at a nearer copy
        self.read_host = catalog_host
        #: client-side info/locations cache toggle (experiments measuring
        #: raw deployment latency switch it off)
        self.cache_enabled = cache
        self._cache: dict[tuple[str, str], object] = {}
        self.stats = {
            "cache_hits": 0,
            "cache_misses": 0,
            "negative_hits": 0,
            "envelopes": 0,
            "failure_invalidations": 0,
        }

    # -- plumbing -------------------------------------------------------------
    def _call(self, host: str, operation: str, payload, n_items: int = 0,
              idempotent: bool = False):
        self.stats["envelopes"] += 1

        def guarded():
            # The RPC process is created *inside* the guard, so the guard
            # is already waiting on it when it starts: a call that fails
            # synchronously (open circuit breaker, fail-fast to a known-
            # down host) is observed here instead of crashing the sim as
            # an unwaited process.
            try:
                result = yield self.client.call(
                    host,
                    operation,
                    payload,
                    size=REQUEST_MESSAGE_SIZE + BULK_ITEM_SIZE * n_items,
                    idempotent=idempotent,
                )
            except RemoteError:
                # The server processed the request and answered with an
                # application fault: the host is healthy and cached
                # entries are still trustworthy.
                raise
            except Exception:
                # A failed catalog RPC means the catalog host (or the path
                # to it) is suspect: a cached answer must not outlive the
                # divergence window of a crashed or partitioned replica.
                if self._cache:
                    self._cache.clear()
                    self.stats["failure_invalidations"] += 1
                raise
            return result

        return self.client.sim.spawn(
            guarded(), name=f"catalog-guard {operation}"
        )

    def _write(self, operation: str, payload, n_items: int = 0):
        """An idempotent write to the primary catalog."""
        return self._call(self.catalog_host, operation, payload, n_items,
                          idempotent=True)

    def _immediate(self, value) -> Process:
        """A completed-at-now process carrying a cached value."""

        def hit():
            return value
            yield  # pragma: no cover - generator marker

        return self.client.sim.spawn(hit(), name="catalog-cache-hit")

    def _immediate_error(self, error: Exception) -> Process:
        """A completed-at-now process re-raising a cached negative answer."""

        def hit():
            raise error
            yield  # pragma: no cover - generator marker

        return self.client.sim.spawn(hit(), name="catalog-negative-hit")

    def _cache_get(self, key: tuple[str, str]):
        if not self.cache_enabled:
            return None
        value = self._cache.get(key)
        if value is None:
            self.stats["cache_misses"] += 1
        else:
            self.stats["cache_hits"] += 1
        return value

    def _cache_put(self, key: tuple[str, str], value) -> None:
        if self.cache_enabled:
            self._cache[key] = value

    def invalidate(self, lfn: Optional[str] = None) -> None:
        """Drop cached answers for one LFN (or all of them).

        Called after this site's own writes, and by the catalog-replication
        layer when a propagated write is applied locally.
        """
        if lfn is None:
            self._cache.clear()
        else:
            self._cache.pop(("info", lfn), None)
            self._cache.pop(("locations", lfn), None)
            self._cache.pop(("exists", lfn), None)

    # -- writes (always to the primary; invalidate on completion) -----------------
    def publish(
        self,
        site: str,
        size: float,
        modified: float,
        crc: int,
        lfn: Optional[str] = None,
        **attributes,
    ) -> Process:
        """Register a new logical file and its first replica (one WAN call)."""

        def run():
            result = yield self._write(
                "catalog.publish",
                {
                    "site": site,
                    "size": size,
                    "modified": modified,
                    "crc": crc,
                    "lfn": lfn,
                    "attributes": attributes,
                },
            )
            self.invalidate(result)
            return result

        return self.client.sim.spawn(run(), name=f"catalog-publish {lfn}")

    def publish_bulk(self, site: str, files: list[dict]) -> Process:
        """Register a whole file set in one envelope carrying N
        registrations.  Returns the list of LFNs."""

        def run():
            lfns = yield self._write(
                "catalog.publish_bulk",
                {"site": site, "files": files},
                n_items=len(files),
            )
            for fresh in lfns:
                self.invalidate(fresh)
            return lfns

        return self.client.sim.spawn(
            run(), name=f"catalog-publish-bulk x{len(files)}"
        )

    def add_replica(self, lfn: str, site: str) -> Process:
        """Record an additional replica of a logical file."""

        def run():
            result = yield self._write(
                "catalog.add_replica",
                {"lfn": lfn, "site": site},
            )
            self.invalidate(lfn)
            return result

        return self.client.sim.spawn(run(), name=f"catalog-add-replica {lfn}")

    def add_replicas(self, lfns: list[str], site: str) -> Process:
        """Record a batch of new replicas at one site in one envelope —
        the flush of a transfer set's deferred registrations."""

        def run():
            result = yield self._write(
                "catalog.add_replica_bulk",
                {"lfns": list(lfns), "site": site},
                n_items=len(lfns),
            )
            for lfn in lfns:
                self.invalidate(lfn)
            return result

        return self.client.sim.spawn(
            run(), name=f"catalog-add-replicas x{len(lfns)}"
        )

    def remove_replica(self, lfn: str, site: str) -> Process:
        """Remove a replica record (retiring the LFN when it was the last)."""

        def run():
            result = yield self._write(
                "catalog.remove_replica",
                {"lfn": lfn, "site": site},
            )
            self.invalidate(lfn)
            return result

        return self.client.sim.spawn(run(), name=f"catalog-remove-replica {lfn}")

    def remove_replicas(self, lfns: list[str], site: str) -> Process:
        """Remove a batch of replica records in one envelope."""

        def run():
            result = yield self._write(
                "catalog.remove_replica_bulk",
                {"lfns": list(lfns), "site": site},
                n_items=len(lfns),
            )
            for lfn in lfns:
                self.invalidate(lfn)
            return result

        return self.client.sim.spawn(
            run(), name=f"catalog-remove-replicas x{len(lfns)}"
        )

    # -- reads (served by read_host; info/locations cached) -----------------------
    def locations(self, lfn: str) -> Process:
        """All physical locations of a logical file."""
        cached = self._cache_get(("locations", lfn))
        if cached is not None:
            return self._immediate([dict(loc) for loc in cached])

        def run():
            result = yield self._call(
                self.read_host, "catalog.locations", {"lfn": lfn}
            )
            # snapshot copies: callers may mutate the dicts they receive
            self._cache_put(
                ("locations", lfn), tuple(dict(loc) for loc in result)
            )
            return result

        return self.client.sim.spawn(run(), name=f"catalog-locations {lfn}")

    def info(self, lfn: str) -> Process:
        """Metadata and locations of a logical file."""
        cached = self._cache_get(("info", lfn))
        if isinstance(cached, _NegativeEntry):
            self.stats["negative_hits"] += 1
            return self._immediate_error(cached.error)
        if cached is not None:
            return self._immediate(cached)

        def run():
            try:
                result = yield self._call(
                    self.read_host, "catalog.info", {"lfn": lfn}
                )
            except RemoteError as exc:
                # An application-level "unknown logical file" is a stable
                # answer until someone publishes it: cache the absence.
                self._cache_put(("info", lfn), _NegativeEntry(exc))
                raise
            if isinstance(result, LogicalFileInfo):
                self._cache_put(("info", lfn), result)
            return result

        return self.client.sim.spawn(run(), name=f"catalog-info {lfn}")

    def info_bulk(self, lfns: list[str]) -> Process:
        """Metadata and locations for a whole file set: cached entries are
        served locally, the misses travel in one envelope, and the answers
        warm the cache for the per-file pipeline that follows."""
        lfns = list(lfns)

        def run():
            known = {}
            missing = []
            for lfn in lfns:
                cached = self._cache_get(("info", lfn))
                if cached is not None and not isinstance(cached, _NegativeEntry):
                    known[lfn] = cached
                else:
                    # negative entries re-probe: the bulk contract raises
                    # for unknown LFNs, so let the server say so
                    missing.append(lfn)
            if missing:
                fetched = yield self._call(
                    self.read_host,
                    "catalog.info_bulk",
                    {"lfns": missing},
                    n_items=len(missing),
                )
                for info in fetched:
                    known[info.lfn] = info
                    self._cache_put(("info", info.lfn), info)
            return [known[lfn] for lfn in lfns]

        return self.client.sim.spawn(
            run(), name=f"catalog-info-bulk x{len(lfns)}"
        )

    def locations_bulk(self, lfns: list[str]) -> Process:
        """Physical locations for a whole file set in one envelope."""
        lfns = list(lfns)

        def run():
            result = yield self._call(
                self.read_host,
                "catalog.locations_bulk",
                {"lfns": lfns},
                n_items=len(lfns),
            )
            for lfn, locs in result.items():
                self._cache_put(
                    ("locations", lfn), tuple(dict(loc) for loc in locs)
                )
            return result

        return self.client.sim.spawn(
            run(), name=f"catalog-locations-bulk x{len(lfns)}"
        )

    def search(self, filter_text: str) -> Process:
        """Logical files matching an LDAP filter over their metadata."""
        return self._call(self.read_host, "catalog.search", {"filter": filter_text})

    def site_files(self, site: str) -> Process:
        """All LFNs a site holds (failure-recovery catalog diff)."""
        return self._call(self.read_host, "catalog.site_files", {"site": site})

    def lfn_exists(self, lfn: str) -> Process:
        """Whether the logical file name is taken (both answers cached)."""
        cached = self._cache_get(("exists", lfn))
        if cached is not None:
            if cached is False:
                self.stats["negative_hits"] += 1
            return self._immediate(cached)

        def run():
            result = yield self._call(
                self.read_host, "catalog.lfn_exists", {"lfn": lfn}
            )
            self._cache_put(("exists", lfn), bool(result))
            return result

        return self.client.sim.spawn(run(), name=f"catalog-lfn-exists {lfn}")

    def list_lfns(self) -> Process:
        """Every logical file name in the catalog."""
        return self._call(self.read_host, "catalog.list_lfns", {})

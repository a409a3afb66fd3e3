"""The chunk directory: manifests, chunk locations, and the ``chunk.*`` bus ops.

The upload protocol is DFS-style and crash-safe:

``chunk.init``
    Registers (or replays) the object's manifest, computes the seeded
    deterministic site-disjoint placement, and answers with the per-chunk
    target sites plus which chunks actually need uploading — chunks whose
    id already has a live replica anywhere (content-address dedup across
    objects) are skipped.
``chunk.commit``
    After the per-chunk transfers verified, flips the manifest to
    ``committed``, records the chunk replica locations, bumps chunk
    refcounts, and registers the manifest record in the replica catalog
    *exactly once* — the commit is an idempotent call, so the request
    server's :class:`~repro.services.middleware.ExactlyOnceMiddleware`
    returns the stored verdict to a retried commit, and the catalog
    write itself rides the idempotent ``adopt`` path, so no replay can
    double-register.
``chunk.manifest`` / ``chunk.list``
    Read side: manifest + current replica locations; the committed
    object inventory (what the scrub planner walks).
``chunk.repair_done``
    The repair worker's commit: replica locations lost to scrubbed-out
    corruption are dropped and the re-encoded replacements recorded,
    idempotently.

All state lives in :class:`ChunkDirectory`, a plain deterministic
in-memory structure with a canonical ``fingerprint()`` the determinism
gates diff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.chunks.manifest import Manifest, build_manifest
from repro.chunks.placement import place_stripe
from repro.gdmp.request_manager import (
    REQUEST_MESSAGE_SIZE,
    AuthenticatedRequest,
    GdmpError,
    RequestClient,
    RequestServer,
)
from repro.simulation.kernel import Process

__all__ = ["ChunkDirectory", "ChunkDirectoryService", "ChunkDirectoryProxy"]

#: wire-size increment per chunk entry in init/commit/manifest envelopes
CHUNK_ITEM_SIZE = 96


@dataclass
class _DirectoryStats:
    inits: int = 0
    commits: int = 0
    recommits: int = 0
    dedup_chunks: int = 0
    repairs: int = 0
    repaired_chunks: int = 0
    evicted_replicas: int = 0


class ChunkDirectory:
    """Deterministic in-memory manifest + location state."""

    def __init__(
        self,
        placement_sites: list[str],
        salt: int = 0,
        register: Optional[Callable[[Manifest], None]] = None,
    ):
        if not placement_sites:
            raise ValueError("need at least one placement site")
        self.placement_sites = sorted(set(placement_sites))
        self.salt = salt
        #: exactly-once catalog hook (e.g. GdmpCatalog.adopt, idempotent)
        self.register = register
        self.manifests: dict[str, Manifest] = {}
        #: object -> "uploading" | "committed"
        self.states: dict[str, str] = {}
        #: chunk_id -> sites holding a (believed-good) replica
        self.locations: dict[str, set[str]] = {}
        #: chunk_id -> committed manifests referencing it (dedup refcount)
        self.refcounts: dict[str, int] = {}
        self._registered: set[str] = set()
        self.stats = _DirectoryStats()

    # -- write path ---------------------------------------------------------
    def init(self, object_name: str, size: float, content_key: str,
             k: int, m: int) -> tuple[Manifest, dict[str, str], list[str]]:
        """Start (or resume) an upload.  Returns ``(manifest, targets,
        needed)``: target site per chunk id, and the chunk ids that still
        need a transfer (everything without a live replica)."""
        existing = self.manifests.get(object_name)
        if existing is not None:
            if (existing.content_key != content_key
                    or existing.size != size
                    or existing.k != k or existing.m != m):
                raise GdmpError(
                    f"object {object_name!r} already registered with a "
                    "different shape/content"
                )
            manifest = existing
        else:
            manifest, _ = build_manifest(object_name, size, content_key, k, m)
            self.manifests[object_name] = manifest
            self.states[object_name] = "uploading"
        placement = place_stripe(
            object_name, self.placement_sites, k + m, self.salt
        )
        targets = {
            spec.chunk_id: placement[spec.index]
            for spec in manifest.chunks
        }
        needed = [
            spec.chunk_id for spec in manifest.chunks
            if not self.locations.get(spec.chunk_id)
        ]
        self.stats.inits += 1
        self.stats.dedup_chunks += len(manifest.chunks) - len(needed)
        return manifest, targets, needed

    def commit(self, object_name: str,
               placements: list[tuple[str, str]]) -> dict:
        """Record verified chunk replicas and seal the manifest."""
        manifest = self.manifests.get(object_name)
        if manifest is None:
            raise GdmpError(f"no manifest for {object_name!r}")
        known = {spec.chunk_id for spec in manifest.chunks}
        for chunk_id, site in placements:
            if chunk_id not in known:
                raise GdmpError(
                    f"chunk {chunk_id!r} is not part of {object_name!r}"
                )
            self.locations.setdefault(chunk_id, set()).add(site)
        first = self.states.get(object_name) != "committed"
        if first:
            self.states[object_name] = "committed"
            for spec in manifest.chunks:
                self.refcounts[spec.chunk_id] = (
                    self.refcounts.get(spec.chunk_id, 0) + 1
                )
            self.stats.commits += 1
            if self.register is not None and object_name not in self._registered:
                self.register(manifest)
                self._registered.add(object_name)
        else:
            self.stats.recommits += 1
        return {
            "state": self.states[object_name],
            "replicas": sum(
                len(self.locations.get(spec.chunk_id, ()))
                for spec in manifest.chunks
            ),
            "first_commit": first,
        }

    def record_repair(self, object_name: str,
                      repaired: list[tuple[str, str]],
                      removed: list[tuple[str, str]]) -> dict:
        """The repair worker's location update (idempotent)."""
        manifest = self.manifests.get(object_name)
        if manifest is None:
            raise GdmpError(f"no manifest for {object_name!r}")
        known = {spec.chunk_id for spec in manifest.chunks}
        evicted = 0
        for chunk_id, site in removed:
            if chunk_id in known:
                holders = self.locations.get(chunk_id)
                if holders and site in holders:
                    holders.discard(site)
                    evicted += 1
        added = 0
        for chunk_id, site in repaired:
            if chunk_id not in known:
                raise GdmpError(
                    f"chunk {chunk_id!r} is not part of {object_name!r}"
                )
            holders = self.locations.setdefault(chunk_id, set())
            if site not in holders:
                holders.add(site)
                added += 1
        self.stats.repairs += 1
        self.stats.repaired_chunks += added
        self.stats.evicted_replicas += evicted
        return {"repaired": added, "evicted": evicted}

    # -- read path ----------------------------------------------------------
    def manifest_info(self, object_name: str) -> tuple[Manifest, dict, dict]:
        """Manifest, replica locations, and placement targets (the
        original site per chunk — where a repair must re-place it)."""
        manifest = self.manifests.get(object_name)
        if manifest is None:
            raise GdmpError(f"no manifest for {object_name!r}")
        locations = {
            spec.chunk_id: sorted(self.locations.get(spec.chunk_id, ()))
            for spec in manifest.chunks
        }
        placement = place_stripe(
            object_name, self.placement_sites,
            manifest.k + manifest.m, self.salt,
        )
        targets = {
            spec.chunk_id: placement[spec.index]
            for spec in manifest.chunks
        }
        return manifest, locations, targets

    def objects(self, state: Optional[str] = "committed") -> list[str]:
        return sorted(
            name for name, st in self.states.items()
            if state is None or st == state
        )

    def replica_count(self) -> int:
        return sum(len(holders) for holders in self.locations.values())

    def fingerprint(self) -> str:
        """Canonical directory state for the determinism gates."""
        lines = [
            "chunkdir "
            + " ".join(
                f"{k}={v}" for k, v in sorted(vars(self.stats).items())
            )
        ]
        for name in sorted(self.manifests):
            manifest = self.manifests[name]
            lines.append(
                f"{self.states.get(name, '?')} {manifest.repr_line()}"
            )
            for spec in manifest.chunks:
                holders = ",".join(
                    sorted(self.locations.get(spec.chunk_id, ()))
                ) or "-"
                lines.append(
                    f"  {spec.index} {spec.kind} {spec.chunk_id} @ {holders}"
                )
        return "\n".join(lines)


class ChunkDirectoryService:
    """``chunk.*`` operations on a site's request server.  The writes
    (init, commit, repair_done) arrive as idempotent calls, applied once
    by the server's exactly-once middleware."""

    def __init__(self, server: RequestServer, directory: ChunkDirectory,
                 *, metrics=None):
        self.server = server
        self.directory = directory
        self.metrics = metrics
        server.exactly_once.count_replays(
            "chunk", "chunks.txn_replays", metrics
        )
        for op in ("init", "commit", "manifest", "list", "repair_done"):
            server.register(f"chunk.{op}", getattr(self, f"_op_{op}"))
        if metrics is not None:
            metrics.add_collector(self._collect)

    def _count(self, op: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("chunks.directory", op=op).inc()

    def _collect(self, registry) -> None:
        directory = self.directory
        states = {"uploading": 0, "committed": 0}
        for state in directory.states.values():
            states[state] = states.get(state, 0) + 1
        for state, value in sorted(states.items()):
            registry.gauge("chunks.objects", state=state).set(value)
        registry.gauge("chunks.unique_chunks").set(
            len([c for c, holders in directory.locations.items() if holders])
        )
        registry.gauge("chunks.replicas").set(directory.replica_count())

    # -- handlers -----------------------------------------------------------
    def _op_init(self, request: AuthenticatedRequest):
        p = request.payload
        manifest, targets, needed = self.directory.init(
            p["object"], p["size"], p["content_key"], p["k"], p["m"]
        )
        self._count("init")
        return {
            "manifest": manifest.to_wire(),
            "targets": targets,
            "needed": needed,
        }
        yield  # pragma: no cover - generator marker

    def _op_commit(self, request: AuthenticatedRequest):
        p = request.payload
        result = self.directory.commit(
            p["object"], [tuple(item) for item in p["placements"]]
        )
        self._count("commit")
        return result
        yield  # pragma: no cover

    def _op_manifest(self, request: AuthenticatedRequest):
        manifest, locations, targets = self.directory.manifest_info(
            request.payload["object"]
        )
        self._count("manifest")
        return {
            "manifest": manifest.to_wire(),
            "locations": locations,
            "targets": targets,
        }
        yield  # pragma: no cover

    def _op_list(self, request: AuthenticatedRequest):
        state = request.payload.get("state", "committed")
        return self.directory.objects(state)
        yield  # pragma: no cover

    def _op_repair_done(self, request: AuthenticatedRequest):
        p = request.payload
        result = self.directory.record_repair(
            p["object"],
            [tuple(item) for item in p.get("repaired", ())],
            [tuple(item) for item in p.get("removed", ())],
        )
        self._count("repair_done")
        return result
        yield  # pragma: no cover


class ChunkDirectoryProxy:
    """Site-side client of the directory (one authenticated RPC each)."""

    def __init__(self, client: RequestClient, directory_host: str):
        self.client = client
        self.directory_host = directory_host

    def _call(self, operation: str, payload: dict,
              n_items: int = 0, idempotent: bool = False) -> Process:
        return self.client.call(
            self.directory_host,
            operation,
            payload,
            size=REQUEST_MESSAGE_SIZE + CHUNK_ITEM_SIZE * n_items,
            idempotent=idempotent,
        )

    def init(self, object_name: str, size: float, content_key: str,
             k: int, m: int) -> Process:
        return self._call("chunk.init", {
            "object": object_name, "size": size,
            "content_key": content_key, "k": k, "m": m,
        }, n_items=k + m, idempotent=True)

    def commit(self, object_name: str,
               placements: list[tuple[str, str]]) -> Process:
        return self._call("chunk.commit", {
            "object": object_name,
            "placements": [list(item) for item in placements],
        }, n_items=len(placements), idempotent=True)

    def manifest(self, object_name: str) -> Process:
        return self._call("chunk.manifest", {"object": object_name})

    def list_objects(self, state: str = "committed") -> Process:
        return self._call("chunk.list", {"state": state})

    def repair_done(self, object_name: str,
                    repaired: list[tuple[str, str]],
                    removed: list[tuple[str, str]]) -> Process:
        return self._call("chunk.repair_done", {
            "object": object_name,
            "repaired": [list(item) for item in repaired],
            "removed": [list(item) for item in removed],
        }, n_items=len(repaired) + len(removed), idempotent=True)

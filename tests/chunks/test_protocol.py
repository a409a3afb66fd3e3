"""The chunk upload/read protocol end to end on a small grid.

Covers the DFS-style write path (init -> per-chunk STOR + CKSM ->
commit), content-address dedup, the 553 "file exists" race in both its
benign and hostile forms, exactly-once commits, ranked failover on
the read path, and staging-debris hygiene.
"""

import pytest

from repro.chunks import (
    ChunkConfig,
    ChunkRuntime,
    ChunkStoreError,
    chunk_content_id,
    chunk_path,
)
from repro.gdmp import DataGrid, GdmpConfig

SITES = ["hub", "s1", "s2", "s3"]
SIZE = 9_000_000.0
K, M = 2, 1


@pytest.fixture
def grid():
    return DataGrid(
        [GdmpConfig(name) for name in SITES],
        catalog_host="hub",
        seed=2001,
    )


@pytest.fixture
def runtime(grid):
    return ChunkRuntime(grid, ChunkConfig(
        k=K, m=M, placement_sites=["s1", "s2", "s3"],
        directory_host="hub",
    ))


def _put(grid, runtime, name, key="key-1"):
    return grid.run(
        until=runtime.store("hub").put_object(name, SIZE, key, K, M)
    )


# -- write path -----------------------------------------------------------

def test_put_places_a_site_disjoint_stripe(grid, runtime):
    report = _put(grid, runtime, "obj")
    assert report.chunks_uploaded == K + M
    assert report.chunks_deduped == 0
    assert report.bytes_uploaded == pytest.approx(SIZE / K * (K + M))
    manifest = runtime.directory.manifests["obj"]
    holders = [
        next(iter(runtime.directory.locations[spec.chunk_id]))
        for spec in manifest.chunks
    ]
    assert len(set(holders)) == K + M
    # every replica is a real file with the chunk's content identity
    for spec, holder in zip(manifest.chunks, holders):
        stored = grid.site(holder).fs.stat(spec.path)
        assert stored.content_id == chunk_content_id(spec.chunk_id)
        assert stored.size == pytest.approx(SIZE / K)


def test_manifest_registered_in_replica_catalog(grid, runtime):
    _put(grid, runtime, "obj")
    assert grid.catalog_backend.lfn_exists("manifest:obj")
    info = grid.catalog_backend.info("manifest:obj")
    assert info.attributes["kind"] == "chunk-manifest"
    assert info.attributes["fingerprint"] == \
        runtime.directory.manifests["obj"].fingerprint


def test_shared_content_uploads_nothing(grid, runtime):
    _put(grid, runtime, "obj-a", key="shared")
    twin = _put(grid, runtime, "obj-b", key="shared")
    assert twin.chunks_uploaded == 0
    assert twin.chunks_deduped == K + M
    assert twin.bytes_uploaded == 0.0
    # both objects are committed and share replica records
    assert runtime.directory.objects() == ["obj-a", "obj-b"]
    a = runtime.directory.manifests["obj-a"]
    b = runtime.directory.manifests["obj-b"]
    assert [s.chunk_id for s in a.chunks] == [s.chunk_id for s in b.chunks]


def test_mismatched_reregistration_is_rejected(grid, runtime):
    _put(grid, runtime, "obj")
    with pytest.raises(ChunkStoreError):
        grid.run(until=runtime.store("hub").put_object(
            "obj", SIZE, "different-key", K, M
        ))


# -- the 553 "file exists" race -------------------------------------------

def _first_chunk_target(runtime, name="obj", key="key-1"):
    """(chunk_id, target site) for the object's first stripe member,
    computed before any upload (placement is a pure function)."""
    from repro.chunks.manifest import build_manifest
    from repro.chunks.placement import place_stripe
    manifest, _ = build_manifest(name, SIZE, key, K, M)
    targets = place_stripe(
        name, runtime.directory.placement_sites, K + M,
        runtime.directory.salt,
    )
    return manifest.chunks[0].chunk_id, targets[0]


def test_existing_good_replica_is_verified_not_retransferred(grid, runtime):
    cid, target = _first_chunk_target(runtime)
    # debris of a crashed upload: correct content, never committed
    grid.site(target).fs.create(
        chunk_path(cid), SIZE / K, content_id=chunk_content_id(cid)
    )
    report = _put(grid, runtime, "obj")
    # all three placements commit, but the squatted chunk moved no bytes
    assert report.chunks_uploaded == K + M
    assert report.bytes_uploaded == pytest.approx(SIZE / K * (K + M - 1))


def test_squatter_with_wrong_content_is_evicted_and_replaced(grid, runtime):
    cid, target = _first_chunk_target(runtime)
    grid.site(target).fs.create(
        chunk_path(cid), SIZE / K, content_id="not-the-right-bytes"
    )
    report = _put(grid, runtime, "obj")
    assert report.bytes_uploaded == pytest.approx(SIZE / K * (K + M))
    assert grid.metrics.value(
        "chunks.store", site="hub", event="evicted_bad_replica"
    ) == 1
    stored = grid.site(target).fs.stat(chunk_path(cid))
    assert stored.content_id == chunk_content_id(cid)


# -- replay through the exactly-once middleware --------------------------

def _send(grid, operation, payload, serial):
    """One idempotent ``chunk.*`` request from s1 to the directory on
    hub, with its serial pinned so a test can re-send the same call the
    way the retry middleware does."""
    client = grid.site("s1").request_client
    meta = {"chain": client.credential.chain, "serial": serial, "floor": 1}

    def run():
        outcome = yield from client.invoke(
            "hub", operation, payload, meta=meta
        )
        return outcome.payload

    return grid.run(until=grid.sim.spawn(run()))


def test_replayed_commit_returns_stored_verdict(grid, runtime):
    directory = runtime.directory
    manifest, targets, needed = directory.init("obj", SIZE, "key-1", K, M)
    placements = [[cid, targets[cid]] for cid in needed]
    payload = {"object": "obj", "placements": placements}
    first = _send(grid, "chunk.commit", payload, serial=1)
    replay = _send(grid, "chunk.commit", payload, serial=1)
    assert replay is first                  # stored verdict, not recomputed
    assert first["first_commit"] is True
    assert directory.stats.commits == 1
    assert directory.stats.recommits == 0   # replay never re-applied
    # a *fresh* serial for the same object is a recommit, not a double count
    retry = _send(grid, "chunk.commit", payload, serial=2)
    assert retry["first_commit"] is False
    assert directory.stats.commits == 1
    assert directory.stats.recommits == 1
    for cid in needed:
        assert directory.refcounts[cid] == 1


def test_replayed_repair_done_applies_once(grid, runtime):
    _put(grid, runtime, "obj")
    directory = runtime.directory
    manifest = directory.manifests["obj"]
    cid = manifest.chunks[0].chunk_id
    holder = next(iter(directory.locations[cid]))
    payload = {
        "object": "obj",
        "repaired": [[cid, "s3"]],
        "removed": [[cid, holder]],
    }
    first = _send(grid, "chunk.repair_done", payload, serial=1)
    replay = _send(grid, "chunk.repair_done", payload, serial=1)
    assert replay is first
    assert directory.stats.repairs == 1
    assert directory.locations[cid] == {"s3"}


# -- read path ------------------------------------------------------------

def test_fetch_reconstructs_byte_identically(grid, runtime):
    put = _put(grid, runtime, "obj")
    fetched = grid.run(
        until=runtime.store("hub").fetch_object("obj", "local/obj")
    )
    assert fetched.fingerprint == put.fingerprint
    assert fetched.decoded is False         # healthy stripe: passthrough
    assert fetched.chunks_fetched == K
    stored = grid.site("hub").fs.stat("local/obj")
    assert stored.content_id == "key-1"
    assert stored.size == SIZE


def test_fetch_fails_over_to_parity_on_corrupt_chunk(grid, runtime):
    _put(grid, runtime, "obj")
    manifest = runtime.directory.manifests["obj"]
    victim = manifest.chunks[0]
    holder = next(iter(runtime.directory.locations[victim.chunk_id]))
    grid.site(holder).fs.corrupt(victim.path)
    fetched = grid.run(
        until=runtime.store("hub").fetch_object("obj", "local/obj")
    )
    assert fetched.decoded is True          # parity had to enter the math
    assert grid.metrics.value(
        "chunks.store", site="hub", event="fetch_failover"
    ) >= 1
    assert grid.site("hub").fs.stat("local/obj").content_id == "key-1"


def test_fetch_with_too_many_losses_fails_cleanly(grid, runtime):
    _put(grid, runtime, "obj")
    manifest = runtime.directory.manifests["obj"]
    for spec in manifest.chunks[: M + 1]:
        holder = next(iter(runtime.directory.locations[spec.chunk_id]))
        grid.site(holder).fs.corrupt(spec.path)
    with pytest.raises(ChunkStoreError):
        grid.run(until=runtime.store("hub").fetch_object("obj", "local/obj"))


def test_fetch_unknown_object_fails_cleanly(grid, runtime):
    with pytest.raises(ChunkStoreError):
        grid.run(until=runtime.store("hub").fetch_object("nope", "local/x"))


# -- hygiene --------------------------------------------------------------

def test_staging_debris_is_purged_before_operations(grid, runtime):
    hub = grid.site("hub")
    hub.fs.create("stage/chunks/debris", 1234.0, content_id="junk")
    _put(grid, runtime, "obj")
    assert not hub.fs.exists("stage/chunks/debris")
    assert grid.metrics.value(
        "chunks.store", site="hub", event="staging_purged"
    ) >= 1
    # nothing in-flight left behind by the upload itself either
    assert hub.fs.listing("stage/chunks/") == []

"""Tests for the full replication pipeline: locate -> stage -> pre-process
-> transfer (restart + CRC) -> post-process -> catalog registration."""

import pytest

from repro.gdmp import RemoteError
from repro.gdmp.request_manager import GdmpError
from repro.netsim.units import KiB, MB
from repro.objectdb import DatabaseFile


def publish(grid, site, lfn, size=10 * MB, **attrs):
    return grid.run(
        until=grid.site(site).client.produce_and_publish(lfn, size, **attrs)
    )


def test_replicate_end_to_end(grid):
    publish(grid, "cern", "data.db")
    report = grid.run(until=grid.site("anl").client.replicate("data.db"))
    assert report.source == "cern"
    assert report.destination == "anl"
    assert report.size == 10 * MB
    assert report.attempts == 1
    assert report.crc_retries == 0
    anl = grid.site("anl")
    assert anl.fs.stat("/storage/data.db").crc == grid.site("cern").fs.stat(
        "/storage/data.db"
    ).crc
    # both replicas visible in the catalog
    locations = grid.run(until=anl.client.catalog.locations("data.db"))
    assert {loc["location"] for loc in locations} == {"cern", "anl"}


def test_replicate_unknown_lfn_fails(grid):
    with pytest.raises(RemoteError):
        grid.run(until=grid.site("anl").client.replicate("ghost.db"))


def test_replicate_already_held_rejected(grid):
    publish(grid, "cern", "dup.db")
    grid.run(until=grid.site("anl").client.replicate("dup.db"))
    with pytest.raises(GdmpError, match="already holds"):
        grid.run(until=grid.site("anl").client.replicate("dup.db"))


def test_replication_recovers_from_connection_failure(grid):
    publish(grid, "cern", "flaky.db", size=20 * MB)
    grid.site("cern").gridftp_server.failures.abort_after_bytes(
        "/storage/flaky.db", 5 * MB
    )
    report = grid.run(until=grid.site("anl").client.replicate("flaky.db"))
    assert report.attempts == 2  # one failure, one successful restart
    assert grid.site("anl").fs.stat("/storage/flaky.db").size == 20 * MB
    assert grid.site("anl").mover.monitor.counter("restarts") == 1


def test_replication_recovers_from_corruption(grid):
    publish(grid, "cern", "corrupt.db")
    grid.site("cern").gridftp_server.failures.corrupt_next("/storage/corrupt.db")
    report = grid.run(until=grid.site("anl").client.replicate("corrupt.db"))
    assert report.crc_retries == 1
    received = grid.site("anl").fs.stat("/storage/corrupt.db")
    assert received.crc == grid.site("cern").fs.stat("/storage/corrupt.db").crc
    assert grid.site("anl").mover.monitor.counter("crc_failures") == 1


def test_persistent_failure_exhausts_retry_budget(grid):
    publish(grid, "cern", "cursed.db", size=10 * MB)
    injector = grid.site("cern").gridftp_server.failures
    for _ in range(1):
        pass
    # abort every attempt: re-arm the injector from a watchdog process
    def rearm(sim):
        while True:
            injector.abort_after_bytes("/storage/cursed.db", 1 * MB)
            yield sim.timeout(1.0)

    grid.sim.spawn(rearm(grid.sim))
    with pytest.raises(GdmpError, match="all 1 replica sources failed"):
        grid.run(until=grid.site("anl").client.replicate("cursed.db"))


def test_source_pin_released_after_replication(grid):
    publish(grid, "cern", "pin.db")
    cern = grid.site("cern")
    grid.run(until=grid.site("anl").client.replicate("pin.db"))
    assert cern.pool.pin_count("/storage/pin.db") == 0


def test_source_pin_released_after_failed_replication(grid):
    publish(grid, "cern", "pinfail.db", size=10 * MB)
    injector = grid.site("cern").gridftp_server.failures

    def rearm(sim):
        while True:
            injector.abort_after_bytes("/storage/pinfail.db", 1 * MB)
            yield sim.timeout(1.0)

    grid.sim.spawn(rearm(grid.sim))
    with pytest.raises(GdmpError):
        grid.run(until=grid.site("anl").client.replicate("pinfail.db"))
    assert grid.site("cern").pool.pin_count("/storage/pinfail.db") == 0


def test_replicate_with_explicit_tuning(grid):
    publish(grid, "cern", "tuned.db", size=50 * MB)
    report = grid.run(
        until=grid.site("anl").client.replicate(
            "tuned.db", streams=3, tcp_buffer=1024 * KiB
        )
    )
    assert report.streams == 3
    assert report.buffer == 1024 * KiB
    # tuned transfer of 50MB at ~23 Mbps: ~17-20s
    assert report.transfer_duration < 25


def test_objectivity_replication_attaches_to_federation(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    # build a database file at CERN and publish it with schema metadata
    cern.federation.declare_type("aod")
    db = DatabaseFile(77, "events.db")
    container = db.create_container("aod")
    for i in range(10):
        db.new_object(container, "aod", 10_000, f"{i}/aod")
    grid.run(
        until=cern.client.produce_and_publish(
            "events.db",
            db.size,
            payload=db,
            filetype="objectivity",
            schema="aod",
        )
    )
    assert not anl.federation.knows_type("aod")
    grid.run(until=anl.client.replicate("events.db"))
    # pre-processing imported the schema; post-processing attached the file
    assert anl.federation.knows_type("aod")
    assert anl.federation.is_attached("events.db")
    assert anl.federation.resolve(db.get(db.containers[0].objects[3].oid).oid)


def test_failure_recovery_replicates_missing(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    for i in range(3):
        publish(grid, "cern", f"r{i}.db", size=2 * MB)
    # anl already has r0
    grid.run(until=anl.client.replicate("r0.db"))
    reports = grid.run(until=anl.client.replicate_missing_from("cern"))
    assert sorted(r.lfn for r in reports) == ["r1.db", "r2.db"]
    assert sorted(anl.server.held) == ["r0.db", "r1.db", "r2.db"]


def test_three_site_propagation(grid3):
    cern = grid3.site("cern")
    grid3.run(until=cern.client.produce_and_publish("hot.db", 5 * MB))
    grid3.run(until=grid3.site("anl").client.replicate("hot.db"))
    # caltech should now be able to choose between cern and anl
    report = grid3.run(until=grid3.site("caltech").client.replicate("hot.db"))
    assert report.source in ("cern", "anl")
    locations = grid3.run(until=cern.client.catalog.locations("hot.db"))
    assert {loc["location"] for loc in locations} == {"cern", "anl", "caltech"}


def test_replication_from_tape_pays_staging(grid3):
    cern = grid3.site("cern")
    # produce, publish, archive to tape, evict from disk
    grid3.run(until=cern.client.produce_and_publish("cold.db", 5 * MB))
    grid3.run(until=cern.storage.archive("/storage/cold.db"))
    cern.fs.delete("/storage/cold.db")
    report = grid3.run(until=grid3.site("anl").client.replicate("cold.db"))
    # staging time: 45s mount+seek dominates
    assert report.stage_wait > 45.0
    assert grid3.site("anl").fs.exists("/storage/cold.db")
    assert cern.mss.monitor.counter("staged_files") == 1


def test_stage_request_for_warm_file_is_fast(grid):
    publish(grid, "cern", "warm.db")
    anl = grid.site("anl")
    report = grid.run(until=anl.client.replicate("warm.db"))
    assert report.stage_wait < 1.0  # one RPC round trip, no tape


def test_failed_replication_releases_reservation(grid):
    publish(grid, "cern", "resfail.db", size=10 * MB)
    injector = grid.site("cern").gridftp_server.failures

    def rearm(sim):
        while True:
            injector.abort_after_bytes("/storage/resfail.db", 1 * MB)
            yield sim.timeout(1.0)

    grid.sim.spawn(rearm(grid.sim))
    anl = grid.site("anl")
    with pytest.raises(GdmpError):
        grid.run(until=anl.client.replicate("resfail.db"))
    assert anl.pool.reserved == 0


def test_successful_replication_consumes_reservation(grid):
    publish(grid, "cern", "resok.db", size=10 * MB)
    anl = grid.site("anl")
    grid.run(until=anl.client.replicate("resok.db"))
    assert anl.pool.reserved == 0
    assert anl.fs.exists("/storage/resok.db")


def test_replication_to_full_site_fails_cleanly(grid):
    from repro.gdmp import GdmpConfig, DataGrid

    small_grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("anl", disk_capacity=5 * MB)]
    )
    cern, anl = small_grid.site("cern"), small_grid.site("anl")
    small_grid.run(until=cern.client.produce_and_publish("big.db", 10 * MB))
    with pytest.raises(GdmpError, match="no space"):
        small_grid.run(until=anl.client.replicate("big.db"))
    assert anl.pool.reserved == 0


def test_delete_replica_catalog_first(grid):
    publish(grid, "cern", "del.db", size=5 * MB)
    anl = grid.site("anl")
    grid.run(until=anl.client.replicate("del.db"))
    result = grid.run(until=anl.client.delete_replica("del.db"))
    assert result["freed_bytes"] == 5 * MB
    assert not anl.fs.exists("/storage/del.db")
    assert "del.db" not in anl.server.held
    locations = grid.run(until=anl.client.catalog.locations("del.db"))
    assert [loc["location"] for loc in locations] == ["cern"]


def test_delete_last_replica_retires_lfn(grid):
    publish(grid, "cern", "solo.db", size=1 * MB)
    cern = grid.site("cern")
    grid.run(until=cern.client.delete_replica("solo.db"))
    exists = grid.run(until=cern.client.catalog.lfn_exists("solo.db"))
    assert not exists


def test_delete_pinned_replica_refused(grid):
    publish(grid, "cern", "busy.db", size=1 * MB)
    cern = grid.site("cern")
    cern.pool.pin("/storage/busy.db")
    with pytest.raises(GdmpError, match="pinned"):
        grid.run(until=cern.client.delete_replica("busy.db"))
    cern.pool.unpin("/storage/busy.db")


def test_delete_detaches_objectivity_file(grid):
    cern, anl = grid.site("cern"), grid.site("anl")
    cern.federation.declare_type("aod")
    db = DatabaseFile(88, "obj.db")
    container = db.create_container()
    db.new_object(container, "aod", 10_000, "0/aod")
    grid.run(until=cern.client.produce_and_publish(
        "obj.db", db.size, payload=db, filetype="objectivity", schema="aod"))
    grid.run(until=anl.client.replicate("obj.db"))
    assert anl.federation.is_attached("obj.db")
    result = grid.run(until=anl.client.delete_replica("obj.db"))
    assert result["detached"]
    assert not anl.federation.is_attached("obj.db")


def test_delete_unheld_lfn_rejected(grid):
    with pytest.raises(GdmpError, match="does not hold"):
        grid.run(until=grid.site("anl").client.delete_replica("ghost.db"))


def test_concurrent_replicate_of_same_lfn_guarded(grid):
    publish(grid, "cern", "twice.db", size=20 * MB)
    anl = grid.site("anl")
    outcomes = []

    def racer(sim, tag):
        try:
            report = yield anl.client.replicate("twice.db")
            outcomes.append((tag, "ok", report.size))
        except GdmpError as exc:
            outcomes.append((tag, "refused", str(exc)))

    grid.sim.spawn(racer(grid.sim, "first"))
    grid.sim.spawn(racer(grid.sim, "second"))
    grid.run()
    results = sorted(o[1] for o in outcomes)
    assert results == ["ok", "refused"]
    assert anl.fs.exists("/storage/twice.db")
    refused = next(o for o in outcomes if o[1] == "refused")
    assert "already replicating" in refused[2]

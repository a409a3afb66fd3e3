"""End-to-end GridFTP tests over the simulated grid."""

import pytest

from repro.gridftp import (
    RangeSet,
    TransferError,
    globus_url_copy,
    open_striped_transfer,
)
from repro.netsim.units import KiB, MB, to_mbps
from repro.security import new_user_credential


def run_process(grid, process):
    return grid.sim.run(until=process)


def connect(grid, server="cern"):
    return run_process(grid, grid.client.connect(server))


# ------------------------------------------------------------ session -----
def test_connect_authenticates_and_maps_account(grid):
    session = connect(grid)
    assert session.account == "alice"
    assert session.server_subject.startswith("/O=Grid/OU=cern")
    assert grid.servers["cern"].monitor.counter("auth_successes") == 1


def test_connect_rejects_unmapped_user(grid):
    stranger = new_user_credential(grid.ca, "/O=Grid/CN=Stranger")
    grid.client.credential = stranger
    with pytest.raises(TransferError, match="authentication failed"):
        connect(grid)
    assert grid.servers["cern"].monitor.counter("auth_failures") == 1


def test_feat_lists_extensions(grid):
    session = connect(grid)
    features = run_process(grid, grid.client.features(session))
    assert "SBUF" in features and "PARALLEL" in features


def test_size_mdtm_cksm(grid):
    session = connect(grid)
    assert run_process(grid, grid.client.size(session, "/store/data.db")) == 10 * MB
    mtime = run_process(
        grid, grid.client.modification_time(session, "/store/data.db")
    )
    assert mtime == 0.0
    crc = run_process(grid, grid.client.checksum(session, "/store/data.db"))
    assert crc == grid.fs["cern"].stat("/store/data.db").crc


def test_size_of_missing_file_fails(grid):
    session = connect(grid)
    with pytest.raises(TransferError, match="SIZE"):
        run_process(grid, grid.client.size(session, "/store/ghost"))


def test_negotiation_validation(grid):
    session = connect(grid)
    with pytest.raises(TransferError):
        run_process(grid, grid.client.set_buffer(session, 100))
    with pytest.raises(TransferError):
        run_process(grid, grid.client.set_parallelism(session, 0))


# ------------------------------------------------------------ transfers ---
def test_get_delivers_file_with_matching_crc(grid):
    session = connect(grid)
    result = run_process(
        grid, grid.client.get(session, "/store/data.db", "/pool/data.db")
    )
    assert result.size == 10 * MB
    received = grid.fs["anl"].stat("/pool/data.db")
    original = grid.fs["cern"].stat("/store/data.db")
    assert received.crc == original.crc
    assert result.throughput > 0


def test_get_missing_file_raises(grid):
    session = connect(grid)
    with pytest.raises(TransferError, match="failed"):
        run_process(grid, grid.client.get(session, "/store/ghost", "/pool/x"))


def test_parallel_tuned_get_is_faster(grid):
    grid.fs["cern"].create("/store/big.db", 50 * MB)
    session = connect(grid)
    slow = run_process(
        grid, grid.client.get(session, "/store/big.db", "/pool/slow.db")
    )
    yield_buffer = run_process(grid, grid.client.set_buffer(session, 1024 * KiB))
    run_process(grid, grid.client.set_parallelism(session, 3))
    fast = run_process(
        grid, grid.client.get(session, "/store/big.db", "/pool/fast.db")
    )
    assert fast.duration < slow.duration / 3
    assert to_mbps(fast.throughput) > 15


def test_get_emits_perf_and_restart_markers(grid):
    grid.fs["cern"].create("/store/big.db", 40 * MB)
    session = connect(grid)
    result = run_process(
        grid, grid.client.get(session, "/store/big.db", "/pool/big.db")
    )
    # 40MB at ~4 Mbps untuned takes ~80s -> several 5s marker intervals
    assert len(result.perf_markers) > 3
    assert len(result.restart_markers) > 3
    marks = result.perf_markers
    assert all(
        b.bytes_transferred >= a.bytes_transferred for a, b in zip(marks, marks[1:])
    )
    assert result.restart_markers[-1].bytes_on_disk <= 40 * MB


def test_partial_get(grid):
    session = connect(grid)
    result = run_process(
        grid,
        grid.client.get(
            session, "/store/data.db", "/pool/part.db", offset=1 * MB,
            length=2 * MB,
        ),
    )
    assert result.size == 2 * MB
    stored = grid.fs["anl"].stat("/pool/part.db")
    assert "#1000000+2000000" in stored.content_id


def test_injected_abort_reports_restart_marker(grid):
    grid.fs["cern"].create("/store/flaky.db", 20 * MB)
    grid.servers["cern"].failures.abort_after_bytes("/store/flaky.db", 5 * MB)
    session = connect(grid)
    with pytest.raises(TransferError) as exc_info:
        run_process(
            grid, grid.client.get(session, "/store/flaky.db", "/pool/flaky.db")
        )
    marker = exc_info.value.restart_marker
    assert marker is not None
    assert marker.bytes_on_disk >= 5 * MB
    assert not grid.fs["anl"].exists("/pool/flaky.db")


def test_restarted_get_moves_only_remaining_bytes(grid):
    grid.fs["cern"].create("/store/flaky.db", 20 * MB)
    grid.servers["cern"].failures.abort_after_bytes("/store/flaky.db", 8 * MB)
    session = connect(grid)
    with pytest.raises(TransferError) as exc_info:
        run_process(
            grid, grid.client.get(session, "/store/flaky.db", "/pool/flaky.db")
        )
    marker = exc_info.value.restart_marker
    result = run_process(
        grid,
        grid.client.get(
            session, "/store/flaky.db", "/pool/flaky.db", restart=marker.ranges
        ),
    )
    # file complete and faithful
    received = grid.fs["anl"].stat("/pool/flaky.db")
    assert received.size == 20 * MB
    assert received.crc == grid.fs["cern"].stat("/store/flaky.db").crc
    # the retry moved only the missing bytes (plus nothing else)
    sent = grid.servers["cern"].monitor.counter("bytes_sent")
    assert sent == pytest.approx(20 * MB - marker.bytes_on_disk)


def test_corruption_injection_changes_crc(grid):
    grid.servers["cern"].failures.corrupt_next("/store/data.db")
    session = connect(grid)
    run_process(grid, grid.client.get(session, "/store/data.db", "/pool/bad.db"))
    received = grid.fs["anl"].stat("/pool/bad.db")
    assert received.crc != grid.fs["cern"].stat("/store/data.db").crc
    # next transfer is clean again (one-shot injection)
    run_process(grid, grid.client.get(session, "/store/data.db", "/pool/good.db"))
    assert (
        grid.fs["anl"].stat("/pool/good.db").crc
        == grid.fs["cern"].stat("/store/data.db").crc
    )


def test_put_uploads_file(grid):
    grid.fs["anl"].create("/local/results.db", 3 * MB)
    session = connect(grid)
    result = run_process(
        grid, grid.client.put(session, "/local/results.db", "/store/results.db")
    )
    assert result.size == 3 * MB
    assert (
        grid.fs["cern"].stat("/store/results.db").crc
        == grid.fs["anl"].stat("/local/results.db").crc
    )


def test_put_existing_path_rejected(grid):
    grid.fs["anl"].create("/local/x", 1 * MB)
    session = connect(grid)
    with pytest.raises(TransferError, match="STOR"):
        run_process(grid, grid.client.put(session, "/local/x", "/store/data.db"))


def test_third_party_transfer(grid):
    src = connect(grid, "cern")
    dst = connect(grid, "anl")
    result = run_process(
        grid,
        grid.client.third_party_transfer(
            src, dst, "/store/data.db", "/mirror/data.db"
        ),
    )
    assert result.size == 10 * MB
    assert (
        grid.fs["anl"].stat("/mirror/data.db").crc
        == grid.fs["cern"].stat("/store/data.db").crc
    )


def test_globus_url_copy_get(grid):
    result = run_process(
        grid,
        globus_url_copy(
            grid.client,
            "gsiftp://cern/store/data.db",
            "file:///pool/copied.db",
            streams=4,
            tcp_buffer=1024 * KiB,
        ),
    )
    assert result.streams == 4
    assert grid.fs["anl"].exists("/pool/copied.db")


def test_globus_url_copy_third_party(grid):
    result = run_process(
        grid,
        globus_url_copy(
            grid.client,
            "gsiftp://cern/store/data.db",
            "gsiftp://anl/mirror/tp.db",
        ),
    )
    assert grid.fs["anl"].exists("/mirror/tp.db")


def test_unauthenticated_command_rejected(grid):
    from repro.gridftp.client import ClientSession

    fake = ClientSession(
        server_host="cern", session_id="bogus", account="", server_subject=""
    )
    with pytest.raises(TransferError):
        run_process(grid, grid.client.size(fake, "/store/data.db"))


# ------------------------------------------------------------ striping ----
def test_striped_transfer_completes(grid):
    pool = open_striped_transfer(
        grid.engine, ["cern"], ["anl"], nbytes=20 * MB, streams_per_pair=4
    )
    grid.sim.run(until=pool.done)
    assert pool.exhausted


def test_eret_bad_offset_rejected(grid):
    session = connect(grid)
    with pytest.raises(TransferError):
        run_process(
            grid,
            grid.client.get(session, "/store/data.db", "/pool/x",
                            offset=100 * MB),
        )


def test_eret_length_clamped_to_file(grid):
    session = connect(grid)
    result = run_process(
        grid,
        grid.client.get(session, "/store/data.db", "/pool/clamped",
                        offset=9 * MB, length=5 * MB),
    )
    assert result.size == 1 * MB  # only 1 MB remains past the offset


def test_rest_applies_to_one_transfer_only(grid):
    """A REST marker must not leak into the next RETR of the session."""
    from repro.gridftp import RangeSet

    grid.fs["cern"].create("/store/two.db", 4 * MB)
    session = connect(grid)
    run_process(
        grid,
        grid.client.get(session, "/store/two.db", "/pool/two-a",
                        restart=RangeSet([(0, 2 * MB)])),
    )
    sent_first = grid.servers["cern"].monitor.counter("bytes_sent")
    assert sent_first == pytest.approx(2 * MB)
    run_process(grid, grid.client.get(session, "/store/two.db", "/pool/two-b"))
    sent_total = grid.servers["cern"].monitor.counter("bytes_sent")
    assert sent_total == pytest.approx(2 * MB + 4 * MB)


def test_stor_without_space_rejected(grid):
    grid.fs["anl"].create("/local/huge", 9 * MB)
    # shrink the server's free space by filling it
    free = grid.fs["cern"].free
    grid.fs["cern"].create("/filler", free - 1 * MB)
    session = connect(grid)
    with pytest.raises(TransferError, match="STOR"):
        run_process(grid, grid.client.put(session, "/local/huge", "/store/huge"))


def test_quit_invalidates_session(grid):
    session = connect(grid)
    run_process(grid, grid.client.quit(session))
    assert session.closed
    with pytest.raises(TransferError):
        run_process(grid, grid.client.size(session, "/store/data.db"))


def test_put_and_get_throughput_are_similar(grid):
    """§6: "we have seen similar behaviour for the GridFTP put and get
    functions" — the transport is direction-symmetric."""
    grid.fs["cern"].create("/store/sym.db", 25 * MB)
    grid.fs["anl"].create("/local/sym.db", 25 * MB)
    session = connect(grid)
    run_process(grid, grid.client.set_buffer(session, 1024 * KiB))
    run_process(grid, grid.client.set_parallelism(session, 3))
    got = run_process(
        grid, grid.client.get(session, "/store/sym.db", "/pool/sym.db")
    )
    put = run_process(
        grid, grid.client.put(session, "/local/sym.db", "/store/sym-up.db")
    )
    assert got.throughput == pytest.approx(put.throughput, rel=0.25)

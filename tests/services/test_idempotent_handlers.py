"""Every handler behind an idempotent call completes without yielding.

The exactly-once middleware looks a call's serial up, runs the handler,
and records the result only when the handler returns.  A handler that
held the simulated clock in between would let a retry of the same call
pass the lookup and apply the write a second time.  So each ``catalog.*``,
``task.*`` and ``chunk.*`` operation a proxy sends with
``idempotent=True`` is driven here with a single ``next()``: it must
stop at once.
"""

import pytest

from repro.chunks import ChunkConfig, ChunkRuntime
from repro.gdmp import DataGrid, GdmpConfig
from repro.gdmp.request_manager import AuthenticatedRequest
from repro.workload.queue import TaskQueueService


@pytest.fixture
def grid():
    return DataGrid([GdmpConfig(name) for name in ("hub", "s1", "s2", "s3")],
                    catalog_host="hub")


def _drive(service, operation, payload):
    """Run ``operation``'s handler one step; it must return in it."""
    handler = getattr(service, "_op_" + operation.split(".", 1)[1])
    gen = handler(AuthenticatedRequest(
        operation, payload, "test-host", "s", "id", "acct"
    ))
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise AssertionError(f"{operation} handler yielded")


def test_catalog_write_handlers_never_yield(grid):
    service = grid.catalog_service
    meta = {"size": 1e6, "modified": 0.0, "crc": 7}
    lfn = _drive(service, "catalog.publish", {
        "site": "hub", "lfn": None, "attributes": {}, **meta,
    })
    [bulk] = _drive(service, "catalog.publish_bulk", {
        "site": "hub", "files": [dict(meta)],
    })
    assert _drive(service, "catalog.add_replica",
                  {"lfn": lfn, "site": "s1"}) is True
    assert _drive(service, "catalog.add_replica_bulk",
                  {"lfns": [lfn, bulk], "site": "s2"}) is True
    assert _drive(service, "catalog.adopt",
                  {"lfn": "foreign-1", "site": "s1", **meta}) is True
    assert _drive(service, "catalog.adopt_bulk", {
        "files": [{"lfn": "foreign-2", **meta}], "site": "s1",
    }) is True
    assert _drive(service, "catalog.remove_replica",
                  {"lfn": lfn, "site": "s1"}) is True
    assert _drive(service, "catalog.remove_replica_bulk",
                  {"lfns": [lfn, bulk], "site": "s2"}) is True


def test_task_handlers_never_yield(grid):
    service = TaskQueueService(grid.site("hub").request_server)
    xfer = {"type": "xfer", "site": "s1", "payload": {}}
    first = _drive(service, "task.submit", xfer)
    assert _drive(service, "task.submit_bulk",
                  {"tasks": [dict(xfer), dict(xfer)]}) \
        == [first + 1, first + 2]
    claim = {"worker": "w", "type": "xfer", "site": "s1",
             "limit": 2, "lease": None}
    done, failed = _drive(service, "task.claim", claim)
    assert _drive(service, "task.renew", {
        "task_id": done["task_id"], "claim_token": done["claim_token"],
        "lease": None,
    }) == 30.0                              # the renewed lease expiry
    assert _drive(service, "task.complete", {
        "task_id": done["task_id"], "claim_token": done["claim_token"],
        "result": None,
    }) is True
    assert _drive(service, "task.fail", {
        "task_id": failed["task_id"], "claim_token": failed["claim_token"],
        "error": "boom", "retryable": True,
    }) is not None


def test_chunk_write_handlers_never_yield(grid):
    runtime = ChunkRuntime(grid, ChunkConfig(
        k=2, m=1, placement_sites=["s1", "s2", "s3"], directory_host="hub",
    ))
    service = runtime.service
    init = _drive(service, "chunk.init", {
        "object": "obj", "size": 9_000_000.0, "content_key": "key-1",
        "k": 2, "m": 1,
    })
    placements = [[cid, init["targets"][cid]] for cid in init["needed"]]
    assert _drive(service, "chunk.commit", {
        "object": "obj", "placements": placements,
    })["first_commit"] is True
    cid, holder = placements[0]
    _drive(service, "chunk.repair_done", {
        "object": "obj", "repaired": [[cid, "hub"]],
        "removed": [[cid, holder]],
    })
    assert runtime.directory.locations[cid] == {"hub"}

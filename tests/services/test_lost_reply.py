"""A lost reply makes the retry middleware re-send a write: applied once.

One test per idempotent family on the request bus (``catalog.*``,
``task.*``, ``chunk.*``).  A service delay holds the first request back
so that it lands just inside its deadline (one ``rpc_timeout`` after it
was sent) while its reply reaches the caller only after the timeout:
the write is applied, but the caller never sees the answer, and
``RetryMiddleware`` re-sends the same logical call.  (A delay past the
deadline would not do: the server sheds such a request unapplied.)  The
delay is cleared before the retry, which must be answered from the
record of the first attempt: the write is applied once, the caller gets
the first result, and the family's ``*.txn_replays`` counter reads 1.
"""

from repro.chunks import ChunkConfig, ChunkRuntime
from repro.gdmp import DataGrid, GdmpConfig
from repro.services.resilience import ResilienceConfig
from repro.workload.queue import TaskQueueProxy, TaskQueueService

RPC_TIMEOUT = 2.0


def _resilient(grid):
    grid.enable_resilience(ResilienceConfig(rpc_timeout=RPC_TIMEOUT))
    return grid


def _lose_first_reply(grid, caller, host, prefix):
    """Delay requests matching ``prefix`` from ``caller`` to ``host`` so
    the first lands half a one-way latency before its deadline and its
    reply half a one-way latency after the caller's timeout.  Cleared at
    t=1 s, after the first attempt was sent and before the retry is."""
    msgnet = grid.msgnet
    one_way = msgnet.latency(caller, host, 512)
    delay = RPC_TIMEOUT - 1.5 * one_way
    msgnet.set_service_delay(host, "gdmp", delay, prefix=prefix)

    def clear():
        yield grid.sim.timeout(1.0)
        msgnet.set_service_delay(host, "gdmp", 0.0, prefix=prefix)

    grid.sim.spawn(clear())


def _retries(grid, operation):
    return grid.metrics.value(
        "rpc.retries", service="gdmp", operation=operation
    )


def test_lost_publish_reply_registers_the_file_once():
    grid = _resilient(DataGrid([GdmpConfig("cern"), GdmpConfig("anl")]))
    _lose_first_reply(grid, "anl", "cern", "catalog.publish")
    proxy = grid.site("anl").client.catalog
    lfn = grid.run(until=proxy.publish("anl", 1e6, 0.0, 1234))
    assert _retries(grid, "catalog.publish") == 1
    assert grid.catalog_backend.list_lfns() == [lfn]
    assert [loc["location"] for loc in grid.catalog_backend.locations(lfn)] \
        == ["anl"]
    assert grid.metrics.value("catalog.txn_replays") == 1


def test_lost_claim_reply_claims_one_task_once():
    grid = _resilient(DataGrid([GdmpConfig("cern"), GdmpConfig("anl")]))
    service = TaskQueueService(
        grid.site("cern").request_server, metrics=grid.metrics
    )
    proxy = TaskQueueProxy(grid.site("anl").request_client, "cern")
    for i in range(2):
        grid.run(until=proxy.submit("xfer", "anl", {"n": i}))
    _lose_first_reply(grid, "anl", "cern", "task.claim")
    claimed = grid.run(until=proxy.claim("w", "xfer", "anl", limit=1))
    assert _retries(grid, "task.claim") == 1
    queue = service.queue
    assert queue.stats.claims == 1
    assert queue.counts()["claimed"] == 1
    assert queue.counts()["pending"] == 1
    [task] = claimed
    live = queue.tasks[task["task_id"]]
    assert live.state == "claimed"
    assert live.claim_token == task["claim_token"]   # the first claim's
    assert grid.metrics.value("workload.txn_replays") == 1


def test_lost_commit_reply_commits_the_object_once():
    grid = _resilient(DataGrid(
        [GdmpConfig(name) for name in ("hub", "s1", "s2", "s3")],
        catalog_host="hub",
    ))
    runtime = ChunkRuntime(grid, ChunkConfig(
        k=2, m=1, placement_sites=["s1", "s2", "s3"], directory_host="hub",
    ))
    directory = runtime.directory
    _, targets, needed = directory.init("obj", 9e6, "key-1", 2, 1)
    placements = [(cid, targets[cid]) for cid in needed]
    _lose_first_reply(grid, "s1", "hub", "chunk.commit")
    proxy = runtime.store("s1").proxy
    verdict = grid.run(until=proxy.commit("obj", placements))
    assert _retries(grid, "chunk.commit") == 1
    assert verdict["first_commit"] is True
    assert directory.stats.commits == 1
    assert directory.stats.recommits == 0
    for cid in needed:
        assert directory.refcounts[cid] == 1
    assert grid.metrics.value("chunks.txn_replays") == 1

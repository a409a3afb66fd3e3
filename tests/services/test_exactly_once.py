"""The exactly-once middleware's floor rule on a real request bus.

Every idempotent call carries its client's floor, the lowest serial the
client still has in flight.  A serial below the caller's floor with no
record is a stale duplicate: it is refused, never applied.  These tests
drive the cases where a duplicate is overtaken by a later call from the
same client — the copy is still in transit (held by a service delay)
while the server host crashes and restarts — and check that the store
stays bounded over a long run.
"""

import pytest

from repro.faults import FaultCampaign, FaultEvent, FaultInjector
from repro.gdmp import DataGrid, GdmpConfig
from repro.services.bus import ConnectionReset
from repro.services.resilience import ResilienceConfig, RetryPolicy
from repro.workload.queue import TaskQueueProxy, TaskQueueService

RPC_TIMEOUT = 2.0
#: the first attempt's request lands at ~1.56 s, inside its 2 s deadline
REQUEST_DELAY = 1.5


@pytest.fixture
def grid():
    grid = DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])
    grid.enable_resilience(ResilienceConfig(
        retry=RetryPolicy(max_attempts=2), rpc_timeout=RPC_TIMEOUT,
    ))
    return grid


@pytest.fixture
def service(grid):
    return TaskQueueService(
        grid.site("cern").request_server, metrics=grid.metrics
    )


@pytest.fixture
def proxy(grid):
    return TaskQueueProxy(grid.site("anl").request_client, "cern")


def _at(grid, when, action):
    def run():
        yield grid.sim.timeout(when - grid.sim.now)
        action()

    grid.sim.spawn(run())


def _crash_cern(grid, at, restart):
    FaultInjector(grid, FaultCampaign("crash", (
        FaultEvent(at, "host_crash", "cern"),
        FaultEvent(restart, "host_restart", "cern"),
    ))).start()


def _hold_submits(grid, until):
    """Delay ``task.submit`` requests to cern until ``until``."""
    msgnet = grid.msgnet
    msgnet.set_service_delay("cern", "gdmp", REQUEST_DELAY,
                             prefix="task.submit")
    _at(grid, until, lambda: msgnet.set_service_delay(
        "cern", "gdmp", 0.0, prefix="task.submit"))


def _errors(grid, operation):
    return grid.metrics.value("rpc.requests", service="gdmp",
                              operation=operation, outcome="error")


def _caller(grid):
    client = grid.site("anl").request_client
    return ("anl", client.reply_service)


def test_copy_of_a_failed_write_overtaken_by_a_later_call_is_refused(
        grid, service, proxy):
    # attempt 1 is held in transit; the crash resets it, attempt 2 meets
    # a down host: the caller is told the write failed at ~0.6 s
    _hold_submits(grid, until=0.9)
    _crash_cern(grid, at=0.1, restart=1.0)
    failed = proxy.submit("xfer", "anl", {"n": "failed"})
    with pytest.raises(ConnectionReset):
        grid.run(until=failed)
    # a later call lands with the client's floor past the failed serial
    grid.run(until=1.1)
    later = grid.run(until=proxy.submit("xfer", "anl", {"n": "later"}))
    grid.run(until=5.0)       # the held copy lands at ~1.56 s
    assert [t.payload for t in service.queue.tasks.values()] \
        == [{"n": "later"}]
    assert service.queue.stats.submitted == 1
    assert later in service.queue.tasks
    assert _errors(grid, "task.submit") == 1
    assert grid.metrics.value("workload.txn_replays") == 0


def test_late_duplicate_of_a_finished_write_is_not_reapplied(
        grid, service, proxy):
    # attempt 1 is held; the crash resets it and attempt 2 (sent after
    # the restart, with the delay cleared) lands and completes the call
    _hold_submits(grid, until=0.2)
    _crash_cern(grid, at=0.1, restart=0.3)
    first = grid.run(until=proxy.submit("xfer", "anl", {"n": 1}))
    assert service.queue.stats.submitted == 1
    records = grid.site("cern").request_server.exactly_once.records
    assert list(records[_caller(grid)]) == [1]
    # the next call's floor drops the finished write's record
    grid.run(until=proxy.submit("xfer", "anl", {"n": 2}))
    assert list(records[_caller(grid)]) == [2]
    grid.run(until=5.0)       # attempt 1's copy lands at ~1.56 s
    assert service.queue.stats.submitted == 2
    assert sorted(service.queue.tasks) == [first, first + 1]
    assert _errors(grid, "task.submit") == 1


def test_killed_call_releases_its_serial(grid, service, proxy):
    client = grid.site("anl").request_client
    _hold_submits(grid, until=0.12)
    killed = proxy.submit("xfer", "anl", {"n": "killed"})
    grid.run(until=0.1)
    assert client.in_flight == {1}
    killed.interrupt("component-crash")
    grid.run(until=0.15)
    assert client.in_flight == set()
    grid.run(until=proxy.submit("xfer", "anl", {"n": "later"}))
    floors = grid.site("cern").request_server.exactly_once.floors
    assert floors[_caller(grid)] == 2      # moved past the killed serial
    grid.run(until=5.0)       # the killed call's copy lands at ~1.56 s
    assert [t.payload for t in service.queue.tasks.values()] \
        == [{"n": "later"}]


def test_reads_leave_no_record(grid, service, proxy):
    grid.run(until=proxy.counts())
    assert grid.site("cern").request_server.exactly_once.records == {}


class _HighWater(dict):
    """A record store that remembers its largest size."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


class _PeakSet(set):
    """An in-flight set that remembers its largest size."""

    peak = 0

    def add(self, item):
        super().add(item)
        self.peak = max(self.peak, len(self))


def test_store_stays_bounded_by_calls_in_flight(grid, service, proxy):
    """5k+ idempotent ``task.*`` calls from one client: the server never
    holds more records for it than the client ever had calls in flight."""
    client = grid.site("anl").request_client
    client.in_flight = _PeakSet()
    store = _HighWater()
    grid.site("cern").request_server.exactly_once.records[_caller(grid)] \
        = store
    workers, rounds = 6, 280
    calls = []

    def worker(i):
        lane = f"t{i}"
        yield grid.sim.timeout(0.013 * i)     # out of lockstep
        for _ in range(rounds):
            yield proxy.submit(lane, "anl", {})
            [task] = yield proxy.claim("w", lane, "anl")
            done = yield proxy.complete(task["task_id"], task["claim_token"])
            assert done is True
            calls.append(3)

    procs = [grid.sim.spawn(worker(i)) for i in range(workers)]
    grid.run(until=grid.sim.all_of(procs))
    assert sum(calls) == workers * rounds * 3 >= 5000
    assert service.queue.stats.completed == workers * rounds
    assert client.in_flight == set()
    assert 0 < store.peak <= client.in_flight.peak
    assert len(store) <= client.in_flight.peak

"""TaskQueue semantics: FIFO claims, leases, idempotency, terminal states."""

import pytest

from repro.gdmp import DataGrid, GdmpConfig
from repro.simulation.kernel import Simulator
from repro.workload.queue import TaskQueue, TaskQueueService


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def queue(sim):
    return TaskQueue(sim, default_lease=30.0, max_attempts=3)


@pytest.fixture
def grid():
    return DataGrid([GdmpConfig("cern"), GdmpConfig("anl")])


def call(grid, op, payload, serial=None):
    """One ``task.*`` request from anl to the queue on cern's request
    server.  ``serial`` pins the idempotent-call serial, so a test can
    re-send the same call the way the retry middleware does."""
    client = grid.site("anl").request_client
    meta = {"chain": client.credential.chain}
    if serial is not None:
        meta.update(serial=serial, floor=1)

    def run():
        outcome = yield from client.invoke(
            "cern", f"task.{op}", payload, meta=meta
        )
        return outcome.payload

    return grid.run(until=grid.sim.spawn(run()))


@pytest.fixture
def service(grid):
    return TaskQueueService(grid.site("cern").request_server,
                            metrics=grid.metrics, default_lease=30.0,
                            max_attempts=3)


# -- TaskQueue state machine ----------------------------------------------

def test_claims_are_fifo_within_a_lane(queue):
    ids = [queue.submit("xfer", "anl", {"n": i}) for i in range(3)]
    got = queue.claim("w1", "xfer", "anl", limit=2)
    assert [t.task_id for t in got] == ids[:2]
    assert all(t.state == "claimed" for t in got)
    rest = queue.claim("w2", "xfer", "anl", limit=5)
    assert [t.task_id for t in rest] == ids[2:]


def test_lanes_are_isolated_by_type_and_site(queue):
    queue.submit("xfer", "anl", {})
    assert queue.claim("w", "xfer", "caltech") == []
    assert queue.claim("w", "verify", "anl") == []
    assert len(queue.claim("w", "xfer", "anl")) == 1


def test_keyed_submission_coalesces(queue):
    a = queue.submit("xfer", "anl", {"lfn": "f"}, key="xfer:f@anl")
    b = queue.submit("xfer", "anl", {"lfn": "f"}, key="xfer:f@anl")
    assert a == b
    assert queue.stats.submitted == 1
    assert queue.stats.coalesced == 1
    # the key stays bound even after the task completes: the obligation
    # was met, a later duplicate must not recreate it
    [task] = queue.claim("w", "xfer", "anl")
    assert queue.complete(task.task_id, task.claim_token)
    assert queue.submit("xfer", "anl", {}, key="xfer:f@anl") == a


def test_complete_requires_the_live_claim_token(queue):
    tid = queue.submit("xfer", "anl", {})
    [task] = queue.claim("w1", "xfer", "anl")
    assert not queue.complete(tid, task.claim_token + 999)
    assert queue.stats.stale_ops == 1
    assert queue.complete(tid, task.claim_token)
    assert queue.tasks[tid].state == "done"
    assert queue.stats.completed == 1


def test_expired_lease_is_reclaimable_and_old_token_is_stale(sim, queue):
    tid = queue.submit("xfer", "anl", {})
    [first] = queue.claim("w1", "xfer", "anl", lease=10.0)
    first_token = first.claim_token
    sim.run(until=11.0)
    # lease expired: the task silently returns to pending and the next
    # claimant picks it up with a fresh token
    [second] = queue.claim("w2", "xfer", "anl", lease=10.0)
    assert second.task_id == tid
    assert second.attempts == 2
    assert second.claim_token != first_token
    assert queue.stats.expired_leases == 1
    # the crashed worker's late completion must not corrupt w2's claim
    assert not queue.complete(tid, first_token)
    assert queue.tasks[tid].state == "claimed"
    assert queue.complete(tid, second.claim_token)


def test_renew_extends_the_lease(sim, queue):
    tid = queue.submit("xfer", "anl", {})
    [task] = queue.claim("w1", "xfer", "anl", lease=10.0)
    sim.run(until=6.0)
    assert queue.renew(tid, task.claim_token, lease=10.0) == 16.0
    sim.run(until=12.0)  # past the original deadline, inside the renewal
    assert queue.complete(tid, task.claim_token)
    assert queue.stats.expired_leases == 0


def test_retryable_failures_requeue_until_max_attempts(queue):
    tid = queue.submit("xfer", "anl", {})
    for attempt in range(1, 4):
        [task] = queue.claim("w", "xfer", "anl")
        assert task.attempts == attempt
        state = queue.fail(tid, task.claim_token, error="boom")
        assert state == ("pending" if attempt < 3 else "dead")
    assert queue.tasks[tid].state == "dead"
    assert queue.stats.dead == 1
    assert queue.claim("w", "xfer", "anl") == []


def test_non_retryable_failure_is_immediately_dead(queue):
    tid = queue.submit("xfer", "anl", {})
    [task] = queue.claim("w", "xfer", "anl")
    assert queue.fail(tid, task.claim_token, retryable=False) == "dead"
    assert queue.tasks[tid].state == "dead"


def test_terminal_and_leaked_claims(sim, queue):
    a = queue.submit("xfer", "anl", {})
    assert not queue.terminal()
    [task] = queue.claim("w", "xfer", "anl", lease=10.0)
    assert not queue.terminal()
    assert queue.leaked_claims() == [a]
    queue.complete(a, task.claim_token)
    assert queue.terminal()
    assert queue.leaked_claims() == []
    assert queue.counts() == {
        "pending": 0, "claimed": 0, "done": 1, "dead": 0,
    }


def test_fingerprint_is_stable_and_covers_every_task(queue):
    queue.submit("xfer", "anl", {"lfn": "a"}, key="k1")
    queue.submit("verify", "anl", {"lfn": "a"})
    fp = queue.fingerprint()
    assert fp == queue.fingerprint()
    assert "xfer@anl" in fp and "verify@anl" in fp and "k1" in fp


# -- TaskQueueService replay through the exactly-once middleware ---------

def test_submit_txn_replays_instead_of_duplicating(grid, service):
    payload = {"type": "xfer", "site": "anl", "payload": {}}
    first = call(grid, "submit", payload, serial=1)
    second = call(grid, "submit", payload, serial=1)
    assert first == second
    assert service.queue.stats.submitted == 1
    assert grid.metrics.value("workload.txn_replays") == 1


def test_claim_txn_replay_does_not_double_claim(grid, service):
    for i in range(2):
        call(grid, "submit",
             {"type": "xfer", "site": "anl", "payload": {"n": i}})
    claim = {"worker": "w", "type": "xfer", "site": "anl",
             "limit": 1, "lease": None}
    first = call(grid, "claim", claim, serial=2)
    replay = call(grid, "claim", claim, serial=2)
    assert replay == first           # same task, same token
    assert len(first) == 1
    # a *fresh* serial claims the next task, proving the queue still moves
    other = call(grid, "claim", claim, serial=3)
    assert other[0]["task_id"] != first[0]["task_id"]


def test_complete_txn_replay_returns_stored_verdict(grid, service):
    call(grid, "submit", {"type": "xfer", "site": "anl", "payload": {}})
    [task] = call(grid, "claim", {
        "worker": "w", "type": "xfer", "site": "anl",
        "limit": 1, "lease": None,
    }, serial=4)
    done = {"task_id": task["task_id"], "claim_token": task["claim_token"],
            "result": {"ok": 1}}
    assert call(grid, "complete", done, serial=5) is True
    # the retry of a completion whose reply was lost replays True — it
    # does not become a stale-token False
    assert call(grid, "complete", done, serial=5) is True
    assert service.queue.stats.completed == 1

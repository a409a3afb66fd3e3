"""The claim-based work queue: leases, idempotent ops, per-state counters.

Production grids do not call ``replicate()``; they run standing
components that *claim* work from a shared queue, renew their claim
while working, and mark it complete — the LTA picker/bundler pattern
("Grid Data Management in Action" describes exactly this operational
shape).  This module provides the queue in three layers:

* :class:`Task` / :class:`TaskQueue` — the in-memory state machine.
  Tasks move ``pending → claimed → done | failed-pending-retry → dead``.
  A claim carries a *lease*: a deadline after which the task silently
  becomes claimable again, so a crashed worker's work is re-dispatched
  without any failure detector — lease expiry is evaluated lazily at
  claim/inspection time, purely from the sim clock.
* :class:`TaskQueueService` — the bus half: ``task.*`` operations
  registered on a :class:`~repro.gdmp.request_manager.RequestServer`
  (next to the ``catalog.*`` operations).  Every write is an idempotent
  call, applied once by the request server's
  :class:`~repro.services.middleware.ExactlyOnceMiddleware` like the
  catalog's writes.  Lease deadlines therefore compose with the
  resilience middleware: a retried ``claim`` replays the original claim
  instead of double-claiming, and a retried ``complete`` replays the
  stored verdict.
* :class:`TaskQueueProxy` — the site-side client: each method returns a
  :class:`~repro.simulation.kernel.Process` for one authenticated round
  trip, with envelope sizes scaled per item like the bulk catalog ops.

Completing or failing a task requires the *claim token* issued at claim
time.  A worker that lost its lease (the task was re-claimed by someone
else) gets ``stale`` back instead of corrupting the new owner's state —
the duplicated work itself must be idempotent one layer down, which the
replication stages are (``replicate_set(skip_held=True)``, idempotent
catalog registration, keyed task submission).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.gdmp.request_manager import (
    REQUEST_MESSAGE_SIZE,
    AuthenticatedRequest,
    RequestClient,
    RequestServer,
)
from repro.simulation.kernel import Process, Simulator

__all__ = ["Task", "TaskQueue", "TaskQueueService", "TaskQueueProxy"]

#: task lifecycle states (``failed`` is transient: a retryable failure
#: puts the task straight back to ``pending``; ``dead`` is terminal)
STATES = ("pending", "claimed", "done", "dead")

#: wire-size increment per task in a bulk envelope (submit/claim replies)
TASK_ITEM_SIZE = 128

#: histogram bounds for queue latencies (sim-seconds)
_AGE_BOUNDS = (
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0,
)


@dataclass
class Task:
    """One unit of pipeline work."""

    task_id: int
    type: str                      # pipeline stage that consumes it
    site: str                      # destination site the stage runs at
    payload: dict                  # stage-specific work description
    key: Optional[str] = None      # dedup key; resubmission coalesces
    state: str = "pending"
    attempts: int = 0              # claims so far (leases + failures)
    failures: int = 0              # explicit retryable fail() calls
    claimant: str = ""             # worker holding the live claim
    claim_token: int = 0           # current claim's token (0 = none)
    lease_deadline: float = 0.0
    submitted_at: float = 0.0
    first_claimed_at: Optional[float] = None
    claimed_at: float = 0.0
    finished_at: Optional[float] = None
    result: Any = None
    error: str = ""

    def public(self) -> dict:
        """The claim-reply view a worker receives."""
        return {
            "task_id": self.task_id,
            "type": self.type,
            "site": self.site,
            "payload": self.payload,
            "key": self.key,
            "attempts": self.attempts,
            "claim_token": self.claim_token,
            "lease_deadline": self.lease_deadline,
        }


@dataclass
class _QueueStats:
    submitted: int = 0
    coalesced: int = 0
    claims: int = 0
    completed: int = 0
    failed: int = 0
    dead: int = 0
    expired_leases: int = 0
    stale_ops: int = 0
    renews: int = 0


class TaskQueue:
    """The deterministic in-memory queue state machine.

    Claim order is strict FIFO by task id within a ``(type, site)``
    lane, which makes the drain order a pure function of the submission
    order — the workload fingerprint depends on it.
    """

    def __init__(self, sim: Simulator, *,
                 default_lease: float = 30.0,
                 max_attempts: int = 6):
        self.sim = sim
        self.default_lease = default_lease
        self.max_attempts = max_attempts
        self.tasks: dict[int, Task] = {}
        #: (type, site) -> FIFO of pending task ids
        self._pending: dict[tuple[str, str], list[int]] = {}
        #: claimed task ids, checked for lease expiry lazily
        self._claimed: set[int] = set()
        #: dedup key -> task id (live tasks only; done/dead keys stay
        #: recorded so a re-submitted key coalesces onto the finished task)
        self._by_key: dict[str, int] = {}
        self.stats = _QueueStats()

    # -- submission -------------------------------------------------------
    def submit(self, type: str, site: str, payload: dict,
               key: Optional[str] = None) -> int:
        """Enqueue one task; a duplicate ``key`` coalesces (returns the
        existing task's id) instead of enqueuing twice — this is what
        makes picker re-claims after a crash exactly-once."""
        if key is not None:
            existing = self._by_key.get(key)
            if existing is not None:
                self.stats.coalesced += 1
                return existing
        task_id = self.sim.next_serial("workload-task")
        task = Task(
            task_id=task_id, type=type, site=site, payload=payload,
            key=key, submitted_at=self.sim.now,
        )
        self.tasks[task_id] = task
        self._pending.setdefault((type, site), []).append(task_id)
        if key is not None:
            self._by_key[key] = task_id
        self.stats.submitted += 1
        return task_id

    # -- lease bookkeeping ------------------------------------------------
    def _expire_leases(self) -> int:
        """Return claimed-but-expired tasks to their pending lanes."""
        now = self.sim.now
        expired = [
            tid for tid in self._claimed
            if self.tasks[tid].lease_deadline <= now
        ]
        for tid in sorted(expired):
            task = self.tasks[tid]
            self._claimed.discard(tid)
            task.state = "pending"
            task.claimant = ""
            task.claim_token = 0
            self._pending.setdefault((task.type, task.site), []).append(tid)
            self.stats.expired_leases += 1
        return len(expired)

    # -- claiming ---------------------------------------------------------
    def claim(self, worker: str, type: str, site: str,
              limit: int = 1, lease: Optional[float] = None) -> list[Task]:
        """Hand up to ``limit`` pending tasks of one lane to ``worker``."""
        self._expire_leases()
        lane = self._pending.get((type, site))
        claimed: list[Task] = []
        lease = lease if lease is not None else self.default_lease
        while lane and len(claimed) < limit:
            tid = lane.pop(0)
            task = self.tasks[tid]
            task.state = "claimed"
            task.attempts += 1
            task.claimant = worker
            task.claim_token = self.sim.next_serial("workload-claim")
            task.claimed_at = self.sim.now
            if task.first_claimed_at is None:
                task.first_claimed_at = self.sim.now
            task.lease_deadline = self.sim.now + lease
            self._claimed.add(tid)
            claimed.append(task)
        if claimed:
            self.stats.claims += 1
        return claimed

    def _owned(self, task_id: int, token: int) -> Optional[Task]:
        """The task if ``token`` still owns it, else None (stale)."""
        task = self.tasks.get(task_id)
        if task is None or task.state != "claimed":
            return None
        if task.claim_token != token or task.lease_deadline <= self.sim.now:
            return None
        return task

    # -- claim-holder operations -----------------------------------------
    def renew(self, task_id: int, token: int,
              lease: Optional[float] = None) -> Optional[float]:
        """Extend a live claim's lease; None when the claim is stale."""
        task = self._owned(task_id, token)
        if task is None:
            self.stats.stale_ops += 1
            return None
        task.lease_deadline = self.sim.now + (
            lease if lease is not None else self.default_lease
        )
        self.stats.renews += 1
        return task.lease_deadline

    def complete(self, task_id: int, token: int, result: Any = None) -> bool:
        """Mark a claimed task done; False when the claim is stale."""
        task = self._owned(task_id, token)
        if task is None:
            self.stats.stale_ops += 1
            return False
        self._claimed.discard(task_id)
        task.state = "done"
        task.result = result
        task.finished_at = self.sim.now
        task.claimant = ""
        self.stats.completed += 1
        return True

    def fail(self, task_id: int, token: int, error: str = "",
             retryable: bool = True) -> Optional[str]:
        """Fail a claimed task: back to pending while attempts remain (and
        the failure is retryable), else dead.  Returns the resulting state,
        or None when the claim is stale."""
        task = self._owned(task_id, token)
        if task is None:
            self.stats.stale_ops += 1
            return None
        self._claimed.discard(task_id)
        task.error = error
        task.failures += 1
        task.claimant = ""
        task.claim_token = 0
        self.stats.failed += 1
        if retryable and task.attempts < self.max_attempts:
            task.state = "pending"
            self._pending.setdefault((task.type, task.site), []).append(task_id)
        else:
            task.state = "dead"
            task.finished_at = self.sim.now
            self.stats.dead += 1
        return task.state

    # -- inspection -------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Per-state task counts (lease expiry applied first)."""
        self._expire_leases()
        counts = {state: 0 for state in STATES}
        for task in self.tasks.values():
            counts[task.state] += 1
        return counts

    def depth(self, type: str, site: str) -> int:
        """Pending backlog of one lane."""
        self._expire_leases()
        return len(self._pending.get((type, site), ()))

    def terminal(self) -> bool:
        """True when no task is pending or claimed (leases expired first)."""
        self._expire_leases()
        if self._claimed:
            return False
        return all(not lane for lane in self._pending.values())

    def leaked_claims(self) -> list[int]:
        """Claimed task ids whose lease is still live (should be empty
        once the pipeline has shut down)."""
        self._expire_leases()
        return sorted(self._claimed)

    def fingerprint(self) -> str:
        """Canonical queue-state text: every task's terminal facts in id
        order plus the op counters.  Byte-identical across same-seed runs;
        diffed by the workload determinism gates."""
        lines = [
            f"queue tasks={len(self.tasks)} "
            + " ".join(
                f"{k}={v}" for k, v in sorted(vars(self.stats).items())
            )
        ]
        for tid in sorted(self.tasks):
            t = self.tasks[tid]
            lines.append(
                f"{tid} {t.type}@{t.site} {t.state} attempts={t.attempts} "
                f"failures={t.failures} key={t.key or '-'} "
                f"submitted={t.submitted_at:.6f} "
                f"finished={-1.0 if t.finished_at is None else t.finished_at:.6f}"
            )
        return "\n".join(lines)


class TaskQueueService:
    """``task.*`` operations hosted on a site's request server.

    Lives next to the ``catalog.*`` handlers on the same authenticated
    bus endpoint.  The proxy sends every mutating operation as an
    idempotent call, so the server's exactly-once middleware replays the
    stored result to a retry — the retry middleware can safely re-issue
    a claim or completion whose reply was lost.
    """

    def __init__(self, server: RequestServer,
                 queue: Optional[TaskQueue] = None, *,
                 metrics=None,
                 default_lease: float = 30.0,
                 max_attempts: int = 6):
        self.queue = queue or TaskQueue(
            server.sim, default_lease=default_lease,
            max_attempts=max_attempts,
        )
        self.server = server
        self.metrics = metrics
        server.exactly_once.count_replays(
            "task", "workload.txn_replays", metrics
        )
        for op in ("submit", "submit_bulk", "claim", "renew", "complete",
                   "fail", "counts"):
            server.register(f"task.{op}", getattr(self, f"_op_{op}"))
        if metrics is not None:
            metrics.add_collector(self._collect)

    # -- telemetry --------------------------------------------------------
    def _count(self, event: str, type: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "workload.tasks", event=event, type=type
            ).inc(amount)

    def _observe_age(self, name: str, type: str, age: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(
                f"workload.{name}", bounds=_AGE_BOUNDS, type=type
            ).observe(age)

    def _collect(self, registry) -> None:
        """Scrape queue depth per state into gauges at export time."""
        for state, value in sorted(self.queue.counts().items()):
            registry.gauge("workload.queue.depth", state=state).set(value)
        registry.gauge("workload.queue.expired_leases").set(
            self.queue.stats.expired_leases
        )
        registry.gauge("workload.queue.stale_ops").set(
            self.queue.stats.stale_ops
        )

    # -- handlers ---------------------------------------------------------
    def _op_submit(self, request: AuthenticatedRequest):
        p = request.payload
        task_id = self.queue.submit(
            p["type"], p["site"], p.get("payload") or {}, key=p.get("key")
        )
        self._count("submitted", p["type"])
        return task_id
        yield  # pragma: no cover - generator marker

    def _op_submit_bulk(self, request: AuthenticatedRequest):
        p = request.payload
        ids = []
        for item in p["tasks"]:
            ids.append(self.queue.submit(
                item["type"], item["site"], item.get("payload") or {},
                key=item.get("key"),
            ))
            self._count("submitted", item["type"])
        return ids
        yield  # pragma: no cover

    def _op_claim(self, request: AuthenticatedRequest):
        p = request.payload
        now = self.server.sim.now
        tasks = self.queue.claim(
            p["worker"], p["type"], p["site"],
            limit=p.get("limit", 1), lease=p.get("lease"),
        )
        for task in tasks:
            self._count("claimed", task.type)
            if task.first_claimed_at == now and task.attempts == 1:
                self._observe_age(
                    "claim_age", task.type, now - task.submitted_at
                )
        return [task.public() for task in tasks]
        yield  # pragma: no cover

    def _op_renew(self, request: AuthenticatedRequest):
        p = request.payload
        return self.queue.renew(
            p["task_id"], p["claim_token"], lease=p.get("lease")
        )
        yield  # pragma: no cover

    def _op_complete(self, request: AuthenticatedRequest):
        p = request.payload
        task = self.queue.tasks.get(p["task_id"])
        ok = self.queue.complete(
            p["task_id"], p["claim_token"], result=p.get("result")
        )
        if ok and task is not None:
            self._count("completed", task.type)
            self._observe_age(
                "stage_latency", task.type,
                self.server.sim.now - task.claimed_at,
            )
        elif task is not None:
            self._count("stale", task.type)
        return ok
        yield  # pragma: no cover

    def _op_fail(self, request: AuthenticatedRequest):
        p = request.payload
        task = self.queue.tasks.get(p["task_id"])
        state = self.queue.fail(
            p["task_id"], p["claim_token"],
            error=p.get("error", ""),
            retryable=p.get("retryable", True),
        )
        if task is not None:
            if state is None:
                self._count("stale", task.type)
            else:
                self._count("failed", task.type)
                if state == "dead":
                    self._count("dead", task.type)
        return state
        yield  # pragma: no cover

    def _op_counts(self, request: AuthenticatedRequest):
        return self.queue.counts()
        yield  # pragma: no cover


class TaskQueueProxy:
    """Site-side client of the queue service (one RPC per method)."""

    def __init__(self, client: RequestClient, queue_host: str):
        self.client = client
        self.queue_host = queue_host

    def _call(self, operation: str, payload: dict,
              n_items: int = 0, idempotent: bool = False) -> Process:
        return self.client.call(
            self.queue_host,
            operation,
            payload,
            size=REQUEST_MESSAGE_SIZE + TASK_ITEM_SIZE * n_items,
            idempotent=idempotent,
        )

    def submit(self, type: str, site: str, payload: dict,
               key: Optional[str] = None) -> Process:
        return self._call("task.submit", {
            "type": type, "site": site, "payload": payload, "key": key,
        }, idempotent=True)

    def submit_bulk(self, tasks: list[dict]) -> Process:
        """Enqueue a batch in one envelope.  Each item: ``type``,
        ``site``, ``payload``, optional ``key``."""
        return self._call(
            "task.submit_bulk",
            {"tasks": list(tasks)},
            n_items=len(tasks),
            idempotent=True,
        )

    def claim(self, worker: str, type: str, site: str, *,
              limit: int = 1, lease: Optional[float] = None) -> Process:
        return self._call(
            "task.claim",
            {
                "worker": worker, "type": type, "site": site,
                "limit": limit, "lease": lease,
            },
            n_items=limit,
            idempotent=True,
        )

    def renew(self, task_id: int, claim_token: int,
              lease: Optional[float] = None) -> Process:
        return self._call("task.renew", {
            "task_id": task_id, "claim_token": claim_token, "lease": lease,
        }, idempotent=True)

    def complete(self, task_id: int, claim_token: int,
                 result=None) -> Process:
        return self._call("task.complete", {
            "task_id": task_id, "claim_token": claim_token,
            "result": result,
        }, idempotent=True)

    def fail(self, task_id: int, claim_token: int, error: str = "",
             retryable: bool = True) -> Process:
        return self._call("task.fail", {
            "task_id": task_id, "claim_token": claim_token,
            "error": error, "retryable": retryable,
        }, idempotent=True)

    def counts(self) -> Process:
        return self._call("task.counts", {})

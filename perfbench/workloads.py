"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload is a class with the same life cycle:

* ``__init__(seed, smoke)`` draws every input from the seed (file names,
  sizes, arrival schedules, fault-campaign seeds); the grid only ever
  receives these generated inputs;
* ``setup()`` builds the grid and seeds its data (timed as ``setup_s``);
* ``timed()`` runs the operations to convergence (timed for
  ``ops_per_s``) and returns the per-operation records;
* ``check()`` asserts the plane's invariants and returns the list of
  failed operations with reasons;
* ``bytes_needed()`` is the least the operations had to move over
  GridFTP, the denominator of ``gridftp.wasted_ratio``;
* ``fingerprint()`` folds the simulated outputs into a string whose
  digest must not depend on the host, the tick kernel or tracing.

Arrivals are an open loop in simulated time: each operation has a due
time drawn from the seed, and its latency is measured from that due time
to its verified completion, so a stall also delays the operations queued
behind it.
"""

from __future__ import annotations

import numpy as np

from repro.chunks import ChunkConfig, ChunkRuntime, build_manifest
from repro.faults import FaultInjector, site_wipe_campaign
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.tiered import TieredSpec, tiered_grid_spec
from repro.netsim.units import MB
from repro.observatory import ScenarioDriver, diurnal_scenario
from repro.observatory.station import WeatherConfig
from repro.rls import DigestConfig, RlsConfig
from repro.services.resilience import ResilienceConfig
from repro.simulation.randomness import RandomStreams
from repro.telemetry import to_prometheus_text
from repro.workload import ArrivalProfile, WorkloadEngine

__all__ = ["WORKLOADS", "OpRecord"]


class OpRecord:
    """One operation: what it was, when it was due and when it ended."""

    __slots__ = ("op", "due", "end", "error")

    def __init__(self, op: str, due: float, end: float | None = None,
                 error: str = ""):
        self.op = op
        self.due = due
        self.end = end
        self.error = error

    @property
    def latency(self) -> float:
        return self.end - self.due

    def __repr__(self) -> str:
        return f"{self.op} {self.due!r} {self.end!r} {self.error}"


def _arrivals(rng, rate: float, count: int, start: float = 0.0) -> list:
    """``count`` due times at ``rate`` per second, one drawn uniformly in
    each successive ``1/rate`` slot: open-loop arrivals whose total span
    does not swing with the seed."""
    gap = 1.0 / rate
    return [start + (i + float(rng.random())) * gap for i in range(count)]


def _dispatcher(sim, schedule, records):
    """Serve one client's scheduled operations in order.

    ``schedule`` is a list of ``(due, op_name, start_fn)`` where
    ``start_fn()`` returns the event to wait on.  The loop sleeps until
    each operation is due; a late start counts in the latency."""
    for due, name, start in schedule:
        if sim.now < due:
            yield sim.timeout(due - sim.now)
        record = OpRecord(name, due)
        try:
            yield start()
        except Exception as exc:  # a failed operation, not a crash
            record.error = f"{type(exc).__name__}: {exc}"
        record.end = sim.now
        records.append(record)


def _held_ok(grid, dest: str, lfn: str, backend) -> str:
    """'' when ``dest`` holds ``lfn`` with the catalog's CRC and exactly
    one location record, else the reason it does not."""
    site = grid.site(dest)
    path = site.server.held.get(lfn)
    if path is None or not site.fs.exists(path):
        return "replica not held"
    if not backend.lfn_exists(lfn):
        return "not in catalog"
    info = backend.info(lfn)
    stored = site.fs.stat(path)
    if stored.crc != info.crc or stored.size != info.size:
        return "CRC mismatch"
    here = [loc for loc in info.locations if loc.get("location") == dest]
    if len(here) != 1:
        return f"{len(here)} catalog entries (want exactly 1)"
    return ""


class _Workload:
    name = ""
    operation = ""
    #: grids per pass, each from its own sub-seed of the run's seed
    parts = 4

    def __init__(self, seed: int, part: int = 0, smoke: bool = False):
        self.seed = int(seed)
        self.part = int(part)
        self.rng = np.random.default_rng([self.seed, self.part, 0xB3])
        self.grid_seed = int(self.rng.integers(1, 2**31))
        self.grid = None
        self.records: list[OpRecord] = []

    def queues(self) -> list:
        """The claim queues this workload runs (for queue counts)."""
        return []

    def first_due(self) -> float:
        return min(r.due for r in self.records)

    def converged_at(self) -> float:
        """Simulated time at which the last operation completed."""
        return max(r.end for r in self.records)

    def bytes_needed(self) -> float:
        """One file of ``size`` bytes per operation."""
        return len(self.records) * self.size

    def fingerprint(self) -> str:
        lines = [f"workload {self.name} seed {self.seed} part {self.part}"]
        lines += [repr(r) for r in sorted(self.records, key=lambda r: r.op)]
        lines.append(to_prometheus_text(self.grid.metrics))
        return "\n".join(lines)


class TransferWorkload(_Workload):
    """GDMP bulk replication on the MONARC T0/T1/T2 grid, with diurnal
    background exports and weather-ranked, multi-stream GridFTP."""

    name = "transfer"
    operation = "one (file, destination) replica, verified"

    def __init__(self, seed: int, part: int = 0, smoke: bool = False):
        super().__init__(seed, part, smoke)
        self.tspec = tiered_grid_spec(TieredSpec())
        self.files = 2 if smoke else 16        # per T2 destination
        self.size = int((8 if smoke else 32) * MB)
        t2s = sorted(self.tspec.t2_sites)
        self.plan = {}
        for t2 in t2s:
            times = _arrivals(self.rng, 1.0 / 16.0, self.files, start=5.0)
            self.plan[t2] = [
                (due, f"x-{t2}-{i:03d}.dat") for i, due in enumerate(times)
            ]
        self.background_seed = int(self.rng.integers(1, 2**31))

    def _far_t1(self, t2: str) -> str:
        parent = self.tspec.parents[t2]
        return [t1 for t1 in self.tspec.t1_sites if t1 != parent][0]

    def setup(self) -> None:
        tspec = self.tspec
        grid = self.grid = DataGrid(
            [GdmpConfig(name, tcp_buffer=1 << 20)
             for name in tspec.sites],
            catalog_host=tspec.t0,
            seed=self.grid_seed,
            weather=WeatherConfig(
                weather_host=tspec.t0, push_period=5.0,
                staleness_horizon=20.0, half_life=120.0, ewma_alpha=0.4,
            ),
            wan_links=list(tspec.wan_links),
        )
        grid.enable_resilience(ResilienceConfig(rpc_timeout=10.0))
        # every file is produced at the T0 and pre-positioned at the far
        # T1, so selection chooses between the backbone and the mesh
        t0 = grid.site(tspec.t0).client
        for t2, work in sorted(self.plan.items()):
            lfns = [lfn for _, lfn in work]
            for lfn in lfns:
                grid.run(until=t0.produce_and_publish(lfn, self.size))
            grid.run(until=grid.site(self._far_t1(t2)).client.replicate_set(
                lfns, prefer_site=tspec.t0,
            ))
        self.scenario = diurnal_scenario(
            RandomStreams(self.background_seed), tspec.sites,
            horizon=600.0, period=240.0, base_rate=0.03, peak_rate=0.45,
            mean_size=35e6, sigma=0.3, sources=[tspec.t0],
            destinations=list(tspec.t1_sites),
        )

    def timed(self) -> None:
        grid = self.grid
        self.start = grid.sim.now
        grid.weather.start()
        ScenarioDriver(grid.sim, grid.engine, self.scenario,
                       grid.metrics).start()
        procs = []
        for t2, work in sorted(self.plan.items()):
            client = grid.site(t2).client
            schedule = [
                (self.start + due, f"{lfn}@{t2}",
                 lambda lfn=lfn, client=client: client.replicate(lfn))
                for due, lfn in work
            ]
            procs.append(grid.sim.spawn(
                _dispatcher(grid.sim, schedule, self.records),
                name=f"bench-{t2}",
            ))
        grid.run(until=grid.sim.all_of(procs))

    def check(self) -> list:
        backend = self.grid.catalog_backend
        failed = []
        for r in self.records:
            lfn, dest = r.op.split("@")
            why = r.error or _held_ok(self.grid, dest, lfn, backend)
            if why:
                failed.append((r.op, why))
        return failed


class RequestsWorkload(_Workload):
    """The claim-queue standing pipeline on a 3-site grid under a
    diurnal open-loop request stream, resilience on."""

    name = "requests"
    operation = ("one (lfn, destination) obligation, from its first "
                 "submission to its verified completion")
    parts = 2

    def __init__(self, seed: int, part: int = 0, smoke: bool = False):
        super().__init__(seed, part, smoke)
        self.files = 40 if smoke else 150
        self.requests = 5_000 if smoke else 75_000
        self.size = 2 * MB
        self.arrival_seed = int(self.rng.integers(1, 2**31))

    def setup(self) -> None:
        grid = self.grid = DataGrid(
            [GdmpConfig("cern"), GdmpConfig("anl"), GdmpConfig("caltech")],
            catalog_host="cern",
            seed=self.grid_seed,
        )
        grid.enable_resilience(ResilienceConfig(rpc_timeout=30.0))
        cern = grid.site("cern")
        self.lfns = [f"rq-{i:04d}.db" for i in range(self.files)]
        specs = []
        for lfn in self.lfns:
            path = cern.config.storage_path(lfn)
            cern.storage.pool.ensure_space(self.size)
            cern.fs.create(path, self.size, now=grid.sim.now)
            specs.append({"path": path, "lfn": lfn})
        grid.run(until=cern.client.publish_set(specs))
        rate = 400.0
        self.engine = WorkloadEngine(
            grid,
            ArrivalProfile(rate=rate, tick=10.0, diurnal_amplitude=0.3,
                           diurnal_period=120.0, admit_rate=rate * 1.5,
                           admit_burst=rate * 60.0),
            lfns=self.lfns, total=self.requests,
            rng=RandomStreams(self.arrival_seed)["workload.arrivals"],
        )

    def timed(self) -> None:
        grid, engine = self.grid, self.engine
        engine.start()
        grid.run(until=engine.done)
        # one record per obligation: first submission of a pick that
        # asked for it -> its verify task finishing
        queue = engine.queue
        first: dict = {}
        for task in queue.tasks.values():
            if task.type == "pick":
                for lfn in task.payload["demand"]:
                    key = (lfn, task.site)
                    if key not in first or task.submitted_at < first[key]:
                        first[key] = task.submitted_at
        for task in queue.tasks.values():
            if task.type != "xfer":
                continue
            lfn, dest = task.payload["lfn"], task.site
            record = OpRecord(f"{lfn}@{dest}", first.get((lfn, dest),
                                                         task.submitted_at))
            vt = queue._by_key.get(f"verify:{lfn}@{dest}")
            verify = queue.tasks.get(vt) if vt is not None else None
            if verify is None or verify.state != "done":
                record.error = "no completed audit"
                record.end = grid.sim.now
            else:
                record.end = verify.finished_at
            self.records.append(record)

    def queues(self) -> list:
        return [self.engine.queue]

    def check(self) -> list:
        backend = self.grid.catalog_backend
        queue = self.engine.queue
        failed = []
        for r in self.records:
            lfn, dest = r.op.split("@")
            why = r.error or _held_ok(self.grid, dest, lfn, backend)
            if why:
                failed.append((r.op, why))
        counts = queue.counts()
        if counts["dead"]:
            failed.append(("queue", f"{counts['dead']} dead tasks"))
        if queue.leaked_claims():
            failed.append(("queue", "leaked claims"))
        return failed

    def fingerprint(self) -> str:
        return super().fingerprint() + "\n" + self.engine.fingerprint()


_SITES10 = ("cern", "anl", "caltech", "slac", "fnal",
            "bnl", "ral", "in2p3", "desy", "kek")


class CatalogWorkload(_Workload):
    """The two-tier RLS life cycle on 10 sites: per-site registrations
    and replica adds beside index-routed, verify-on-use lookups."""

    name = "catalog"
    operation = "one registration, replica add or routed lookup"
    parts = 2

    def __init__(self, seed: int, part: int = 0, smoke: bool = False):
        super().__init__(seed, part, smoke)
        self.sites = list(_SITES10[:4] if smoke else _SITES10)
        self.per_site = 6 if smoke else 20      # read set, per site
        self.pool = 2                            # replica-add pool, per site
        n_lookups = 6 if smoke else 60
        n_regs = 2 if smoke else 10
        self.size = int(1 * MB)
        rng = self.rng
        read_set = [f"rd-{s}-{i:04d}.dat" for s in self.sites
                    for i in range(self.per_site)]
        self.plan: dict[str, list] = {}
        for j, site in enumerate(self.sites):
            ops = [("lookup", read_set[int(rng.integers(len(read_set)))])
                   for _ in range(n_lookups)]
            ops += [("register", f"nw-{site}-{i:04d}.dat")
                    for i in range(n_regs)]
            # each site replicates the next site's pool files
            donor = self.sites[(j + 1) % len(self.sites)]
            ops += [("replicate", f"pl-{donor}-{i:04d}.dat")
                    for i in range(self.pool)]
            order = rng.permutation(len(ops))
            times = _arrivals(rng, len(ops) / 300.0, len(ops), start=1.0)
            self.plan[site] = [
                (due, ops[int(k)][0], ops[int(k)][1])
                for due, k in zip(times, order)
            ]

    def _create(self, site, lfn: str) -> dict:
        path = site.config.storage_path(lfn)
        site.storage.pool.ensure_space(self.size)
        site.fs.create(path, self.size, now=self.grid.sim.now)
        return {"path": path, "lfn": lfn}

    def setup(self) -> None:
        grid = self.grid = DataGrid(
            [GdmpConfig(name) for name in self.sites],
            catalog_host=self.sites[0],
            seed=self.grid_seed,
            rls=RlsConfig(digest=DigestConfig(period=20.0, full_every=4),
                          lookup_timeout=10.0),
        )
        grid.enable_resilience(ResilienceConfig(rpc_timeout=10.0))
        for name in self.sites:
            site = grid.site(name)
            specs = [self._create(site, f"rd-{name}-{i:04d}.dat")
                     for i in range(self.per_site)]
            specs += [self._create(site, f"pl-{name}-{i:04d}.dat")
                      for i in range(self.pool)]
            grid.run(until=site.client.publish_set(specs))
        grid.rls.start()
        everything = grid.rls.all_lfns()
        self._await_coverage(everything, grid.sim.now + 200.0)
        if not all(self._covered(lfn) for lfn in everything):
            raise RuntimeError("index never covered the seeded files")

    def _covered(self, lfn: str) -> bool:
        states = self.grid.rls.index.states
        return all(states[s].might_hold(lfn)
                   for s in self.grid.rls.holders(lfn))

    def _await_coverage(self, lfns, deadline: float) -> None:
        grid = self.grid

        def poll():
            while grid.sim.now < deadline:
                if all(self._covered(lfn) for lfn in lfns):
                    return
                yield grid.sim.timeout(2.5)

        grid.run(until=grid.sim.spawn(poll(), name="bench-coverage"))

    def timed(self) -> None:
        grid = self.grid
        self.start = grid.sim.now
        self.answers: dict[str, tuple] = {}
        self.ops: dict[str, tuple] = {}
        procs = []
        for name in self.sites:
            site = grid.site(name)
            schedule = []
            for due, kind, lfn in self.plan[name]:
                op = f"{kind}#{len(self.ops)}:{lfn}@{name}"
                self.ops[op] = (kind, lfn, name)
                if kind == "lookup":
                    start = (lambda op=op, lfn=lfn, site=site:
                             self._lookup(site, op, lfn))
                elif kind == "register":
                    start = (lambda lfn=lfn, site=site:
                             site.client.publish_set([self._create(site, lfn)]))
                else:
                    start = (lambda lfn=lfn, site=site:
                             site.client.replicate_set([lfn]))
                schedule.append((self.start + due, op, start))
            procs.append(grid.sim.spawn(
                _dispatcher(grid.sim, schedule, self.records),
                name=f"bench-{name}",
            ))
        grid.run(until=grid.sim.all_of(procs))
        # convergence gate: the index learns every write within the
        # digest staleness bound ((full_every + 1) periods + slack)
        written = [lfn for kind, lfn, _ in self.ops.values()
                   if kind != "lookup"]
        self._await_coverage(written, grid.sim.now + 130.0)
        self.uncovered = [lfn for lfn in written if not self._covered(lfn)]

    def bytes_needed(self) -> float:
        """One file per replica add; registrations and lookups move
        nothing."""
        kinds = [kind for kind, _, _ in self.ops.values()]
        return kinds.count("replicate") * self.size

    def _lookup(self, site, op: str, lfn: str):
        def run():
            info = yield site.client.catalog.info(lfn)
            self.answers[op] = tuple(sorted(
                loc["location"] for loc in info.locations))
        return self.grid.sim.spawn(run(), name="bench-lookup")

    def check(self) -> list:
        grid = self.grid
        failed = []
        for r in self.records:
            kind, lfn, site = self.ops[r.op]
            why = r.error
            if not why and kind == "lookup":
                truth = tuple(sorted(grid.rls.holders(lfn)))
                seen = self.answers.get(r.op)
                if seen is None:
                    why = "no answer"
                elif set(seen) - set(truth):
                    why = f"phantom locations {sorted(set(seen) - set(truth))}"
                elif seen != truth:
                    why = f"answer {seen} != ground truth {truth}"
            elif not why:
                backend = grid.rls.backends[site]
                why = _held_ok(grid, site, lfn, backend)
            if not why and lfn in self.uncovered:
                why = "index never covered the write"
            if why:
                failed.append((r.op, why))
        return failed

    def fingerprint(self) -> str:
        answers = " ".join(f"{k}={','.join(v)}"
                           for k, v in sorted(self.answers.items()))
        return "\n".join([super().fingerprint(), answers,
                          self.grid.rls.fingerprint()])


_HUB = "hub"
_PLACEMENT = ("s1", "s2", "s3", "s4", "s5", "s6")


class DurabilityWorkload(_Workload):
    """(k=4, m=2) content-addressed uploads with a dedup twin, a
    two-site wipe, claim-queue scrub/repair, then verified reads."""

    name = "durability"
    operation = "one put, fetch or repair task"

    def __init__(self, seed: int, part: int = 0, smoke: bool = False):
        super().__init__(seed, part, smoke)
        self.objects = 3 if smoke else 12
        # a fixed ladder of sizes (4..12 MB) in seeded order
        sizes = self.rng.permutation(
            [4 + i % 9 for i in range(self.objects)])
        self.names = [f"obj-{i:03d}" for i in range(self.objects)]
        self.sizes = {n: float(int(s) * MB) for n, s in zip(self.names, sizes)}
        self.keys = {n: f"content-{self.seed}-{i:04d}"
                     for i, n in enumerate(self.names)}
        twin = self.names[int(self.rng.integers(self.objects))]
        self.names.append("obj-twin")
        self.sizes["obj-twin"] = self.sizes[twin]
        self.keys["obj-twin"] = self.keys[twin]
        self.put_due = _arrivals(self.rng, 1.0 / 40.0, len(self.names),
                                start=1.0)
        self.campaign_seed = int(self.rng.integers(1, 2**31))

    def setup(self) -> None:
        grid = self.grid = DataGrid(
            [GdmpConfig(name, tcp_buffer=1 << 20)
             for name in (_HUB, *_PLACEMENT)],
            catalog_host=_HUB,
            seed=self.grid_seed,
        )
        self.config = ChunkConfig(
            k=4, m=2, placement_sites=list(_PLACEMENT), scrub_sites=[_HUB],
            directory_host=_HUB, poll=2.0, lease=600.0,
        )
        self.runtime = ChunkRuntime(grid, self.config)
        hub = grid.site(_HUB)
        for name in self.names:
            hub.fs.create(f"data/{name}", self.sizes[name],
                          content_id=self.keys[name], now=grid.sim.now)

    def timed(self) -> None:
        grid, runtime = self.grid, self.runtime
        hub = runtime.store(_HUB)
        k, m = self.config.k, self.config.m
        self.start = grid.sim.now
        self.put_reports = {}

        def put(name):
            def run():
                self.put_reports[name] = yield hub.put_object(
                    name, self.sizes[name], self.keys[name], k, m)
            return grid.sim.spawn(run(), name="bench-put")

        schedule = [(self.start + due, f"put:{name}",
                     lambda name=name: put(name))
                    for due, name in zip(self.put_due, self.names)]
        grid.run(until=grid.sim.spawn(
            _dispatcher(grid.sim, schedule, self.records), name="bench-puts"))

        # two whole chunk stores die, then scrub/repair converges
        runtime.start()
        campaign = site_wipe_campaign(
            RandomStreams(self.campaign_seed), list(_PLACEMENT),
            wipes=2, start=2.0, spread=10.0,
        )
        self.schedule_repr = campaign.schedule_repr()
        victims = sorted({event.target for event in campaign.events})
        self.lost = [stored for site in victims
                     for stored in grid.site(site).fs.listing("chunks/")]
        self.injector = FaultInjector(grid, campaign)
        grid.run(until=self.injector.start())
        self.passes = clean = 0
        queue = runtime.queue_service.queue
        while clean < 2 and self.passes < 8:
            grid.run(until=runtime.run_scrub_pass(poll=2.0))
            self.passes += 1
            cycle = runtime.planner.cycle
            bad = sum(1 for t in queue.tasks.values()
                      if t.type == "repair" and t.payload.get("cycle") == cycle)
            clean = clean + 1 if bad == 0 else 0
        self.scrub_converged = clean >= 2
        for task in sorted(queue.tasks.values(), key=lambda t: t.task_id):
            if task.type == "repair":
                self.records.append(OpRecord(
                    f"repair:{task.key or task.task_id}", task.submitted_at,
                    task.finished_at if task.finished_at is not None
                    else grid.sim.now,
                    "" if task.state == "done" else f"repair {task.state}",
                ))

        # every object reads back byte-identical
        fetch_start = grid.sim.now
        self.fetch_reports = {}

        def fetch(name):
            def run():
                self.fetch_reports[name] = yield hub.fetch_object(
                    name, f"recovered/{name}")
            return grid.sim.spawn(run(), name="bench-fetch")

        schedule = [(fetch_start, f"fetch:{name}",
                     lambda name=name: fetch(name)) for name in self.names]
        grid.run(until=grid.sim.spawn(
            _dispatcher(grid.sim, schedule, self.records), name="bench-reads"))

    def queues(self) -> list:
        return [self.runtime.queue_service.queue]

    def bytes_needed(self) -> float:
        """Every stripe member of each distinct content uploaded once;
        per content that lost members, k survivors fetched and the lost
        members uploaded; k members per fetch."""
        k, m = self.config.k, self.config.m
        lost = {stored.path.rsplit("/", 1)[1] for stored in self.lost}
        contents = {self.keys[n]: n for n in reversed(self.names)}
        needed = sum(self.sizes[n] for n in self.names) \
            + sum(self.sizes[n] * (k + m) / k for n in contents.values())
        for key, name in contents.items():
            manifest, _ = build_manifest(name, self.sizes[name], key, k, m)
            ids = {spec.chunk_id for spec in manifest.chunks}
            if ids & lost:
                needed += self.sizes[name] + len(ids & lost) \
                    * manifest.chunk_size
        return needed

    def check(self) -> list:
        grid = self.grid
        hub = grid.site(_HUB)
        stripe = self.config.k + self.config.m
        failed = []
        for r in self.records:
            kind, name = r.op.split(":", 1)
            why = r.error
            if not why and kind == "fetch":
                got = hub.fs.stat(f"recovered/{name}")
                want = hub.fs.stat(f"data/{name}")
                if got.crc != want.crc or got.size != want.size:
                    why = "not reconstructed byte-identically"
            if not why and r.op == "put:obj-twin":
                twin = self.put_reports.get("obj-twin")
                if twin is None or twin.chunks_uploaded != 0 \
                        or twin.chunks_deduped != stripe:
                    why = "dedup twin moved chunks"
            if why:
                failed.append((r.op, why))
        if not self.scrub_converged:
            failed.append(("scrub", "no two consecutive clean passes"))
        queue = self.runtime.queue_service.queue
        if queue.counts()["dead"] or not queue.terminal():
            failed.append(("queue", f"scrub queue not clean: {queue.counts()}"))
        if queue.leaked_claims():
            failed.append(("queue", "leaked claims"))
        if self.injector.active_faults():
            failed.append(("faults", "fault windows still open"))
        return failed

    def fingerprint(self) -> str:
        reports = " ".join(self.fetch_reports[n].fingerprint
                           for n in sorted(self.fetch_reports))
        return "\n".join([super().fingerprint(), self.schedule_repr,
                          self.runtime.fingerprint(), reports])


WORKLOADS = {
    cls.name: cls
    for cls in (TransferWorkload, RequestsWorkload, CatalogWorkload,
                DurabilityWorkload)
}

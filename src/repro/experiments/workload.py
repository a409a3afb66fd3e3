"""EXP-WORKLOAD — the claim-based pipeline at production request volume.

The ROADMAP's north star is a grid serving *millions* of user requests,
not a scripted handful of ``replicate_set`` calls.  This experiment runs
the :mod:`repro.workload` engine end to end: an open-loop, fair-share
admitted arrival stream (default one hundred thousand requests; the
acceptance gate runs a million) flows through picker → bundler →
replicator → verifier components claiming leased tasks from the queue
service, and the run converges when every task is terminal.

Claims checked:

* **determinism** — same seed ⇒ byte-identical queue-state + admission +
  Prometheus fingerprint, arrival stream included;
* **exactly-once convergence** — every transfer obligation the stream
  created is satisfied exactly once per destination: bytes on disk, CRC
  equal to the catalog's, exactly one location record, every verify
  audit passed, zero dead tasks, zero leaked claims — including under a
  fault campaign (component crashes, host crash/restart, catalog
  black-holes) aimed at the *standing pipeline* rather than a one-shot
  transfer.

``python -m repro.experiments workload --requests=1000000 --seed=7``
runs the full-scale stream; ``--campaign=component_crash`` arms chaos.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.common import export_telemetry, print_table
from repro.faults import (
    FaultInjector,
    catalog_blackhole_campaign,
    component_crash_campaign,
    crash_restart_campaign,
    link_flap_campaign,
)
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB
from repro.services.resilience import ResilienceConfig
from repro.simulation.randomness import RandomStreams
from repro.workload import ArrivalProfile, WorkloadEngine

__all__ = ["CAMPAIGNS", "WorkloadResult", "run", "report"]

#: fault classes the workload gate can aim at the standing pipeline
CAMPAIGNS = (
    "component_crash", "crash_restart", "catalog_blackhole", "link_flap",
)


@dataclass(frozen=True)
class WorkloadResult:
    """Outcome + invariant checks for one workload run."""

    seed: int
    campaign: str            # "" = fault-free
    requests: int            # generated arrivals
    admitted: int
    shed: int                # dropped at the per-VO backlog cap
    tasks: int               # queue tasks across all stages
    coalesced: int           # keyed submissions that merged
    expired_leases: int
    duration: float          # sim-time from start to convergence
    wall_seconds: float      # host wall-clock for the whole run
    faults_injected: int
    component_crashes: int
    obligations: int         # distinct (lfn, dest) transfer obligations
    all_held: bool
    crc_ok: bool
    catalog_exact: bool
    verified: bool           # every verify task completed (none dead)
    no_dead_tasks: bool
    no_leaked_claims: bool
    no_active_faults: bool
    fingerprint: str
    errors: tuple[str, ...]

    @property
    def converged(self) -> bool:
        return (self.all_held and self.crc_ok and self.catalog_exact
                and self.verified and self.no_dead_tasks
                and self.no_leaked_claims and self.no_active_faults)

    @property
    def requests_per_second(self) -> float:
        """Sustained generated requests per wall-clock second."""
        return self.requests / self.wall_seconds if self.wall_seconds else 0.0


def _build_campaign(name: str, seed: int, grid: DataGrid,
                    engine: WorkloadEngine):
    streams = RandomStreams(seed)
    if name == "component_crash":
        return component_crash_campaign(
            streams, sorted(engine.components), start=5.0, spread=60.0,
            min_down=10.0, max_down=30.0,
        )
    if name == "crash_restart":
        # crash the origin (the only initial replica source); the
        # destinations' standing components ride out the window
        return crash_restart_campaign(
            streams, [engine.origin], start=5.0, spread=40.0,
            min_down=8.0, max_down=20.0,
        )
    if name == "catalog_blackhole":
        return catalog_blackhole_campaign(
            streams, grid.catalog_host, start=5.0, spread=40.0,
        )
    if name == "link_flap":
        links = sorted(link.name for link in grid.topology.links)
        return link_flap_campaign(streams, links, start=5.0, spread=50.0)
    raise ValueError(
        f"unknown campaign {name!r} (one of: {', '.join(CAMPAIGNS)})"
    )


def _obligations(engine: WorkloadEngine) -> dict[str, set]:
    """The transfer obligations the stream actually created, from the
    queue's own record: dest site -> set of lfns."""
    owed: dict[str, set] = {}
    for task in engine.queue.tasks.values():
        if task.type == "xfer":
            owed.setdefault(task.site, set()).add(task.payload["lfn"])
    return owed


def _verify(grid: DataGrid, engine: WorkloadEngine):
    """Ground-truth convergence invariants over every obligation."""
    errors: list[str] = []
    all_held = crc_ok = catalog_exact = True
    obligations = 0
    for dest_name in sorted(_obligations(engine)):
        owed = _obligations(engine)[dest_name]
        dest = grid.site(dest_name)
        for lfn in sorted(owed):
            obligations += 1
            path = dest.server.held.get(lfn)
            if path is None or not dest.fs.exists(path):
                all_held = False
                errors.append(f"{lfn}: not on disk at {dest_name}")
                continue
            info = grid.catalog_backend.info(lfn)
            stored = dest.fs.stat(path)
            if stored.crc != info.crc or stored.size != info.size:
                crc_ok = False
                errors.append(
                    f"{lfn}: bytes at {dest_name} disagree with the catalog"
                )
            here = [
                loc for loc in info.locations
                if loc.get("location") == dest_name
            ]
            if len(here) != 1:
                catalog_exact = False
                errors.append(
                    f"{lfn}: {len(here)} catalog entries for {dest_name} "
                    "(want exactly 1)"
                )
            # the verifier's independent audit must have passed too
            vt = engine.queue._by_key.get(f"verify:{lfn}@{dest_name}")
            if vt is None or engine.queue.tasks[vt].state != "done":
                errors.append(f"{lfn}: no completed audit at {dest_name}")
    verified = not any("audit" in e for e in errors)
    return obligations, all_held, crc_ok, catalog_exact, verified, errors


def run(
    requests: int = 100_000,
    seed: int = 2001,
    campaign: str = "",
    files: int = 48,
    size_mb: int = 2,
    rate: float = 2000.0,
    tick: float = 30.0,
    diurnal_amplitude: float = 0.3,
    metrics_json: str | None = None,
    trace_chrome: str | None = None,
    show_report: bool = False,
) -> WorkloadResult:
    """Run the standing pipeline over a 3-site grid until convergence."""
    from repro.telemetry import to_prometheus_text

    wall_started = time.perf_counter()
    grid = DataGrid(
        [GdmpConfig("cern"), GdmpConfig("anl"), GdmpConfig("caltech")],
        catalog_host="cern",
        seed=seed,
    )
    grid.enable_resilience(ResilienceConfig(rpc_timeout=30.0))
    cern = grid.site("cern")
    lfns = [f"wl-{i:03d}.db" for i in range(files)]
    specs = []
    for lfn in lfns:
        path = cern.config.storage_path(lfn)
        cern.storage.pool.ensure_space(size_mb * MB)
        cern.fs.create(path, size_mb * MB, now=grid.sim.now)
        specs.append({"path": path, "lfn": lfn})
    grid.run(until=cern.client.publish_set(specs))

    profile = ArrivalProfile(
        rate=rate,
        tick=tick,
        diurnal_amplitude=diurnal_amplitude,
        admit_rate=rate * 1.5,
        admit_burst=rate * tick * 2,
    )
    engine = WorkloadEngine(
        grid, profile, lfns=lfns, total=requests,
        rng=RandomStreams(seed)["workload.arrivals"],
    )

    schedule = ""
    injector = None
    campaign_proc = None
    started = grid.sim.now
    engine.start()
    if campaign:
        fault_campaign = _build_campaign(campaign, seed, grid, engine)
        schedule = fault_campaign.schedule_repr()
        injector = FaultInjector(grid, fault_campaign)
        campaign_proc = injector.start()
    grid.run(until=engine.done)
    duration = grid.sim.now - started
    if campaign_proc is not None:
        # drain the rest of the schedule (and let re-claims settle) so
        # invariants are checked with every fault window closed
        grid.run(until=campaign_proc)
        grid.run(until=grid.sim.timeout(engine.supervise_interval * 2))

    (obligations, all_held, crc_ok, catalog_exact,
     verified, errors) = _verify(grid, engine)
    counts = engine.queue.counts()
    leaked = engine.queue.leaked_claims()
    if counts["dead"]:
        errors.append(f"{counts['dead']} tasks dead (want 0)")
    if leaked:
        errors.append(f"leaked claims: {leaked}")
    no_active = injector is None or not injector.active_faults()
    if not no_active:
        errors.append(f"fault windows still open: {injector.active_faults()}")

    fingerprint = "\n".join(
        filter(None, [
            schedule,
            engine.fingerprint(),
            to_prometheus_text(grid.metrics),
        ])
    )
    export_telemetry(
        grid.metrics, grid.tracelog,
        metrics_json=metrics_json, trace_chrome=trace_chrome,
        show_report=show_report,
    )
    summary = engine.summary()
    return WorkloadResult(
        seed=seed,
        campaign=campaign,
        requests=summary["generated"],
        admitted=summary["admitted"],
        shed=summary["shed"],
        tasks=summary["tasks"],
        coalesced=summary["coalesced"],
        expired_leases=summary["expired_leases"],
        duration=duration,
        wall_seconds=time.perf_counter() - wall_started,
        faults_injected=injector.injected if injector else 0,
        component_crashes=sum(
            c.crashes for c in engine.components.values()
        ),
        obligations=obligations,
        all_held=all_held,
        crc_ok=crc_ok,
        catalog_exact=catalog_exact,
        verified=verified,
        no_dead_tasks=counts["dead"] == 0,
        no_leaked_claims=not leaked,
        no_active_faults=no_active,
        fingerprint=fingerprint,
        errors=tuple(errors),
    )


def report(result: WorkloadResult) -> None:
    """Print the convergence/scale verdict."""
    verdict = "CONVERGED" if result.converged else "FAILED"
    title = (
        f"EXP-WORKLOAD — seed {result.seed}, "
        f"{result.requests:,} requests"
        + (f", campaign {result.campaign}" if result.campaign else "")
        + f": {verdict}"
    )
    print_table(
        ["check", "value"],
        [
            ["requests generated", f"{result.requests:,}"],
            ["requests admitted", f"{result.admitted:,}"],
            ["requests shed", f"{result.shed:,}"],
            ["queue tasks", result.tasks],
            ["keyed coalesces", result.coalesced],
            ["expired leases", result.expired_leases],
            ["faults injected", result.faults_injected],
            ["component crashes", result.component_crashes],
            ["transfer obligations", result.obligations],
            ["sim-time to converge (s)", f"{result.duration:.1f}"],
            ["sustained requests/s (wall)",
             f"{result.requests_per_second:,.0f}"],
            ["all replicas held", result.all_held],
            ["CRCs intact", result.crc_ok],
            ["catalog exactly-once", result.catalog_exact],
            ["audits complete", result.verified],
            ["no dead tasks", result.no_dead_tasks],
            ["no leaked claims", result.no_leaked_claims],
        ],
        title,
    )
    for line in result.errors:
        print(f"  !! {line}")
    print()


def main(
    requests: int = 100_000,
    seed: int = 2001,
    campaign: str | None = None,
    metrics_json: str | None = None,
    trace_chrome: str | None = None,
    show_report: bool = False,
) -> None:
    """Run the workload experiment (optionally under one fault class)."""
    if campaign and campaign not in CAMPAIGNS:
        raise SystemExit(
            f"unknown campaign {campaign!r} (one of: {', '.join(CAMPAIGNS)})"
        )
    report(run(
        requests=requests,
        seed=seed,
        campaign=campaign or "",
        metrics_json=metrics_json,
        trace_chrome=trace_chrome,
        show_report=show_report,
    ))

"""EXP-CHUNKS — erasure-coded chunk placement, scrub/repair, durability.

A seven-site grid: one hub (directory, scrub fleet, reader) plus six
placement sites.  Objects are uploaded from the hub as (k=4, m=2)
content-addressed stripes — six chunks, each on a *distinct* placement
site — so the durability contract is "any two site losses survivable".
One object pair shares a content key, demonstrating chunk-level dedup
(the second upload transfers nothing).

Three campaign legs, one seed each:

* **fault-free** — a scrub pass finds every replica healthy; fetches
  ride the systematic passthrough (no decode, no repair traffic);
* **chunk_corrupt** — silent bit rot in stored chunks.  CKSM scrubbing
  detects every corruption (TCP never would), the repairer re-encodes
  exactly the damaged members, and convergence is two consecutive clean
  passes;
* **site_wipe** — two whole chunk stores destroyed (the full ``m``
  budget).  Every object loses exactly two stripe members; repair
  reconstructs all of them and the read path recovers every object
  byte-identically even *before* repair (any-4-of-6).

The repair-traffic claim: rebuilding a lost member moves
``(k + lost)/k`` object-sizes (fetch k survivors, upload the rebuilt
members) versus ``lost`` whole objects for replication at equal
durability (3 full copies tolerate the same two site losses).  For the
two-site wipe that is 1.5 vs 2.0 object-sizes — a 1.33x saving,
recorded as ``repair_savings`` and floor-gated in BENCH_chunks.json.

Exactly-once: chunk uploads are idempotent (content addressing +
verify-don't-trust on 553), ``chunk.commit``/``chunk.repair_done`` are
replayed to retries by the bus's exactly-once middleware, repair
re-verifies before spending traffic, and the converged state must fetch
byte-identical fingerprints.

``python -m repro.experiments chunks --seed=7 --campaign=site_wipe``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.chunks import ChunkConfig, ChunkRuntime
from repro.experiments.common import export_telemetry, print_table
from repro.faults import (
    FaultInjector,
    chunk_corrupt_campaign,
    site_wipe_campaign,
)
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB
from repro.simulation.randomness import RandomStreams

__all__ = ["CAMPAIGNS", "ChunksResult", "run", "report"]

#: fault classes this experiment can arm
CAMPAIGNS = ("chunk_corrupt", "site_wipe")

#: consecutive all-clean scrub passes that mean "converged"
CLEAN_PASSES = 2

#: scrub passes before declaring the repair loop stuck
MAX_PASSES = 8

_HUB = "hub"
_PLACEMENT = ("s1", "s2", "s3", "s4", "s5", "s6")


@dataclass(frozen=True)
class ChunksResult:
    """Outcome + invariant checks for one EXP-CHUNKS run."""

    seed: int
    campaign: str              # "" = fault-free
    sites: int
    objects: int
    k: int
    m: int
    chunks_uploaded: int
    chunks_deduped: int
    put_bytes: float
    faults_injected: int
    scrub_passes: int
    scrub_ok: int              # healthy probe outcomes, all passes
    scrub_bad: int             # corrupt + missing + unreachable outcomes
    chunks_repaired: int       # stripe members re-encoded and re-placed
    repair_bytes: float        # fetched + uploaded by the repairer
    whole_file_bytes: float    # replication-equivalent repair traffic
    objects_fetched: int
    decodes: int               # fetches that needed real GF(256) math
    fetch_failovers: int
    dedup_ok: bool             # shared-content upload moved zero chunks
    detection_ok: bool         # every injected damage was found
    fingerprints_ok: bool      # every fetch reproduced its manifest fp
    repair_cheaper: bool       # repair_bytes < whole_file_bytes (wipe leg)
    queue_clean: bool          # no dead tasks, no backlog
    duration: float
    wall_seconds: float
    fingerprint: str
    errors: tuple[str, ...]

    @property
    def repair_savings(self) -> float:
        """Replication-equivalent bytes over chunked repair bytes
        (>1 = chunked repair is cheaper)."""
        if self.repair_bytes <= 0:
            return 0.0
        return self.whole_file_bytes / self.repair_bytes

    @property
    def converged(self) -> bool:
        return (self.dedup_ok and self.detection_ok
                and self.fingerprints_ok and self.repair_cheaper
                and self.queue_clean and not self.errors)


def _build_campaign(name: str, seed: int):
    streams = RandomStreams(seed)
    if name == "chunk_corrupt":
        return chunk_corrupt_campaign(
            streams, list(_PLACEMENT), corruptions=4,
            start=2.0, spread=20.0,
        )
    if name == "site_wipe":
        return site_wipe_campaign(
            streams, list(_PLACEMENT), wipes=2,
            start=2.0, spread=10.0,
        )
    raise ValueError(
        f"unknown campaign {name!r} (one of: {', '.join(CAMPAIGNS)})"
    )


def _counter_total(grid, name: str, **labels) -> float:
    """Sum one counter family across its label sets."""
    if grid.metrics is None:
        return 0.0
    total = 0.0
    for child in grid.metrics.children(name):
        have = dict(child.labels)
        if all(have.get(k) == str(v) for k, v in labels.items()):
            total += child.value
    return total


def run(
    objects: int = 6,
    seed: int = 2001,
    campaign: str = "",
    size_mb: float = 24.0,
    metrics_json: str | None = None,
    trace_chrome: str | None = None,
    show_report: bool = False,
) -> ChunksResult:
    """One EXP-CHUNKS leg: upload, break, scrub/repair, verify reads."""
    from repro.telemetry import to_prometheus_text

    wall_started = time.perf_counter()
    errors: list[str] = []
    size = float(int(size_mb * MB))
    grid = DataGrid(
        [GdmpConfig(name, tcp_buffer=1 << 20)
         for name in (_HUB, *_PLACEMENT)],
        catalog_host=_HUB,
        seed=seed,
    )
    config = ChunkConfig(
        k=4, m=2,
        placement_sites=list(_PLACEMENT),
        scrub_sites=[_HUB],
        directory_host=_HUB,
        poll=2.0,
        lease=600.0,
    )
    runtime = ChunkRuntime(grid, config)
    hub = runtime.store(_HUB)

    # -- upload: distinct objects plus one shared-content pair ------------
    names = [f"obj-{i:02d}" for i in range(objects)]
    keys = {name: f"content-{i:04d}" for i, name in enumerate(names)}
    names.append("obj-twin")
    keys["obj-twin"] = keys[names[0]]       # dedup pair with obj-00
    put_reports = []
    for name in names:
        grid.site(_HUB).fs.create(
            f"data/{name}", size, content_id=keys[name], now=grid.sim.now
        )
        put_reports.append(grid.run(until=hub.put_object(
            name, size, keys[name], config.k, config.m
        )))
    uploaded = sum(r.chunks_uploaded for r in put_reports)
    deduped = sum(r.chunks_deduped for r in put_reports)
    put_bytes = sum(r.bytes_uploaded for r in put_reports)
    stripe = config.k + config.m
    dedup_ok = (
        put_reports[-1].chunks_uploaded == 0
        and put_reports[-1].chunks_deduped == stripe
    )
    if not dedup_ok:
        errors.append(
            f"dedup failed: twin upload moved "
            f"{put_reports[-1].chunks_uploaded} chunks"
        )

    # -- break things -----------------------------------------------------
    runtime.start()
    fault_campaign = _build_campaign(campaign, seed) if campaign else None
    injector = None
    if fault_campaign is not None:
        injector = FaultInjector(grid, fault_campaign)
        grid.run(until=injector.start())

    # -- scrub until converged: CLEAN_PASSES consecutive all-clean --------
    clean = 0
    passes = 0
    while clean < CLEAN_PASSES and passes < MAX_PASSES:
        grid.run(until=runtime.run_scrub_pass(poll=2.0))
        passes += 1
        cycle = runtime.planner.cycle
        bad = sum(
            1 for task in runtime.queue_service.queue.tasks.values()
            if task.type == "repair"
            and task.payload.get("cycle") == cycle
        )
        clean = clean + 1 if bad == 0 else 0
    if clean < CLEAN_PASSES:
        errors.append(
            f"scrub never converged: {passes} passes without "
            f"{CLEAN_PASSES} consecutive clean ones"
        )

    # -- verify the read path: every object byte-identical ----------------
    fetch_reports = []
    for name in names:
        try:
            fetched = grid.run(until=hub.fetch_object(
                name, f"recovered/{name}"
            ))
        except Exception as exc:
            errors.append(f"fetch of {name!r} failed: {exc}")
            continue
        fetch_reports.append(fetched)
        recovered = grid.site(_HUB).fs.stat(f"recovered/{name}")
        original = grid.site(_HUB).fs.stat(f"data/{name}")
        if recovered.crc != original.crc or recovered.size != original.size:
            errors.append(f"{name!r} did not reconstruct byte-identically")
    fingerprints_ok = len(fetch_reports) == len(names) and not any(
        "reconstruct" in e or "fetch" in e for e in errors
    )

    # -- accounting -------------------------------------------------------
    scrub_ok = int(_counter_total(grid, "chunks.scrub", outcome="ok"))
    scrub_bad = int(
        _counter_total(grid, "chunks.scrub")
        - _counter_total(grid, "chunks.scrub", outcome="ok")
    )
    repaired = int(_counter_total(
        grid, "chunks.repair", event="chunks_rebuilt"
    ))
    repair_bytes = (
        _counter_total(grid, "chunks.repair", event="bytes_fetched")
        + _counter_total(grid, "chunks.repair", event="bytes_uploaded")
    )
    # replication at equal durability (3 full copies) loses one whole
    # copy per stripe member this campaign destroyed
    whole_file_bytes = repaired * size
    if campaign == "site_wipe":
        repair_cheaper = 0 < repair_bytes < whole_file_bytes
        if not repair_cheaper:
            errors.append(
                f"repair traffic {repair_bytes:.0f} B not below "
                f"whole-file re-replication {whole_file_bytes:.0f} B"
            )
        # the full m budget: every stripe must have lost exactly 2 members
        distinct_stripes = objects  # twin shares obj-00's stripe
        if repaired != 2 * distinct_stripes:
            errors.append(
                f"expected {2 * distinct_stripes} rebuilt members "
                f"after a 2-site wipe, repaired {repaired}"
            )
    else:
        repair_cheaper = True
    detection_ok = True
    if campaign and injector is not None:
        applied = injector.injected - injector.monitor.counters.get(
            "chunk_corrupt_noop", 0
        )
        if applied > 0 and scrub_bad == 0:
            detection_ok = False
            errors.append(
                f"{applied} faults applied but scrubbing found nothing"
            )
        if campaign == "chunk_corrupt" and repaired == 0 and applied > 0:
            detection_ok = False
            errors.append("corruption was detected but never repaired")
    queue = runtime.queue_service.queue
    counts = queue.counts()
    queue_clean = counts["dead"] == 0 and queue.terminal()
    if not queue_clean:
        errors.append(f"scrub queue not clean at end: {counts}")

    fingerprint = "\n".join(
        filter(None, [
            fault_campaign.schedule_repr() if fault_campaign else "",
            runtime.fingerprint(),
            " ".join(r.fingerprint for r in fetch_reports),
            to_prometheus_text(grid.metrics),
        ])
    )
    export_telemetry(
        grid.metrics, grid.tracelog,
        metrics_json=metrics_json, trace_chrome=trace_chrome,
        show_report=show_report,
    )
    return ChunksResult(
        seed=seed,
        campaign=campaign,
        sites=len(grid.sites),
        objects=len(names),
        k=config.k,
        m=config.m,
        chunks_uploaded=uploaded,
        chunks_deduped=deduped,
        put_bytes=put_bytes,
        faults_injected=injector.injected if injector else 0,
        scrub_passes=passes,
        scrub_ok=scrub_ok,
        scrub_bad=scrub_bad,
        chunks_repaired=repaired,
        repair_bytes=repair_bytes,
        whole_file_bytes=whole_file_bytes,
        objects_fetched=len(fetch_reports),
        decodes=sum(1 for r in fetch_reports if r.decoded),
        fetch_failovers=sum(r.failovers for r in fetch_reports),
        dedup_ok=dedup_ok,
        detection_ok=detection_ok,
        fingerprints_ok=fingerprints_ok,
        repair_cheaper=repair_cheaper,
        queue_clean=queue_clean,
        duration=grid.sim.now,
        wall_seconds=time.perf_counter() - wall_started,
        fingerprint=fingerprint,
        errors=tuple(errors),
    )


def report(result: ChunksResult) -> None:
    """Print the durability verdict."""
    verdict = "CONVERGED" if result.converged else "FAILED"
    title = (
        f"EXP-CHUNKS — seed {result.seed}, {result.sites} sites, "
        f"{result.objects} objects as ({result.k},{result.m}) stripes"
        + (f", campaign {result.campaign}" if result.campaign else "")
        + f": {verdict}"
    )
    print_table(
        ["check", "value"],
        [
            ["chunks uploaded (deduped)",
             f"{result.chunks_uploaded} ({result.chunks_deduped})"],
            ["upload bytes", f"{result.put_bytes:.3e}"],
            ["faults injected", result.faults_injected],
            ["scrub passes", result.scrub_passes],
            ["probe outcomes ok/bad",
             f"{result.scrub_ok}/{result.scrub_bad}"],
            ["stripe members repaired", result.chunks_repaired],
            ["repair bytes", f"{result.repair_bytes:.3e}"],
            ["whole-file equivalent", f"{result.whole_file_bytes:.3e}"],
            ["repair savings", f"{result.repair_savings:.2f}x"],
            ["objects fetched", result.objects_fetched],
            ["fetches needing decode", result.decodes],
            ["fetch failovers", result.fetch_failovers],
            ["dedup moved zero chunks", result.dedup_ok],
            ["damage detected", result.detection_ok],
            ["byte-identical fetches", result.fingerprints_ok],
            ["repair cheaper than whole-file", result.repair_cheaper],
            ["scrub queue clean", result.queue_clean],
            ["sim-time (s)", f"{result.duration:.1f}"],
            ["wall time (s)", f"{result.wall_seconds:.1f}"],
        ],
        title,
    )
    for line in result.errors:
        print(f"  !! {line}")
    print()


def main(
    objects: int = 6,
    seed: int = 2001,
    campaign: str | None = None,
    metrics_json: str | None = None,
    trace_chrome: str | None = None,
    show_report: bool = False,
) -> None:
    """Run EXP-CHUNKS (optionally under one fault class)."""
    if campaign and campaign not in CAMPAIGNS:
        raise SystemExit(
            f"unknown campaign {campaign!r} (one of: {', '.join(CAMPAIGNS)})"
        )
    report(run(
        objects=objects,
        seed=seed,
        campaign=campaign or "",
        metrics_json=metrics_json,
        trace_chrome=trace_chrome,
        show_report=show_report,
    ))

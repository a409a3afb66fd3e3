"""EXP-WEATHER — history-based replica selection on a tiered grid.

A MONARC-style T0/T1/T2 tree (one Tier-0, two meshed Tier-1 regions,
two Tier-2 sites per region) runs the same congestion story twice, from
the same seed:

* the **smart** leg wires the grid weather service in: every retired
  transfer feeds the station's per-pair history, forecast digests are
  pushed to the site caches, and replica selection blends predicted
  transfer times with instantaneous probes;
* the **static** leg is the identical grid with the observatory off —
  selection uses the pre-observatory probe ladder only.

The measured demand is cross-region: each T2's files are held at the T0
*and* at the far region's T1 (never at its own parent), so selection
must choose between the T0 backbone path and the slimmer T1–T1 mesh.
Probes price the backbone path above the mesh (40 vs 35 probe-available
Mbit/s), but a diurnal wave of real elastic production exports out of
the T0 saturates the backbone with traffic instantaneous probes cannot
see — ``pipechar`` reports capacity minus *constant* cross-traffic —
while the station's history sees achieved throughput.  The smart leg's
own first slow transfer becomes a history sample, the digest push
carries it to the site caches within one push period, and the rest of
the wave routes over the mesh; the static leg keeps paying the
congested backbone.  The experiment asserts:

* **fault-free speed-up** — smart mean completion time beats static
  under the congestion peak, and the post-peak wave keeps selecting on
  history (the adaptation persists);
* **bounded degradation** — under the ``weather_blackhole`` campaign
  (the weather plane black-holed grid-wide) the site caches age past
  the staleness horizon, selection demonstrably falls back to probes,
  stays within a bounded factor of the static leg (degradation, not
  failure), and reconverges onto history after the restore;
* **fault resilience** — under ``link_flap`` (mesh links) and
  ``crash_restart`` (T1 hosts) every measured transfer still completes
  in both legs, via the ranked-replica failover walk.

``python -m repro.experiments weather --seed=11`` runs it;
``--campaign=weather_blackhole|link_flap|crash_restart`` arms chaos.
The wall-clock leg lives in ``benchmarks/bench_weather.py`` (recorded
in BENCH_weather.json, floor-gated by ``tools/perf_report.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.common import export_telemetry, print_table
from repro.faults import (
    FaultInjector,
    crash_restart_campaign,
    link_flap_campaign,
    weather_blackhole_campaign,
)
from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.tiered import TieredSpec, tiered_grid_spec
from repro.netsim.units import MB
from repro.observatory import ScenarioDriver, diurnal_scenario
from repro.observatory.station import WeatherConfig
from repro.services.resilience import ResilienceConfig
from repro.simulation.randomness import RandomStreams

__all__ = ["CAMPAIGNS", "WeatherResult", "run", "report"]

#: fault classes the weather gate can arm
CAMPAIGNS = ("weather_blackhole", "link_flap", "crash_restart")

#: smart leg never slower than static by more than this factor
DEGRADATION_BOUND = 1.15

#: observatory cadence used by the experiment: pushes every 5 s, caches
#: stale after 20 s — so a 25 s+ black-hole window demonstrably forces
#: the probe fallback, and one landed push reconverges selection
_WEATHER = dict(
    push_period=5.0,
    staleness_horizon=20.0,
    half_life=120.0,
    ewma_alpha=0.4,
)


@dataclass(frozen=True)
class WeatherResult:
    """Outcome + invariant checks for one EXP-WEATHER run."""

    seed: int
    campaign: str              # "" = fault-free
    sites: int
    files: int                 # measured files per T2 destination
    measured: int              # measured transfers per leg
    smart_mean: float          # mean completion time, smart leg (s)
    static_mean: float         # mean completion time, static leg (s)
    smart_completed: int
    static_completed: int
    history_selections: int    # measured-wave rankings decided on history
    probe_fallbacks: int       # measured-wave rankings degraded to probes
    post_history: int          # post-wave rankings decided on history
    digests_applied: int
    pushes: int
    pushes_lost: int
    bg_launched: int           # background scenario transfers opened
    bg_aborted: int
    faults_injected: int
    speedup_ok: bool           # smart beat static (fault-free contract)
    bounded_ok: bool           # smart within DEGRADATION_BOUND of static
    completion_ok: bool        # every measured transfer completed
    degraded_ok: bool          # blackhole forced probe fallbacks
    reconverged: bool          # post-wave selections ride history again
    no_active_faults: bool
    duration: float            # sim-time, smart leg
    wall_seconds: float
    fingerprint: str
    errors: tuple[str, ...]

    @property
    def improvement(self) -> float:
        """Static mean over smart mean (>1 = smart is faster)."""
        return self.static_mean / self.smart_mean if self.smart_mean else 0.0

    @property
    def converged(self) -> bool:
        return (self.speedup_ok and self.bounded_ok and self.completion_ok
                and self.degraded_ok and self.reconverged
                and self.no_active_faults and not self.errors)


def _far_t1(tspec, t2: str) -> str:
    """The *other* region's T1 — the mesh-path replica holder."""
    parent = tspec.parents[t2]
    others = [t1 for t1 in tspec.t1_sites if t1 != parent]
    return others[0]


def _build_campaign(name: str, seed: int, tspec):
    streams = RandomStreams(seed)
    if name == "weather_blackhole":
        return weather_blackhole_campaign(
            streams, tspec.t0, windows=2,
            start=5.0, spread=40.0, min_down=25.0, max_down=45.0,
        )
    if name == "link_flap":
        mesh = [
            link.name
            for _, _, link, *_ in tspec.wan_links
            if link.name.startswith("t1x-")
        ]
        return link_flap_campaign(
            streams, mesh, flaps=3,
            start=5.0, spread=50.0, min_down=4.0, max_down=10.0,
        )
    if name == "crash_restart":
        return crash_restart_campaign(
            streams, list(tspec.t1_sites), crashes=2,
            start=8.0, spread=40.0, min_down=8.0, max_down=15.0,
        )
    raise ValueError(
        f"unknown campaign {name!r} (one of: {', '.join(CAMPAIGNS)})"
    )


def _produce_wave(grid, site: str, lfns, size: float) -> None:
    for lfn in lfns:
        grid.run(until=grid.site(site).client.produce_and_publish(lfn, size))


def _selection_totals(grid) -> dict:
    if grid.weather is None:
        return {"history_selections": 0, "probe_fallbacks": 0,
                "digests_applied": 0, "digests_stale": 0}
    return grid.weather.selection_stats()


def _measured_wave(grid, plan, durations, errors, label, trace=None):
    """Spawn one sequential puller per region (so the T1 mesh carries at
    most one measured flow per direction); returns the processes.

    ``plan`` maps region index -> list of (dst_t2, lfn), pulled in
    order.  Completion times land in ``durations``; ``trace`` (when
    given) collects (dst, lfn, chosen source, duration) for debugging.
    """

    def puller(work):
        for dst, lfn in work:
            started = grid.sim.now
            try:
                report = yield grid.site(dst).client.replicate(lfn)
            except Exception as exc:
                errors.append(f"{label}: {dst} <- {lfn} failed: {exc}")
                continue
            took = grid.sim.now - started
            durations.append(took)
            if trace is not None:
                trace.append((dst, lfn, report.source, started, took))

    return [
        grid.sim.spawn(puller(work), name=f"measured-r{region}")
        for region, work in sorted(plan.items())
    ]


def _run_leg(
    smart: bool,
    seed: int,
    tspec,
    scenario,
    campaign,
    files: int,
    size_mb: float,
    ramp: float,
):
    """One full leg (smart or static) from a fresh grid; returns a dict
    of everything the caller folds into the result/fingerprint."""
    weather = (
        WeatherConfig(weather_host=tspec.t0, **_WEATHER) if smart else None
    )
    # tuned 1 MiB buffers (the §6 result) so measured transfers are
    # bandwidth-limited, not window-limited — congestion on the path is
    # what decides completion time
    grid = DataGrid(
        [GdmpConfig(name, tcp_buffer=1 << 20) for name in tspec.sites],
        catalog_host=tspec.t0,
        seed=seed,
        weather=weather,
        wan_links=list(tspec.wan_links),
    )
    grid.enable_resilience(ResilienceConfig(rpc_timeout=10.0))
    errors: list[str] = []
    size = int(size_mb * MB)
    t2s = sorted(tspec.t2_sites)

    # -- publish: measured + post files at the T0, far-warmup files at
    #    the far T1s (each T2's candidate sources are {T0, far T1};
    #    its own parent never holds the set, so selection has to choose
    #    between the backbone path and the mesh path)
    measured = {t2: [f"m-{t2}-{i:02d}.dat" for i in range(files)]
                for t2 in t2s}
    warm_t0 = {t2: [f"w0-{t2}-{i}.dat" for i in range(2)] for t2 in t2s}
    warm_far = {t2: [f"wf-{t2}-{i}.dat" for i in range(2)] for t2 in t2s}
    post = {t2: f"p-{t2}.dat" for t2 in t2s}
    for t2 in t2s:
        _produce_wave(
            grid, tspec.t0,
            measured[t2] + warm_t0[t2] + [post[t2]], size,
        )
        _produce_wave(grid, _far_t1(tspec, t2), warm_far[t2], size)
    # pre-position the measured + post sets at the far T1s (uncongested)
    for t2 in t2s:
        far = _far_t1(tspec, t2)
        grid.run(until=grid.site(far).client.replicate_set(
            measured[t2] + [post[t2]], prefer_site=tspec.t0,
        ))

    if smart:
        grid.weather.start()

    # -- warmup: seed both candidate pairs' histories before congestion
    for t2 in t2s:
        grid.run(until=grid.site(t2).client.replicate_set(warm_t0[t2]))
        grid.run(until=grid.site(t2).client.replicate_set(warm_far[t2]))

    # -- congestion + measured wave at the diurnal ramp
    driver = ScenarioDriver(grid.sim, grid.engine, scenario, grid.metrics)
    driver.start()
    grid.run(until=grid.sim.timeout(ramp))

    injector = None
    campaign_proc = None
    if campaign is not None:
        injector = FaultInjector(grid, campaign)
        campaign_proc = injector.start()

    before = _selection_totals(grid)
    # interleave each region's two T2s so the mesh never carries more
    # than one measured flow per direction
    plan = {}
    for t2 in t2s:
        region = tspec.t1_sites.index(tspec.parents[t2])
        plan.setdefault(region, [])
    for i in range(files):
        for t2 in t2s:
            region = tspec.t1_sites.index(tspec.parents[t2])
            plan[region].append((t2, measured[t2][i]))
    durations: list[float] = []
    trace: list[tuple] = []
    for proc in _measured_wave(
        grid, plan, durations, errors, "measured", trace
    ):
        grid.run(until=proc)
    after = _selection_totals(grid)

    # -- settle: close any remaining fault windows, let pushes land
    if campaign_proc is not None:
        grid.run(until=campaign_proc)
    grid.run(until=grid.sim.timeout(3 * _WEATHER["push_period"]))

    # -- post wave: one fresh file per T2, after the faults/peak — the
    #    smart leg must be back on (or still on) history selections
    post_before = _selection_totals(grid)
    post_durations: list[float] = []
    post_plan = {}
    for t2 in t2s:
        region = tspec.t1_sites.index(tspec.parents[t2])
        post_plan.setdefault(region, []).append((t2, post[t2]))
    for proc in _measured_wave(
        grid, post_plan, post_durations, errors, "post"
    ):
        grid.run(until=proc)
    post_after = _selection_totals(grid)

    no_active = injector is None or not injector.active_faults()
    if not no_active:
        errors.append(
            f"fault windows still open: {injector.active_faults()}"
        )
    return {
        "grid": grid,
        "durations": durations,
        "trace": trace,
        "post_durations": post_durations,
        "selection_delta": {
            key: after[key] - before[key] for key in before
        },
        "post_delta": {
            key: post_after[key] - post_before[key] for key in post_before
        },
        "bg_stats": dict(driver.stats),
        "faults_injected": injector.injected if injector else 0,
        "no_active_faults": no_active,
        "errors": errors,
        "measured_count": sum(len(v) for v in measured.values()),
    }


def run(
    files: int = 4,
    seed: int = 2001,
    campaign: str = "",
    size_mb: float = 24.0,
    ramp: float = 120.0,
    metrics_json: str | None = None,
    trace_chrome: str | None = None,
    show_report: bool = False,
) -> WeatherResult:
    """Run both legs of EXP-WEATHER from one seed and compare them."""
    from repro.telemetry import to_prometheus_text

    wall_started = time.perf_counter()
    tspec = tiered_grid_spec(TieredSpec())
    streams = RandomStreams(seed)
    # production exports follow the sun: T0 -> T1 waves saturate the
    # backbones through the peak (while probes keep quoting the idle-
    # capacity price) and leave the regional tails and the mesh clear
    scenario = diurnal_scenario(
        streams,
        tspec.sites,
        horizon=600.0,
        period=240.0,
        base_rate=0.02,
        peak_rate=0.35,
        mean_size=150e6,
        sources=[tspec.t0],
        destinations=list(tspec.t1_sites),
    )
    fault_campaign = (
        _build_campaign(campaign, seed, tspec) if campaign else None
    )
    # the weather black-hole only exists in the smart leg (the static
    # grid has no weather plane to break — it is the degraded baseline)
    static_campaign = (
        None if campaign == "weather_blackhole" else fault_campaign
    )

    smart = _run_leg(
        True, seed, tspec, scenario, fault_campaign, files, size_mb, ramp
    )
    static = _run_leg(
        False, seed, tspec, scenario, static_campaign, files, size_mb, ramp
    )

    errors = list(smart["errors"]) + list(static["errors"])
    smart_mean = (
        sum(smart["durations"]) / len(smart["durations"])
        if smart["durations"] else 0.0
    )
    static_mean = (
        sum(static["durations"]) / len(static["durations"])
        if static["durations"] else 0.0
    )
    delta = smart["selection_delta"]
    post_delta = smart["post_delta"]
    expected = smart["measured_count"]
    completion_ok = (
        len(smart["durations"]) == expected
        and len(static["durations"]) == expected
    )
    if not completion_ok:
        errors.append(
            f"measured wave incomplete: smart {len(smart['durations'])}"
            f"/{expected}, static {len(static['durations'])}/{expected}"
        )
    # contract checks, per campaign class (see module docstring)
    if campaign == "weather_blackhole":
        speedup_ok = True
        bounded_ok = smart_mean <= static_mean * DEGRADATION_BOUND
        degraded_ok = delta["probe_fallbacks"] > 0
        if not degraded_ok:
            errors.append(
                "black-holed weather plane never forced a probe fallback"
            )
    elif campaign:
        speedup_ok = True
        bounded_ok = smart_mean <= static_mean * DEGRADATION_BOUND
        degraded_ok = True
    else:
        speedup_ok = smart_mean < static_mean
        if not speedup_ok:
            errors.append(
                f"smart mean {smart_mean:.2f}s did not beat static "
                f"{static_mean:.2f}s under congestion"
            )
        bounded_ok = True
        degraded_ok = True
    if not bounded_ok:
        errors.append(
            f"smart mean {smart_mean:.2f}s exceeds static "
            f"{static_mean:.2f}s x {DEGRADATION_BOUND}"
        )
    reconverged = post_delta["history_selections"] > 0
    if not reconverged:
        errors.append("post wave never selected on history again")

    grid = smart["grid"]
    push_stats = grid.weather.push_stats()
    durations_repr = " ".join(
        f"{d:.6f}" for d in smart["durations"] + static["durations"]
        + smart["post_durations"] + static["post_durations"]
    )
    fingerprint = "\n".join(
        filter(None, [
            scenario.schedule_repr(),
            fault_campaign.schedule_repr() if fault_campaign else "",
            grid.weather.fingerprint(),
            durations_repr,
            ",".join(f"{k}={v}" for k, v in sorted(delta.items())),
            to_prometheus_text(grid.metrics),
        ])
    )
    export_telemetry(
        grid.metrics, grid.tracelog,
        metrics_json=metrics_json, trace_chrome=trace_chrome,
        show_report=show_report,
    )
    return WeatherResult(
        seed=seed,
        campaign=campaign,
        sites=len(tspec.sites),
        files=files,
        measured=expected,
        smart_mean=smart_mean,
        static_mean=static_mean,
        smart_completed=len(smart["durations"]),
        static_completed=len(static["durations"]),
        history_selections=delta["history_selections"],
        probe_fallbacks=delta["probe_fallbacks"],
        post_history=post_delta["history_selections"],
        digests_applied=grid.weather.selection_stats()["digests_applied"],
        pushes=push_stats["pushes"],
        pushes_lost=push_stats["pushes_lost"],
        bg_launched=smart["bg_stats"]["launched"],
        bg_aborted=smart["bg_stats"]["aborted"],
        faults_injected=smart["faults_injected"],
        speedup_ok=speedup_ok,
        bounded_ok=bounded_ok,
        completion_ok=completion_ok,
        degraded_ok=degraded_ok,
        reconverged=reconverged,
        no_active_faults=(
            smart["no_active_faults"] and static["no_active_faults"]
        ),
        duration=grid.sim.now,
        wall_seconds=time.perf_counter() - wall_started,
        fingerprint=fingerprint,
        errors=tuple(errors),
    )


def report(result: WeatherResult) -> None:
    """Print the smart-vs-static verdict."""
    verdict = "CONVERGED" if result.converged else "FAILED"
    title = (
        f"EXP-WEATHER — seed {result.seed}, {result.sites} sites, "
        f"{result.measured} measured transfers"
        + (f", campaign {result.campaign}" if result.campaign else "")
        + f": {verdict}"
    )
    print_table(
        ["check", "value"],
        [
            ["smart mean completion (s)", f"{result.smart_mean:.2f}"],
            ["static mean completion (s)", f"{result.static_mean:.2f}"],
            ["improvement", f"{result.improvement:.2f}x"],
            ["completed smart/static",
             f"{result.smart_completed}/{result.static_completed}"],
            ["history selections", result.history_selections],
            ["probe fallbacks", result.probe_fallbacks],
            ["post-wave history selections", result.post_history],
            ["forecast digests applied", result.digests_applied],
            ["pushes (lost)", f"{result.pushes} ({result.pushes_lost})"],
            ["background transfers", result.bg_launched],
            ["background aborted", result.bg_aborted],
            ["faults injected", result.faults_injected],
            ["smart beat static", result.speedup_ok],
            ["degradation bounded", result.bounded_ok],
            ["all transfers completed", result.completion_ok],
            ["fallback exercised", result.degraded_ok],
            ["reconverged on history", result.reconverged],
            ["sim-time (s)", f"{result.duration:.1f}"],
            ["wall time (s)", f"{result.wall_seconds:.1f}"],
        ],
        title,
    )
    for line in result.errors:
        print(f"  !! {line}")
    print()


def main(
    files: int = 4,
    seed: int = 2001,
    campaign: str | None = None,
    metrics_json: str | None = None,
    trace_chrome: str | None = None,
    show_report: bool = False,
) -> None:
    """Run EXP-WEATHER (optionally under one fault class)."""
    if campaign and campaign not in CAMPAIGNS:
        raise SystemExit(
            f"unknown campaign {campaign!r} (one of: {', '.join(CAMPAIGNS)})"
        )
    report(run(
        files=files,
        seed=seed,
        campaign=campaign or "",
        metrics_json=metrics_json,
        trace_chrome=trace_chrome,
        show_report=show_report,
    ))

"""Per-layer counts and the per-layer metrics of a traced run.

Counts come from three places, all read from outside the program:

* :func:`snapshot` reads the grid's public ``MetricsRegistry`` and the
  engine counters (kernel event sequence, netsim tick counters, queue
  statistics) before and after the timed phase; the harness sums the
  differences over a run's grids;
* the :class:`~tracer.Tracer` counts wrapped calls, their inclusive
  time and, for the erasure coder, the bytes passed in;
* the tracer's self time per layer.

:func:`per_layer` turns these into the ``<layer>.<metric>`` values
whose names, units and directions are listed under ``per_layer`` in
``BENCHMARK.json``.
"""

from __future__ import annotations

from collections import Counter

from tracer import CODER, LAYERS

__all__ = ["LAYER_MAP", "per_layer", "snapshot"]


def snapshot(workload) -> Counter:
    """Monotone counts of one grid at this instant."""
    grid = workload.grid
    sim = grid.sim
    out: Counter = Counter()
    # dispatched events: scheduled minus still pending.  Read from the
    # queue, not from step(), so it survives run() inlining its loop.
    out["sim.events"] = sim._seq - len(sim._queue)
    engine = grid.engine
    out["netsim.ticks"] = engine.tick_count
    out["netsim.settled_ticks"] = engine.settled_tick_count
    out["netsim.flow_ticks"] = engine.flow_tick_count
    # bytes that cancelled transfers had delivered before the cancel
    out["netsim.aborted_bytes"] = engine.monitor.counter(
        "bytes_delivered_aborted")
    registry = grid.metrics
    registry.collect()
    for family in registry.families():
        kind = registry.kind(family)
        for child in registry.children(family):
            if kind in ("counter", "gauge"):
                value = child.value
            elif kind == "histogram":
                out[family + ".count"] += child.count
                value = child.total
            else:
                continue
            out[family] += value
            for key, label in child.labels:
                out[f"{family}{{{key}={label}}}"] += value
    out["telemetry.spans"] = len(grid.tracelog.spans())
    for queue in workload.queues():
        out["queue.tasks"] += len(queue.tasks)
        out["queue.claims"] += queue.stats.claims
        out["queue.coalesced"] += queue.stats.coalesced
        out["queue.expired_leases"] += queue.stats.expired_leases
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_CATALOG_WRITES = ("publish", "add_", "adopt", "remove", "create", "delete",
                   "register", "bulk_add", "bulk_create", "bulk_delete")
_CATALOG_OPS = "catalog:GdmpCatalog."


def _catalog_ops(tracer) -> tuple[int, int]:
    reads = writes = 0
    for name, n in tracer.calls.items():
        if not name.startswith(_CATALOG_OPS):
            continue
        method = name.rsplit(".", 1)[1]
        if method.startswith("_"):
            continue
        if method.startswith(_CATALOG_WRITES):
            writes += n
        else:
            reads += n
    return reads, writes


_TELEMETRY_OBS = ("telemetry:Counter.inc", "telemetry:Gauge.set",
                  "telemetry:Gauge.add", "telemetry:Histogram.observe",
                  "telemetry:TimeSeries._sample")


def per_layer(d: Counter, tracer, traced_wall: float,
              untraced_wall: float) -> dict:
    """Every per-layer metric from summed count deltas ``d`` and the
    tracer of the same grids.  Shares are of the time attributed to a
    layer (``bench`` included); ``trace.self_s`` is the rest of the
    traced wall, the tracer's own bookkeeping."""
    self_s = {layer: tracer.self_s.get(layer, 0.0)
              for layer in LAYERS + ("other", "bench")}
    attributed = sum(self_s.values())
    m: dict[str, float] = {}

    events = d["sim.events"]
    m["simulation.events"] = events
    m["simulation.processes"] = tracer.processes
    m["simulation.self_s"] = self_s["simulation"]
    m["simulation.us_per_event"] = _ratio(self_s["simulation"], events) * 1e6

    rpcs = d["rpc.requests"]
    m["services.rpcs"] = rpcs
    m["services.self_s"] = self_s["services"]
    m["services.us_per_rpc"] = _ratio(self_s["services"], rpcs) * 1e6
    m["services.rpc_errors"] = d["rpc.requests{outcome=error}"]
    m["services.rpc_retries"] = d["rpc.retries"]
    m["services.txn_replays"] = (d["catalog.txn_replays"]
                                 + d["workload.txn_replays"]
                                 + d["chunks.txn_replays"])

    ticks, settled = d["netsim.ticks"], d["netsim.settled_ticks"]
    m["netsim.ticks"] = ticks
    m["netsim.settled_ticks"] = settled
    m["netsim.settled_ratio"] = _ratio(settled, ticks + settled)
    m["netsim.flow_ticks"] = d["netsim.flow_ticks"]
    m["netsim.table_builds"] = tracer.calls["netsim:FlowTable.__init__"]
    m["netsim.table_build_s"] = tracer.inclusive["netsim:FlowTable.__init__"]
    m["netsim.self_s"] = self_s["netsim"]
    m["netsim.ns_per_flow_tick"] = (
        _ratio(self_s["netsim"], d["netsim.flow_ticks"]) * 1e9)

    reads, writes = _catalog_ops(tracer)
    m["catalog.reads"] = reads
    m["catalog.writes"] = writes
    m["catalog.self_s"] = self_s["catalog"]
    m["catalog.us_per_op"] = _ratio(self_s["catalog"], reads + writes) * 1e6

    probes = d["rls.lookup.hops"]
    misses = d["catalog.proxy.verify_misses"] + d["catalog.proxy.lrc_failures"]
    m["rls.lookups"] = d["rls.lookup.hops.count"]
    m["rls.lrc_probes"] = probes
    m["rls.probe_hit_ratio"] = _ratio(probes - misses, probes)
    m["rls.digest_pushes"] = d["rls.digest.pushes"]
    m["rls.digest_bytes"] = d["rls.digest.bytes"]
    m["rls.digest_build_s"] = tracer.inclusive["rls:DigestSource.next_digest"]
    m["rls.self_s"] = self_s["rls"]

    # every byte the data channels delivered: completed RETRs and STORs,
    # plus what aborted transfers had delivered (no workload cancels a
    # transfer that is not GridFTP's)
    delivered = (d["gridftp.bytes_sent"] + d["gridftp.bytes_received"]
                 + d["netsim.aborted_bytes"])
    m["gridftp.transfers"] = (d["gridftp.files_sent"]
                              + d["gridftp.files_received"])
    m["gridftp.bytes"] = delivered
    m["gridftp.wasted_ratio"] = _ratio(delivered, d["bench.bytes_needed"])
    m["gridftp.self_s"] = self_s["gridftp"]
    m["gdmp.replications"] = d["gdmp.mover.files_moved"]
    m["gdmp.self_s"] = self_s["gdmp"]
    m["storage.ops"] = sum(n for name, n in tracer.calls.items()
                           if name.startswith("storage:"))
    m["storage.self_s"] = self_s["storage"]
    hits, misses = d["storage.pool.hits"], d["storage.pool.misses"]
    m["storage.pool_hit_ratio"] = _ratio(hits, hits + misses)

    claim_calls = tracer.calls["workload:TaskQueue.claim"]
    m["workload.tasks"] = d["queue.tasks"]
    m["workload.claims"] = claim_calls
    m["workload.claim_hit_ratio"] = _ratio(d["queue.claims"], claim_calls)
    m["workload.coalesced"] = d["queue.coalesced"]
    m["workload.expired_leases"] = d["queue.expired_leases"]
    m["workload.self_s"] = self_s["workload"]

    coder_bytes = tracer.nbytes[CODER]
    coder_s = tracer.inclusive[CODER]
    m["chunks.coder_bytes"] = coder_bytes
    m["chunks.coder_s"] = coder_s
    m["chunks.coder_mb_per_s"] = _ratio(coder_bytes, coder_s) / 1e6
    m["chunks.repair_bytes"] = (d["chunks.repair{event=bytes_fetched}"]
                                + d["chunks.repair{event=bytes_uploaded}"])
    m["chunks.fetch_failovers"] = d["chunks.store{event=fetch_failover}"]
    uploaded = d["chunks.store{event=chunks_uploaded}"]
    deduped = d["chunks.store{event=chunks_deduped}"]
    m["chunks.dedup_ratio"] = _ratio(deduped, uploaded + deduped)
    m["chunks.self_s"] = self_s["chunks"]
    m["faults.injected"] = d["faults.injected"]
    m["faults.self_s"] = self_s["faults"]

    history = d["weather.site.history_selections"]
    fallback = d["weather.site.probe_fallbacks"]
    m["observatory.observations"] = d["weather.station.observations"]
    m["observatory.predictions"] = tracer.calls[
        "observatory:SiteWeather.predict"]
    m["observatory.history_ratio"] = _ratio(history, history + fallback)
    m["observatory.self_s"] = self_s["observatory"]

    m["telemetry.observations"] = sum(tracer.calls[n] for n in _TELEMETRY_OBS)
    m["telemetry.spans"] = d["telemetry.spans"]
    m["telemetry.self_s"] = self_s["telemetry"]
    m["telemetry.share"] = _ratio(self_s["telemetry"], attributed)
    m["security.handshakes"] = tracer.calls["security:verify_chain"]
    m["security.self_s"] = self_s["security"]

    m["other.self_s"] = self_s["other"]
    m["bench.self_s"] = self_s["bench"]
    m["trace.spans"] = tracer.n_spans
    m["trace.self_s"] = traced_wall - attributed
    m["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall)
    return {k: float(v) for k, v in m.items()}


#: which layer metrics should move which end-to-end metric, on which
#: workload; written down before measuring, so a later change names a
#: metric and a workload and is checked against this.  A share in a
#: note is a prediction; the measured shares are the profiles in
#: ``recorded.json``
LAYER_MAP = [
    {"layer": "simulation",
     "metrics": ["simulation.events", "simulation.processes",
                 "simulation.self_s", "simulation.us_per_event"],
     "moves": {"ops_per_s": ["requests", "catalog"]},
     "note": "prediction: the kernel is 24-31% of self time there; events "
             "are counted from the event queue, so inlining run() keeps "
             "the count"},
    {"layer": "services",
     "metrics": ["services.rpcs", "services.self_s", "services.us_per_rpc",
                 "services.rpc_errors", "services.rpc_retries",
                 "services.txn_replays"],
     "moves": {"ops_per_s": ["catalog", "requests"],
               "peak_rss_mb": ["requests"]},
     "note": "one exactly-once primitive should lower peak_rss_mb on "
             "requests and leave services.us_per_rpc flat"},
    {"layer": "netsim",
     "metrics": ["netsim.ticks", "netsim.settled_ticks",
                 "netsim.settled_ratio", "netsim.flow_ticks",
                 "netsim.table_builds", "netsim.table_build_s",
                 "netsim.self_s", "netsim.ns_per_flow_tick"],
     "moves": {"ops_per_s": ["transfer", "durability"]},
     "note": "prediction: no change on catalog"},
    {"layer": "catalog+rls",
     "metrics": ["catalog.reads", "catalog.writes", "catalog.self_s",
                 "catalog.us_per_op", "rls.lookups", "rls.lrc_probes",
                 "rls.probe_hit_ratio", "rls.digest_pushes",
                 "rls.digest_bytes", "rls.digest_build_s", "rls.self_s"],
     "moves": {"ops_per_s": ["catalog"], "sim_op_p50_s": ["catalog"]},
     "note": "fewer probes per lookup should also lower sim_op_p50_s"},
    {"layer": "gridftp+gdmp+storage",
     "metrics": ["gridftp.transfers", "gridftp.bytes",
                 "gridftp.wasted_ratio", "gridftp.self_s",
                 "gdmp.replications", "gdmp.self_s", "storage.ops",
                 "storage.self_s", "storage.pool_hit_ratio"],
     "moves": {"ops_per_s": ["requests"], "sim_makespan_s": ["transfer"]},
     "note": "prediction: storage is ~10% of self time on requests at "
             "1000 files; the benchmark runs 150, where it is smaller"},
    {"layer": "workload",
     "metrics": ["workload.tasks", "workload.claims",
                 "workload.claim_hit_ratio", "workload.coalesced",
                 "workload.expired_leases", "workload.self_s"],
     "moves": {"ops_per_s": ["requests", "durability"]},
     "note": "one claim queue rewrites code both workloads run"},
    {"layer": "chunks+faults",
     "metrics": ["chunks.coder_bytes", "chunks.coder_s",
                 "chunks.coder_mb_per_s", "chunks.repair_bytes",
                 "chunks.fetch_failovers", "chunks.dedup_ratio",
                 "chunks.self_s", "faults.injected", "faults.self_s"],
     "moves": {"ops_per_s": ["durability"]},
     "note": ""},
    {"layer": "observatory",
     "metrics": ["observatory.observations", "observatory.predictions",
                 "observatory.history_ratio", "observatory.self_s"],
     "moves": {"ops_per_s": ["transfer"], "sim_op_p50_s": ["transfer"]},
     "note": ""},
    {"layer": "telemetry+security",
     "metrics": ["telemetry.observations", "telemetry.spans",
                 "telemetry.self_s", "telemetry.share",
                 "security.handshakes", "security.self_s"],
     "moves": {"ops_per_s": ["transfer", "requests", "catalog",
                             "durability"]},
     "note": "prediction: telemetry is 4-10% of self time on every "
             "workload"},
    {"layer": "trace",
     "metrics": ["trace.spans", "trace.self_s", "trace.overhead_ratio",
                 "other.self_s", "bench.self_s"],
     "moves": {},
     "note": "the cost of observing; moves no end-to-end metric, which "
             "are all measured untraced"},
]

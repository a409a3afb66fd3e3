#!/usr/bin/env python
"""Telemetry smoke gate: exporters produce well-formed, deterministic output.

Runs one small gdmp replication twice in the same process and checks:

* the Chrome trace-event export is valid JSON of the expected shape —
  a ``traceEvents`` list whose members carry ``ph``/``pid``/``name``,
  complete ("X") events carry ``ts``/``dur``, process/thread rows are
  named via "M" metadata events, and every flow arrow ("s"/"f") pairs up
  by id;
* the trace covers the whole request path: RPC, GridFTP control,
  transfer flows, and catalog update spans all appear;
* the metrics snapshot is non-empty, its family names sorted, and its
  labelled children sorted within each family;
* the Prometheus text and Chrome trace JSON of the two runs are
  byte-identical (exporter determinism).

Usage:  PYTHONPATH=src python tools/telemetry_smoke.py
"""

from __future__ import annotations

import json

from repro.gdmp import DataGrid, GdmpConfig
from repro.netsim.units import MB
from repro.telemetry import to_chrome_trace_json, to_prometheus_text


def run_scenario() -> tuple[str, str, dict]:
    """One small replication; returns (prometheus, chrome_json, snapshot)."""
    grid = DataGrid(
        [
            GdmpConfig("cern", parallel_streams=2),
            GdmpConfig("anl"),
        ]
    )
    cern, anl = grid.site("cern"), grid.site("anl")
    grid.run(until=cern.client.produce_and_publish("smoke.db", 2 * MB))
    grid.run(until=anl.client.replicate("smoke.db"))
    return (
        to_prometheus_text(grid.metrics),
        to_chrome_trace_json(grid.tracelog),
        grid.metrics.snapshot(),
    )


def check_chrome_shape(chrome_json: str) -> list[str]:
    """Structural problems in a Chrome trace-event document."""
    problems: list[str] = []
    doc = json.loads(chrome_json)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    flow_ids: dict[str, list[str]] = {"s": [], "f": []}
    names = set()
    for i, event in enumerate(events):
        for key in ("ph", "pid", "name"):
            if key not in event:
                problems.append(f"event {i} lacks {key!r}")
        ph = event.get("ph")
        if ph == "X":
            if "ts" not in event or "dur" not in event:
                problems.append(f"X event {i} lacks ts/dur")
            names.add(event.get("name"))
        elif ph in ("s", "f"):
            flow_ids[ph].append(event.get("id"))
    if sorted(flow_ids["s"]) != sorted(flow_ids["f"]):
        problems.append("flow arrows do not pair up (s ids != f ids)")
    meta = [e for e in events if e.get("ph") == "M"]
    if not any(e.get("name") == "process_name" for e in meta):
        problems.append("no process_name metadata events")
    # the end-to-end request path must be visible in the trace
    for needle in ("gdmp:", "gridftp:", "catalog."):
        if not any(isinstance(n, str) and needle in n for n in names):
            problems.append(f"no span names containing {needle!r}")
    return problems


def check_snapshot(snapshot: dict) -> list[str]:
    """Emptiness/ordering problems in a metrics snapshot."""
    problems: list[str] = []
    if not snapshot:
        return ["metrics snapshot is empty"]
    families = list(snapshot)
    if families != sorted(families):
        problems.append("metric family names are not sorted")
    for name, family in snapshot.items():
        children = family.get("children", [])
        if not children:
            problems.append(f"family {name!r} has no children")
            continue
        labels = [
            tuple(sorted(child["labels"].items())) for child in children
        ]
        if labels != sorted(labels):
            problems.append(f"children of {name!r} are not label-sorted")
    return problems


def main() -> int:
    prom1, chrome1, snapshot = run_scenario()
    prom2, chrome2, _ = run_scenario()

    problems = check_chrome_shape(chrome1)
    problems += check_snapshot(snapshot)
    if prom1 != prom2:
        problems.append("Prometheus text differs between back-to-back runs")
    if chrome1 != chrome2:
        problems.append("Chrome trace JSON differs between back-to-back runs")

    if problems:
        print("telemetry_smoke: FAILED")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    n_events = len(json.loads(chrome1)["traceEvents"])
    print(
        "telemetry_smoke: OK — "
        f"{len(snapshot)} metric families, {n_events} trace events, "
        "exporters byte-identical across back-to-back runs"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

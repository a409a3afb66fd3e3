#!/usr/bin/env python3
"""Record ``perfbench/recorded.json``: digests, profiles and a baseline.

Usage, from the root of a checkout::

    python3 perfbench/record.py

Every workload is re-recorded together, so the digests, profiles and
baseline all come from one state of the code.

* ``digests``: the fingerprint digest of each workload's first pass on
  the recorded seed.  ``run.py`` fails a run on that seed whose digest
  differs;
* ``profiles``: one traced run per workload on the recorded seed, as
  each layer's share of the attributed self time plus every per-layer
  metric;
* ``baseline``: ten untraced runs of ``run_seconds`` (BENCHMARK.json) per
  workload on seeds 1..10, one process each, as median and quartiles of
  every end-to-end metric;
* the workloads' operation definitions (their reasons are in
  BENCHMARK.json), and the layer-to-end-to-end map of
  ``layers.LAYER_MAP``.

Each run is a separate ``run.py`` process, as the benchmark is run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from layers import LAYER_MAP  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 2001
RUNS = 10


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout[-3000:]}")
    if trace:
        return {name: m["value"] for name, m in result["metrics"].items()}
    marker = "all metrics: "
    line = next(line for line in lines if marker in line)
    return json.loads(line.split(marker, 1)[1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": values}


def main() -> None:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    names = list(WORKLOADS)
    recorded = {"seed": SEED, "digests": {}}
    for name in names:
        recorded["digests"][name] = run.digest_of(
            run.run_pass(WORKLOADS[name], SEED, False))
        print(f"digest {name} {recorded['digests'][name]}", flush=True)
    # the traced and timed runs below check their digests against these
    run.RECORDED.write_text(json.dumps(recorded, indent=1) + "\n")

    recorded["host"] = {
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    recorded["workloads"] = {
        name: {"operation": cls.operation, "grids_per_pass": cls.parts}
        for name, cls in WORKLOADS.items()
    }
    recorded["layer_map"] = LAYER_MAP
    recorded["profiles"] = {}
    for name in names:
        metrics = bench(name, SEED, 0, 1)
        selfs = {layer: metrics.get(f"{layer}.self_s", 0.0)
                 for layer in LAYERS + ("other", "bench")}
        total = sum(selfs.values())
        recorded["profiles"][name] = {
            "self_share": {k: v / total for k, v in selfs.items()},
            "metrics": metrics,
        }
        print(f"profile {name} netsim "
              f"{selfs['netsim'] / total:.1%}", flush=True)
    seconds = run.SPEC["run_seconds"]
    baseline = recorded["baseline"] = {
        "seconds": seconds, "seeds": list(range(1, RUNS + 1)),
        "workloads": {},
    }
    for name in names:
        runs = [bench(name, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        baseline["workloads"][name] = {
            metric: summary([r[metric] for r in runs]) for metric in runs[0]
        }
        print(f"baseline {name}: " + ", ".join(
            f"{m} {s['median']:.4g} ({s['spread']:.3f})"
            for m, s in baseline["workloads"][name].items()),
            flush=True)
        run.RECORDED.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()

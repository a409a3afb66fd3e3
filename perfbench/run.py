#!/usr/bin/env python3
"""The grid benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload transfer --seed 7 --seconds 12 --trace 0

The run draws every input from ``--seed`` and builds the workload's
``parts`` grids from it (one per sub-seed), so each run averages over
several independent inputs.  A *pass* sets up and runs all of them once.  Passes
repeat until ``--seconds`` have gone by (at least one).  Every grid's
outputs are checked, and every pass must reproduce the first pass's
fingerprints exactly.

``--trace 0`` reports the end-to-end metrics, with tracing off:

* ``ops_per_s``: operations per host second of timed phase, over every
  pass;
* ``setup_s``: host seconds to build one grid and seed its data, median
  over every grid set up in the run.

Host seconds are the process's CPU seconds (``time.process_time``),
scaled to a reference speed.  The program is one thread, so CPU seconds
equal wall seconds on an idle machine, and on a shared one they leave
out the time other tenants hold the CPU.  But a shared machine also
shifts in speed by up to a third for tens of seconds at a time, for
set-up and timed work alike, which no number of passes averages out.  So
before and after every pass the run times :func:`calibrate`, a fixed
loop of the dict, string and heap work the simulator is made of, and
that pass's seconds are multiplied by ``REFERENCE_S`` over the loop's
mean time.  The loop shares no code with the program, so every change
to the program still shows in full.
* ``peak_rss_mb``: peak resident memory of the process (``VmHWM``, read
  after the last pass, so measuring it costs the timed phase nothing);
* ``sim_makespan_s``: simulated seconds from the first operation's due
  time to the last operation's completion, median over the grids;
* ``sim_op_p50_s`` and ``sim_op_tail_s``: simulated latency per
  operation over the first pass's operations, at the median and at the
  highest of p90/p95/p99/p99.9 that has at least ten samples beyond it.

``error_rate`` (failed / attempted operations) is printed with them and
is the ``failed``/``attempted`` pair of the result line.

``--trace 1`` alternates an untraced pass with a traced one (see
``tracer.py``), checks that both produce the same fingerprints, and
reports the per-layer metrics of ``layers.py``.  It writes the spans of
the traced pass as Chrome trace-event JSON and a self-time table by layer
to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
operation, a fingerprint that changes between passes or between traced
and untraced runs, or, on the recorded seed, a digest other than the one
in ``recorded.json``, makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDED = HERE / "recorded.json"
#: names, units and directions of the reported metrics
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: tail percentiles tried, highest first
TAILS = (99.9, 99.0, 95.0, 90.0)

#: the end-to-end metrics the result line carries (``end_to_end`` in
#: BENCHMARK.json)
GATED = tuple(m["name"] for m in SPEC["end_to_end"])

#: units of every printed end-to-end metric.  The simulated ones are
#: deterministic per seed, and on some workloads the same on every seed,
#: so they are pinned by the recorded digest instead of a bound and are
#: not in BENCHMARK.json; error_rate is the result line's
#: failed/attempted.
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
E2E_UNITS.update(sim_makespan_s="s", sim_op_p50_s="s", sim_op_tail_s="s",
                 error_rate="ratio")


#: the time :func:`calibrate` takes at the reference speed: about its
#: median on a 2-vCPU x86-64 VM with CPython 3.11
REFERENCE_S = 0.065


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop, with the collector off so
    the program's heap does not enter it.  Never change the loop: the
    figures of every later run are scaled by it."""
    enabled = gc.isenabled()
    gc.disable()
    started = process_time()
    rng = random.Random(1)
    heap: list = []
    table: dict = {}
    for i in range(30_000):
        key = i * 7919 % 10007
        table[f"k{key}"] = (i, key, [i])
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 500:
            heapq.heappop(heap)
    sorted(table.items())
    took = process_time() - started
    if enabled:
        gc.enable()
    return took


def _percentile(ordered: list, pct: float) -> float:
    """Nearest-rank percentile of a sorted list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_of(latencies: list) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest tail
    percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAILS:
        beyond = int(n - -(-n * pct // 100))
        if beyond >= 10:
            return pct, _percentile(ordered, pct), beyond
    return 50.0, _percentile(ordered, 50.0), n // 2


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  ``VmHWM`` starts
    afresh at exec; ``ru_maxrss`` would carry over the peak of the
    process that forked us."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GridRun:
    """What one grid's setup and timed phase left behind."""

    def __init__(self, workload, setup_s: float, cpu: float, wall: float,
                 counts: Counter):
        self.setup_s = setup_s
        self.cpu = cpu
        self.wall = wall
        self.counts = counts
        self.ops = len(workload.records)
        self.latencies = [r.latency for r in workload.records]
        self.makespan = workload.converged_at() - workload.first_due()
        self.failed = workload.check()
        self.fingerprint = workload.fingerprint()


def run_grid(cls, seed: int, part: int, smoke: bool, tracer=None) -> GridRun:
    from layers import snapshot

    workload = cls(seed, part, smoke)
    started = process_time()
    workload.setup()
    setup_s = process_time() - started
    gc.collect()
    before = snapshot(workload)
    if tracer is not None:
        tracer.start(workload.grid.sim)
    started, cpu_started = perf_counter(), process_time()
    workload.timed()
    cpu = process_time() - cpu_started
    wall = perf_counter() - started
    if tracer is not None:
        tracer.stop()
    counts = snapshot(workload)
    counts.subtract(before)
    counts["bench.bytes_needed"] = workload.bytes_needed()
    return GridRun(workload, setup_s, cpu, wall, counts)


def run_pass(cls, seed: int, smoke: bool, tracer=None) -> list:
    return [run_grid(cls, seed, part, smoke, tracer)
            for part in range(cls.parts)]


def digest_of(grids: list) -> str:
    text = "\n".join(g.fingerprint for g in grids)
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digest(workload: str, seed: int, smoke: bool):
    if smoke or not RECORDED.is_file():
        return None
    recorded = json.loads(RECORDED.read_text())
    if seed != recorded.get("seed"):
        return None
    return recorded.get("digests", {}).get(workload)


def _breaches(passes: list, digest: str, want) -> list:
    """Failed operations plus determinism and digest breaches."""
    breaches = []
    for grids in passes:
        for g in grids:
            breaches += [f"{op}: {why}" for op, why in g.failed]
    first = [g.fingerprint for g in passes[0]]
    for i, grids in enumerate(passes[1:], 1):
        for part, g in enumerate(grids):
            if g.fingerprint != first[part]:
                breaches.append(f"pass {i} part {part}: fingerprint changed")
    if want is not None and digest != want:
        breaches.append(f"digest {digest} != recorded {want}")
    return breaches


def measure(workload: str, seed: int, seconds: float, smoke: bool = False):
    """The end-to-end measurement; returns (result dict, report lines)."""
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    run_pass(cls, seed, True)          # warm code paths, not measured
    passes, scales = [], []
    started = perf_counter()
    while not passes or perf_counter() - started < seconds:
        before = calibrate()
        passes.append(run_pass(cls, seed, smoke))
        scales.append(2 * REFERENCE_S / (before + calibrate()))
    first = passes[0]
    digest = digest_of(first)
    breaches = _breaches(passes, digest,
                         recorded_digest(workload, seed, smoke))
    attempted = sum(g.ops for grids in passes for g in grids)
    failed = len(breaches)
    latencies = [x for g in first for x in g.latencies]
    pct, tail, beyond = tail_of(latencies)
    # reference seconds over every pass: a total blends the host's slow
    # and fast phases where a median over passes would jump between them
    cpu = sum(g.cpu * scale for grids, scale in zip(passes, scales)
              for g in grids)
    metrics = {
        "ops_per_s": attempted / cpu,
        "setup_s": statistics.median(g.setup_s * scale for grids, scale
                                     in zip(passes, scales) for g in grids),
        "peak_rss_mb": peak_rss_mb(),
        "sim_makespan_s": statistics.median(g.makespan for g in first),
        "sim_op_p50_s": statistics.median(latencies),
        "sim_op_tail_s": tail,
        "error_rate": failed / attempted,
    }
    lines = [
        f"perfbench {workload}: seed {seed}, {cls.parts} grids x "
        f"{len(passes)} passes, {sum(g.ops for g in first)} ops per pass",
    ]
    notes = {
        "sim_op_tail_s": f"p{pct:g}, {beyond} of {len(latencies)} "
                         "samples beyond it",
        "error_rate": f"{failed} of {attempted} operations",
    }
    lines += [f"  {name:<16} {value:<12.6g} {E2E_UNITS[name]:<5} "
              f"{notes.get(name, '')}".rstrip()
              for name, value in metrics.items()]
    lines.append(f"  host speed {statistics.median(scales):.3f} x reference")
    lines.append(f"  digest {digest}")
    lines.append("  all metrics: " + json.dumps(
        dict(metrics, tail_percentile=pct, tail_beyond=beyond)))
    lines += [f"  !! {b}" for b in breaches[:20]]
    result = {
        "correct": not breaches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": E2E_UNITS[name]}
                    for name in GATED},
    }
    return result, lines


def measure_layers(workload: str, seed: int, seconds: float,
                   smoke: bool = False, out_dir: Path | None = None):
    """The traced run; returns (result dict, report lines)."""
    from layers import per_layer
    from tracer import LAYERS, Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    run_pass(cls, seed, True)
    rows, breaches, attempted = [], [], 0
    started = perf_counter()
    while not rows or perf_counter() - started < seconds:
        plain = run_pass(cls, seed, smoke)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cls, seed, smoke, tracer)
        finally:
            tracer.uninstall()
        breaches += _breaches([plain], digest_of(plain),
                              recorded_digest(workload, seed, smoke))
        for part, (a, b) in enumerate(zip(plain, traced)):
            if a.fingerprint != b.fingerprint:
                breaches.append(f"part {part}: traced fingerprint differs")
        attempted += sum(g.ops for g in plain) + sum(g.ops for g in traced)
        counts = Counter()
        for g in traced:
            counts.update(g.counts)
        traced_wall = sum(g.wall for g in traced)
        rows.append((per_layer(counts, tracer, traced_wall,
                               sum(g.wall for g in plain)),
                     tracer, traced_wall))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {name: statistics.median(r[0][name] for r in rows)
               for name in units}
    # the pass whose overhead is the median stands for the run
    _, tracer, wall = sorted(
        rows, key=lambda r: r[0]["trace.overhead_ratio"])[len(rows) // 2]
    attributed = sum(tracer.self_s.values())
    table = [f"perfbench {workload}: seed {seed}, traced wall {wall:.3f} s "
             f"({wall - attributed:.3f} s of it tracer bookkeeping), "
             f"{tracer.n_spans} spans",
             f"  {'layer':<12} {'self_s':>9} {'share':>7}"]
    for layer in LAYERS + ("other", "bench"):
        s = tracer.self_s.get(layer, 0.0)
        table.append(f"  {layer:<12} {s:9.4f} {s / attributed:7.1%}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = out_dir / f"{workload}-seed{seed}"
        tracer.chrome_trace(f"{stem}.trace.json", f"perfbench {workload}")
        Path(f"{stem}.layers.txt").write_text("\n".join(table) + "\n")
    lines = table + [f"  {name:<28} {metrics[name]:.6g} {unit}"
                     for name, unit in units.items()]
    lines += [f"  !! {b}" for b in breaches[:20]]
    result = {
        "correct": not breaches,
        "attempted": attempted,
        "failed": len(breaches),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {ROOT / 'src'}; run it from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    # one process, one thread: keep numpy's BLAS from starting a pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if args.trace:
        result, lines = measure_layers(args.workload, args.seed,
                                       args.seconds, out_dir=HERE / "out")
    else:
        result, lines = measure(args.workload, args.seed, args.seconds)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

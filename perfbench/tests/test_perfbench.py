"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from repro.simulation.kernel import Simulator  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def smoke_digest(name: str, seed: int) -> str:
    return run.digest_of(run.run_pass(WORKLOADS[name], seed, True))


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_passes_every_gate(name):
    result, lines = run.measure(name, seed=5, seconds=0, smoke=True)
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.GATED)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = "\n".join(lines)
    for metric in run.E2E_UNITS:
        assert metric in report


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_digest(name):
    first = smoke_digest(name, 9)
    assert smoke_digest(name, 9) == first
    assert smoke_digest(name, 10) != first


@pytest.mark.parametrize("name", ["transfer", "durability"])
def test_digest_does_not_depend_on_the_tick_kernel(name, monkeypatch):
    digests = {}
    for kernel in ("auto", "scalar", "vector"):
        monkeypatch.setenv("REPRO_NETSIM_KERNEL", kernel)
        grid = run.run_grid(WORKLOADS[name], 3, 0, False)
        assert not grid.failed
        digests[kernel] = grid.fingerprint
    assert digests["scalar"] == digests["auto"] == digests["vector"]


@pytest.mark.parametrize("name", NAMES)
def test_tracing_does_not_perturb_the_run(name, tmp_path):
    original = Simulator.__dict__["run"]
    result, lines = run.measure_layers(name, seed=5, seconds=0, smoke=True,
                                       out_dir=tmp_path)
    assert result["correct"], "\n".join(lines)
    assert Simulator.__dict__["run"] is original       # patches undone
    metrics = {key: m["value"] for key, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in run.SPEC["per_layer"]}
    assert metrics["simulation.events"] > 0
    assert metrics["trace.overhead_ratio"] > 1.0
    # every workload moves files; resent bytes only add to the ratio
    assert metrics["gridftp.wasted_ratio"] >= 1.0 - 1e-9
    if name == "transfer":
        # weather-ranked selection asks the forecast cache
        assert metrics["observatory.predictions"] > 0
    if name in ("requests", "durability"):
        assert 0 < metrics["workload.claim_hit_ratio"] <= 1.0
    trace = json.loads((tmp_path / f"{name}-seed5.trace.json").read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and {"name", "ts", "dur", "args"} <= set(spans[0])
    assert "netsim" in (tmp_path / f"{name}-seed5.layers.txt").read_text()


def test_recorded_seed_reproduces_recorded_digests():
    recorded = json.loads(run.RECORDED.read_text())
    for name in NAMES:
        grids = run.run_pass(WORKLOADS[name], recorded["seed"], False)
        assert not [g.failed for g in grids if g.failed]
        assert run.digest_of(grids) == recorded["digests"][name], name


def test_recorded_profiles_stress_what_each_workload_claims():
    profiles = json.loads(run.RECORDED.read_text())["profiles"]
    share = {name: p["self_share"] for name, p in profiles.items()}
    assert share["transfer"]["netsim"] >= 3 * share["catalog"]["netsim"]
    assert (share["catalog"]["catalog"] + share["catalog"]["rls"]
            > share["transfer"]["catalog"] + share["transfer"]["rls"])
    assert share["durability"]["chunks"] > 0
    assert share["durability"]["workload"] > 0
    assert profiles["transfer"]["metrics"]["observatory.predictions"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transfer",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

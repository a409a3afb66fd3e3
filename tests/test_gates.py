"""The table-driven gate harness (``tools/gates.py``).

Committed records must pass their rows' gates with baselines equal to the
rows' floors, and every kind of breach must fail with a line naming the
row, the leg or mode, the check, the measured value and the bound.  No
experiment runs here: records come from the committed ``BENCH_*.json``
files and leg results are synthetic.
"""

import copy
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "gates.py"


def _load():
    spec = importlib.util.spec_from_file_location("gates", TOOL)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


gates = _load()
ROWS = {row.name: row for row in gates.ROWS}


def _committed(name: str) -> dict:
    row = ROWS[name]
    doc = json.loads((ROOT / row.bench_file).read_text())
    return doc[row.section] if row.section else doc


def _record_failures(name: str, mode: str = "full", drop=(), **changes):
    record = copy.deepcopy(_committed(name))
    record["current"].update(changes)
    for key in drop:
        del record["current"][key]
    return gates.gate_record(ROWS[name], record, mode)


@pytest.mark.parametrize(
    "name", [row.name for row in gates.ROWS if row.bench_file])
def test_committed_record_passes_its_row(name):
    record = _committed(name)
    mode = record["current"].get("mode", "full")
    assert gates.gate_record(ROWS[name], record, mode) == []
    if ROWS[name].floors:
        assert record["baseline"] == {"recorded": True, **ROWS[name].floors}


def test_every_row_is_named_once():
    assert list(ROWS) == [
        "netsim", "flow_scale", "catalog", "telemetry", "determinism",
        "chaos", "workload", "rls", "weather", "chunks",
    ]


def test_metric_half_its_floor_fails():
    assert _record_failures("workload", requests_per_s=125_000.0) == [
        "workload full: requests_per_s = 125000, want >= 200000 "
        "(20% under the recorded floor 250000)"
    ]


def test_missing_metric_fails():
    [line] = _record_failures("catalog", drop=("envelope_reduction",))
    assert line.startswith("catalog full: envelope_reduction = missing, "
                           "want >= 80")


@pytest.mark.parametrize("name, metric, value, expected", [
    ("rls", "aggregate_speedup", 7.9, "aggregate_speedup = 7.9, want >= 8"),
    ("rls", "false_positive_rate", 0.06,
     "false_positive_rate = 0.06, want <= 0.05"),
    ("weather", "improvement", 1.04, "improvement = 1.04, want >= 1.05"),
    ("chunks", "repair_savings", 1.0, "repair_savings = 1, want > 1"),
    ("flow_scale", "per_flow_ratio", 0.09,
     "per_flow_ratio = 0.09, want >= 0.1"),
])
def test_hard_bound_breach_fails(name, metric, value, expected):
    failures = _record_failures(name, **{metric: value})
    assert f"{name} full: {expected}" in failures


def test_rls_speedup_bound_is_full_mode_only():
    assert _record_failures("rls", mode="smoke", aggregate_speedup=7.9) == []


def test_unconverged_record_leg_fails():
    record = copy.deepcopy(_committed("chunks"))
    record["current"]["site_wipe"]["converged"] = False
    assert gates.gate_record(ROWS["chunks"], record, "full") == [
        "chunks full: site_wipe.converged = False, want == True"
    ]


def _result(**changes) -> SimpleNamespace:
    """A leg result that passes every row's checks unless changed."""
    healthy = dict(
        converged=True, errors=(), fingerprint="schedule\nstate",
        faults_injected=4, schedule="header\na\nb\nc\nd",
        chunks_repaired=8, repair_savings=4 / 3, chunks_deduped=6,
        rli_unavailable=2, fallback_broadcasts=0, pushes_lost=8,
        phantom_answers=0, probe_fallbacks=13, improvement=1.3,
        post_history=4,
    )
    return SimpleNamespace(**{**healthy, **changes})


def _leg_failures(name: str, campaign: str, first, second=None):
    return gates.check_leg(ROWS[name], campaign, first, second or first)


@pytest.mark.parametrize("name", ["chaos", "workload", "rls", "weather",
                                  "chunks"])
def test_healthy_legs_pass(name):
    for campaign in ROWS[name].campaigns:
        assert _leg_failures(name, campaign, _result()) == []


def test_unconverged_result_fails_with_its_errors():
    failures = _leg_failures(
        "workload", "", _result(converged=False, errors=("3 claims leaked",)))
    assert failures == [
        "workload fault-free/run1: converged = False, want == True "
        "(3 claims leaked)",
        "workload fault-free/run2: converged = False, want == True "
        "(3 claims leaked)",
    ]


def test_mismatched_fingerprints_show_first_differing_line():
    [line] = _leg_failures("chunks", "site_wipe", _result(),
                           _result(fingerprint="schedule\nSTATE"))
    assert line.splitlines() == [
        "chunks site_wipe: fingerprints differ between back-to-back runs",
        "  line 1: run1 'state'  !=  run2 'STATE'",
    ]


def test_zero_faults_under_a_campaign_fails():
    failures = _leg_failures("workload", "component_crash",
                             _result(faults_injected=0))
    assert "workload component_crash/run1: faults_injected = 0, want > 0" \
        in failures


@pytest.mark.parametrize("name, campaign, changes, expected", [
    ("chaos", "link_flap", {"faults_injected": 3}, "faults_injected = 3, "
     "want == 4"),
    ("rls", "", {"phantom_answers": 1}, "phantom_answers = 1, want == 0"),
    ("rls", "rli_blackhole", {"rli_unavailable": 0},
     "rli_unavailable+fallback_broadcasts = 0, want > 0"),
    ("rls", "digest_loss", {"pushes_lost": 0}, "pushes_lost = 0, want > 0"),
    ("weather", "weather_blackhole", {"probe_fallbacks": 0},
     "probe_fallbacks = 0, want > 0"),
    ("weather", "", {"improvement": 1.0}, "improvement = 1, want > 1"),
    ("weather", "link_flap", {"post_history": 0}, "post_history = 0, "
     "want > 0"),
    ("chunks", "", {"chunks_deduped": 0}, "chunks_deduped = 0, want > 0"),
    ("chunks", "site_wipe", {"chunks_repaired": 0}, "chunks_repaired = 0, "
     "want > 0"),
    ("chunks", "chunk_corrupt", {"repair_savings": 1.0},
     "repair_savings = 1, want > 1"),
])
def test_named_leg_check_fails(name, campaign, changes, expected):
    failures = _leg_failures(name, campaign, _result(**changes))
    label = campaign or "fault-free"
    assert failures == [f"{name} {label}/run{i}: {expected}" for i in (1, 2)]


def test_telemetry_shape_checks():
    broken = _result(chrome=json.dumps({"traceEvents": []}), snapshot={})
    assert _leg_failures("telemetry", "", broken)[:2] == [
        "telemetry fault-free/run1: chrome_shape = "
        "['traceEvents missing or empty'], want == []",
        "telemetry fault-free/run1: snapshot_shape = "
        "['metrics snapshot is empty'], want == []",
    ]
    events = [{"ph": "X", "pid": 1, "name": "gdmp:replicate", "ts": 0},
              {"ph": "s", "pid": 1, "name": "flow", "id": 7}]
    assert gates.chrome_problems(json.dumps({"traceEvents": events})) == [
        "X event 0 lacks ts/dur",
        "flow arrows do not pair up (s ids != f ids)",
        "no process_name metadata events",
        "no span names containing 'gridftp:'",
        "no span names containing 'catalog.'",
    ]
    unsorted = {"b": {"children": [{"labels": {"site": "cern"}}]},
                "a": {"children": []}}
    assert gates.snapshot_problems(unsorted) == [
        "metric family names are not sorted",
        "family 'a' has no children",
    ]


def test_writer_keeps_the_other_rows_sections(tmp_path, monkeypatch):
    monkeypatch.setattr(gates, "REPO_ROOT", tmp_path)
    path = tmp_path / "BENCH_netsim.json"
    path.write_text(json.dumps({"current": {"old": 1}, "speedup": {}}))
    gates.write_record(ROWS["flow_scale"], {"current": {"new": 2}})
    gates.write_record(ROWS["netsim"], {"current": {"micro": []}})
    assert json.loads(path.read_text()) == {
        "current": {"micro": []},
        "speedup": {},
        "flow_scale": {"current": {"new": 2}},
    }


@pytest.mark.parametrize("argv", [["bogus"], ["--smoke", "--record"]])
def test_cli_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit) as exc:
        gates.main(argv)
    assert exc.value.code == 2


def test_netsim_seed_baseline_is_the_committed_one():
    assert _committed("netsim")["baseline"] == gates.NETSIM_SEED_BASELINE

"""Every example must run cleanly (they double as integration tests)."""

import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_and_prints(example):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES_DIR / example), run_name="__main__")
    output = buffer.getvalue()
    assert output.strip(), f"{example} produced no output"


def test_expected_examples_present():
    assert {
        "quickstart.py",
        "hep_analysis.py",
        "multisite_production.py",
        "network_tuning.py",
        "associated_files.py",
    } <= set(EXAMPLES)

"""The stdlib unused-import lint (``tools/check_imports.py``)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_imports.py"


def _load():
    spec = importlib.util.spec_from_file_location("check_imports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _problems(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(source)
    return _load().unused_imports(path)


def test_reports_an_unused_import(tmp_path):
    [problem] = _problems(tmp_path, "import os\nfrom typing import Any\nAny\n")
    assert "'os' imported but unused" in problem
    assert problem.endswith(":1: 'os' imported but unused")


def test_counts_annotations_strings_and_dunder_all(tmp_path):
    source = (
        "from __future__ import annotations\n"
        "from typing import Optional\n"
        "from a import B, C, D\n"
        "__all__ = ['D']\n"
        "def f(x: Optional[int]) -> 'B':\n"
        "    return C.attr\n"
    )
    assert _problems(tmp_path, source) == []


def test_exempts_feature_detection_and_noqa(tmp_path):
    source = (
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    numpy = None\n"
        "import json  # noqa: F401\n"
    )
    assert _problems(tmp_path, source) == []


def test_package_init_reexports_are_skipped(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("from os import path\n")
    assert _load().main([str(tmp_path / "pkg")]) == 0
    (tmp_path / "pkg" / "mod.py").write_text("import os\n")
    assert _load().main([str(tmp_path / "pkg")]) == 1

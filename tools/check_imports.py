#!/usr/bin/env python
"""Unused-import lint gate, standard library only.

Reports every name a module imports but never uses, and exits 1 when
there is one.  A name counts as used when it appears anywhere in the
module as an identifier, inside a string annotation (``"Simulator"``),
or in ``__all__``.  Not checked:

* ``__init__.py`` files — their imports are the package's re-exports;
* ``from __future__ import ...``;
* imports inside a ``try`` block that handles ``ImportError`` (feature
  detection: importing is the point);
* lines marked ``# noqa``.

Usage:  python tools/check_imports.py [PATH ...]   (default: src tests
benchmarks tools)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools")


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every checked import in the module."""
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(
            _catches_import_error(handler) for handler in node.handlers
        ):
            for stmt in node.body:
                guarded.update(id(n) for n in ast.walk(stmt))
    names = []
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    names.append((alias.asname or alias.name, node.lineno))
    return names


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    kinds = handler.type
    if kinds is None:
        return True
    elts = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(
        isinstance(e, ast.Name)
        and e.id in ("ImportError", "ModuleNotFoundError", "Exception")
        for e in elts
    )


def _used(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations and __all__ entries
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                used.add(node.value)
                continue
            used.update(
                n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
            )
    return used


def unused_imports(path: Path) -> list[str]:
    """``path:line: name`` for every unused import in one file."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = _used(tree)
    return [
        f"{path}:{line}: {name!r} imported but unused"
        for name, line in _imported(tree)
        if name not in used and "# noqa" not in lines[line - 1]
    ]


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path(p) for p in DEFAULT_PATHS]
    problems: list[str] = []
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            if path.name != "__init__.py":
                problems.extend(unused_imports(path))
    for problem in problems:
        print(problem)
    if problems:
        print(f"check_imports: {len(problems)} unused import(s)")
        return 1
    print("check_imports: no unused imports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

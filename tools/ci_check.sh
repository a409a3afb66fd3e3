#!/usr/bin/env bash
# CI gate: tier-1 tests, the benchmark's own tests (recorded digests), the
# paper-shape benches, every plane's gates (tools/gates.py: back-to-back
# determinism, convergence under each fault campaign, bench floors and
# hard bounds), and the unused-import lint (plus ruff when it is
# installed).
#
#   tools/ci_check.sh
#
# Exits non-zero on the first failing step; gate failures are printed to
# stderr with the row, leg, check, measured value and bound.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== benchmark tests: recorded digests, tracer parity =="
python -m pytest -q perfbench/tests

echo "== paper-shape benches =="
python -m pytest -q benchmarks

echo "== gates: every plane (smoke) =="
python tools/gates.py --smoke

echo "== lint: unused imports =="
python tools/check_imports.py src tests benchmarks tools

if command -v ruff > /dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks tools
fi

echo "ci_check: all gates passed"

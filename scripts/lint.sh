#!/usr/bin/env bash
# Static-analysis gate, mirroring the CI `lint` job exactly:
#   1. python -m repro lint   (DET/UNIT/SITE/WEAR/SCHEMA/FLOW, baseline-gated)
#   2. python -m repro flow   (whole-program dataflow, reuses the lint cache)
#   3. ruff                   (pyflakes-class errors, pinned version)
#   4. mypy                   (strict on repro.lint + repro.faults)
# ruff/mypy are skipped with a warning when not installed locally
# (install them with `pip install -e .[lint]`); CI always installs the
# pinned versions from pyproject.toml, so the gate is authoritative there.
# Usage: scripts/lint.sh [--format json]
set -uo pipefail
cd "$(dirname "$0")/.."

status=0

echo "== repro lint =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro lint \
    --baseline lint-baseline.json --changed-only "$@"
rc=$?
if [ $rc -ne 0 ]; then
    status=$rc
    echo "repro lint failed (exit $rc). Reproduce with:" >&2
    echo "  PYTHONPATH=src python -m repro lint --baseline lint-baseline.json" >&2
fi

echo "== repro flow =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro flow \
    --baseline lint-baseline.json --changed-only "$@"
rc=$?
if [ $rc -ne 0 ]; then
    status=$rc
    echo "repro flow failed (exit $rc). Reproduce with:" >&2
    echo "  PYTHONPATH=src python -m repro flow --baseline lint-baseline.json" >&2
fi

echo "== ruff =="
if python -m ruff --version >/dev/null 2>&1; then
    python -m ruff check src tests || status=1
else
    echo "ruff not installed; skipping (pip install -e .[lint])" >&2
fi

echo "== mypy =="
if python -m mypy --version >/dev/null 2>&1; then
    (cd src && python -m mypy -p repro) || status=1
else
    echo "mypy not installed; skipping (pip install -e .[lint])" >&2
fi

exit $status

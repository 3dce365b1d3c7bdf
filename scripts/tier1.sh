#!/usr/bin/env bash
# Tier-1 smoke job: the fast correctness suite every PR must keep green.
# Usage: scripts/tier1.sh [extra pytest args]
# --durations=15 lists the slowest tests in every log, so a test that
# grows slow shows up where it happens.
set -uo pipefail
cd "$(dirname "$0")/.."
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q --durations=15 "$@"
status=$?
# Propagate pytest's exit code explicitly and make the failure easy to
# reproduce from a CI log (the one-line repro is the part people miss).
if [ $status -ne 0 ]; then
    echo "" >&2
    echo "tier1 FAILED (pytest exit $status). Reproduce locally with:" >&2
    echo "  PYTHONPATH=src python -m pytest -x -q $*" >&2
fi
exit $status

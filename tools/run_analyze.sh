#!/usr/bin/env bash
# Entry point for the static contract suite: tools/analyze, the contract
# analyzer over its zero-dependency declaration parser. It runs the semantic
# rules and the source-text determinism rules (docs/ANALYSIS.md).
#
# Usage: tools/run_analyze.sh [analyzer args...]
#   e.g. tools/run_analyze.sh src/sim
#
# Exit status: non-zero when the analyzer reports an unsuppressed finding.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

status=0
python3 -m tools.analyze.analyze "$@" || status=1

if [ "$status" -ne 0 ]; then
  echo "run_analyze: FAILED -- unsuppressed findings above" >&2
else
  echo "run_analyze: clean"
fi
exit "$status"

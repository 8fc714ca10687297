#!/usr/bin/env bash
# Collection smoke: batched ingest must beat pointwise writes (>=3x) with
# byte-identical archives, a warm re-plan must make zero solver calls,
# and two seeded collection runs must replay identically -- with and
# without fault injection.  Override the chaos profile via
# CHAOS_PROFILE, e.g.
#   CHAOS_PROFILE=heavy scripts/bench_collection.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PROFILE="${CHAOS_PROFILE:-moderate}"
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== collection bench: round latency, ingest, plan cache =="
python benchmarks/bench_collection.py

echo "== double-run determinism =="
python -m repro.devtools.doublerun --rounds 2

echo "== double-run determinism under chaos: profile=${PROFILE} =="
python -m repro.devtools.doublerun --rounds 2 --chaos-profile "${PROFILE}"

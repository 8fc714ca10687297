#!/usr/bin/env bash
# Concurrency gate: the static spotconc rules must hold repo-wide, the
# deterministic sanitizer probe must come back clean, and the collector +
# chaos suites must pass with the sanitizer armed via the autouse
# fixture (SPOTCONC_SANITIZE=1).
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== static concurrency rules: CONC001-003 + FLOW001 =="
python -m repro.cli lint src/repro \
    --select CONC001,CONC002,CONC003,FLOW001

echo "== sanitized probe: threaded serving frontend under lock tracking =="
python -m repro.cli lint src/repro --sanitize

echo "== sanitized collector + chaos suites =="
SPOTCONC_SANITIZE=1 python -m pytest tests/core/test_collectors.py \
    tests/chaos -q

"""Collection benchmark: round latency, batched ingest, plan cache.

SPS collection admits the whole plan serially, then lands every round
through the batched archive writers; the plan cache
(``repro.core.plan_cache``) reuses solved query packings across service
constructions.  This bench answers whether those layers pay for
themselves, and -- because a fast wrong answer is worthless -- the ingest
comparison is gated on byte-identity of the resulting archives.

Acceptance: batched archive writes must beat pointwise writes by at
least 3x, and a warm re-plan of an unchanged catalog must make zero
solver calls.  The full-catalog SPS round latency is reported without a
gate.  The JSON report lands in ``BENCH_collection.json`` next to this
file's parent.

Run standalone (CI smoke) or under pytest:

    PYTHONPATH=src python benchmarks/bench_collection.py
    PYTHONPATH=src python -m pytest benchmarks/bench_collection.py -q
"""

import json
import sys
from pathlib import Path

from repro.devtools.collectionbench import run_collection_bench, summary_lines

#: Acceptance floor for batched-over-pointwise ingest throughput.
MIN_INGEST_RATIO = 3.0

REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_collection.json"


def run_and_report(write_report: bool = True) -> dict:
    report = run_collection_bench()
    print("\nCollection bench: round latency, ingest, plan cache")
    for line in summary_lines(report):
        print(f"  {line}")
    if write_report:
        REPORT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
        print(f"  report written to {REPORT_PATH}")
    return report


def _gates(report: dict) -> list:
    """(name, passed) acceptance checks over one report."""
    ingest = report["ingest"]
    cache = report["plan_cache"]
    return [
        (f"ingest ratio {ingest['throughput_ratio']:.2f}x >= "
         f"{MIN_INGEST_RATIO:.1f}x",
         ingest["throughput_ratio"] >= MIN_INGEST_RATIO),
        ("ingest archives byte-identical", ingest["byte_identical"]),
        ("warm re-plan makes zero solver calls",
         cache["warm_solver_calls"] == 0),
        ("cold plan actually solved packings", cache["cold_solver_calls"] > 0),
        ("cached plan identical to cold plan", cache["plans_identical"]),
    ]


def test_collection_engine_gates():
    report = run_and_report()
    for name, passed in _gates(report):
        assert passed, f"collection bench gate failed: {name}"


if __name__ == "__main__":
    result = run_and_report()
    failed = [name for name, passed in _gates(result) if not passed]
    for name in failed:
        print(f"FAIL: {name}", file=sys.stderr)
    sys.exit(1 if failed else 0)

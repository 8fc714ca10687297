"""SpotLake end-to-end benchmark: one command for every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` measures end to end and reports the ``end_to_end`` metrics
of ``BENCHMARK.json``; ``--trace 1`` runs the workload traced, attributes
its time to layers plus ``other``, reports the ``per_layer`` metrics and
the tracing overhead against an untraced run of the same inputs (taken
from the trajectory, or run first when the trajectory has none), and
writes the spans to ``perfbench/out/spans-<workload>.jsonl``.

The program is imported from ``src/`` of the checkout.  Every run appends
one record, stamped with the Python and numpy versions, the CPU count, the
source revision and the seed, to ``perfbench/out/trajectory.jsonl``.  The
last line printed is the machine-readable result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status is 0 when the run completed (its ``correct`` field says
whether the output checks passed) and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def source_revision() -> dict:
    """git revision when available, plus a digest of the source tree."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    rev = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def stamp(args) -> dict:
    import numpy

    return {
        "time_unix": time.time(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        **source_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def untraced_baseline(record_stamp: dict):
    """ops_per_cpu_s of the newest untraced run of the same workload, seed,
    length, scale and source in the trajectory, or None."""
    path = OUT / "trajectory.jsonl"
    if not path.exists():
        return None
    keys = ("workload", "seed", "seconds", "scale", "src_sha256")
    for raw in reversed(path.read_text(encoding="utf-8").splitlines()):
        try:
            record = json.loads(raw)
            earlier = record["stamp"]
            if earlier["trace"] == 0 and all(
                    earlier[k] == record_stamp[k] for k in keys):
                return record["metrics"]["ops_per_cpu_s"]["value"]
        except (ValueError, KeyError, TypeError):
            continue
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(tracer, result, untraced_rate: float) -> dict:
    """Every ``per_layer`` metric, from the traced run's spans + stats."""
    from tracer import ROUTES

    times = tracer.self_times()

    def self_s(*names):
        return sum(times.get(n, {}).get("self_s", 0.0) for n in names)

    def count(*names):
        return sum(times.get(n, {}).get("count", 0) for n in names)

    def mean_ms(name, key):
        entry = times.get(name)
        if not entry or not entry["count"]:
            return 0.0
        return entry[key] / entry["count"] * 1e3

    c = result.counters
    out = {
        "cloudsim.sps_s": self_s("cloudsim.sps"),
        "cloudsim.advisor_s": self_s("cloudsim.advisor"),
        "cloudsim.price_s": self_s("cloudsim.price"),
        "cloudsim.calls": count("cloudsim.sps", "cloudsim.advisor",
                                "cloudsim.price"),
        "planner.plan_s": times.get("planner.plan", {}).get("total_s", 0.0),
        "planner.solver_calls": count("planner.solver"),
        "planner.cache_hit_rate": c.get("planner.cache_hit_rate", 0.0),
        "collectors.sps_s": self_s("collectors.sps"),
        "collectors.advisor_s": self_s("collectors.advisor"),
        "collectors.price_s": self_s("collectors.price"),
        "collectors.queries": c.get("collectors.queries", 0),
        "resilience.retries": c.get("resilience.retries", 0),
        "resilience.gaps": c.get("resilience.gaps", 0),
        "lake.merge_s": self_s("lake.merge"),
        "lake.diff_s": self_s("lake.diff"),
        "lake.append_s": self_s("lake.append"),
        "lake.compact_s": self_s("lake.compact"),
        "lake.rows_merged": c.get("lake.rows_merged", 0),
        "lake.rows_ingested": c.get("lake.rows_ingested", 0),
        "lake.bytes_written": (tracer.results.get("lake.append", 0.0)
                               + tracer.results.get("lake.compact", 0.0)),
        "lake.seed_s": self_s("lake.seed"),
        "archive.put_batch_s": self_s("archive.put_batch"),
        "archive.retention_s": self_s("archive.retention"),
        "storage.commit_s": self_s("storage.commit"),
        "storage.checkpoint_s": self_s("storage.checkpoint"),
        "storage.wal_bytes": c.get("storage.wal_bytes", 0),
        "storage.segment_bytes": c.get("storage.segment_bytes", 0),
        "storage.write_amp": c.get("storage.write_amp", 0.0),
        "storage.recover_s": self_s("storage.recover"),
        "storage.replayed_ops": c.get("storage.replayed_ops", 0),
        "frontend.wait_ms": mean_ms("frontend.wait", "total_s"),
        "frontend.rejected": c.get("frontend.rejected", 0),
    }
    for route in ROUTES:
        out[f"serving.{route}.self_ms"] = mean_ms(f"serving.{route}",
                                                  "self_s")
        out[f"serving.{route}.n"] = count(f"serving.{route}")
    out.update({
        "cache.hit_rate": c.get("cache.hit_rate", 0.0),
        "cache.evictions": c.get("cache.evictions", 0),
        "cache.invalidations": c.get("cache.invalidations", 0),
        "tsdb.scan_s": self_s("tsdb.scan"),
        "analytics.run_s": self_s("analytics.run"),
        "analytics.rollup_day_hits": c.get("analytics.rollup_day_hits", 0),
        "analytics.rollup_day_recomputes": c.get(
            "analytics.rollup_day_recomputes", 0),
        "analytics.chunks_decoded": c.get("analytics.chunks_decoded", 0),
        "analytics.chunks_pruned": c.get("analytics.chunks_pruned", 0),
        "federated.query_s": self_s("federated.query"),
        "federated.cold_rows": c.get("federated.cold_rows", 0),
    })
    out["other_s"] = sum(phase["other_s"]
                         for phase in tracer.attribution().values())
    traced_rate = result.metrics["ops_per_cpu_s"][0]
    out["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    return {k: float(v) for k, v in out.items()}


# -- main ------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every size (smoke tests only)")
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no SpotLake sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer
    from workloads import COVERAGE, SCALES, WORKLOADS, Context, SpeedSampler

    spec = load_spec()
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected one of "
                    + ", ".join(sorted(WORKLOADS)))
    run = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    record = {"stamp": stamp(args)}

    def measure(tracer=None):
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir()
        with SpeedSampler(tracer=tracer) as speed:
            return run(Context(seed=args.seed, seconds=args.seconds,
                               scale=args.scale, workdir=workdir,
                               speed=speed, tracer=tracer))

    # the traced run's overhead is taken against an untraced run of the
    # same inputs: the trajectory's, or one made here first
    baseline = untraced_baseline(record["stamp"]) if args.trace else None
    untraced = tracer = None
    try:
        if baseline is None:
            untraced = result = measure()
            baseline = result.metrics["ops_per_cpu_s"][0]
        if args.trace:
            gc.collect()
            tracer = Tracer()
            tracer.install()
            try:
                result = measure(tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.metrics["process_peak_rss_mb"] = (peak_rss_mb(), "MB")
    result.metrics["error_rate"] = (
        result.failed / result.attempted if result.attempted else 1.0,
        "ratio")
    correct = all(result.checks.values()) and (
        untraced is None or all(untraced.checks.values()))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"measured {result.measured_s:.2f} s  trace {args.trace}")
    print(f"  sizes {SCALES[args.scale][args.workload]}")
    print(f"  layers {COVERAGE[args.workload]}")
    for name, (value, unit) in sorted(result.metrics.items()):
        print(f"  {name:24s} {value:14.4f} {unit}")
    for name, value in sorted(result.counters.items()):
        print(f"  counter {name:30s} {value:14.4f}")
    for name, ok in sorted(result.checks.items()):
        print(f"  check {name:40s} {'ok' if ok else 'FAILED'}")
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in result.metrics.items()}
    record["checks"] = result.checks
    record["counters"] = result.counters

    if tracer is not None:
        values = layer_metrics(tracer, result, baseline)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
        for phase, entry in tracer.attribution().items():
            wall = entry["wall_s"] or 1.0
            print(f"  attribution of {phase} spans ({entry['wall_s']:.4f} s):")
            rows = sorted(entry["layers"].items(), key=lambda r: -r[1])
            for name, secs in [*rows, ("other", entry["other_s"])]:
                print(f"    {name:28s} {secs:10.4f} s {secs / wall:7.2%}")
        print(f"  tracing overhead {values['trace.overhead_pct']:.2f}% "
              f"(ops_per_cpu_s untraced {baseline:.4f} vs traced "
              f"{result.metrics['ops_per_cpu_s'][0]:.4f})")
        tracer.dump(OUT / f"spans-{args.workload}.jsonl")
        record["per_layer"] = metrics
    else:
        metrics = {m["name"]: {"value": result.metrics[m["name"]][0],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    line = {"correct": correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}
    record["result"] = line
    with open(OUT / "trajectory.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

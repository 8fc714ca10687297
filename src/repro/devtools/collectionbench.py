"""Collection benchmark harness: round latency, ingest, plan cache.

Three measurements of the collection path:

1. **Round latency** -- one full-catalog SPS collection round through
   ``SpsCollector.collect`` on a fresh seeded service (warm-up round
   first, minimum of ``rounds`` measured rounds taken).  Reported only;
   no gate rides on it.
2. **Ingest throughput** -- the same SPS row stream written pointwise
   (``put_sps`` per row) versus batched (``put_sps_batch``), both over a
   durable WAL-backed archive, with a directory-level byte-identity
   check of the two data dirs.
3. **Plan cache** -- cold plan construction (every packing solved) versus
   a warm re-plan of the identical offering map, asserting via the
   solver's call counters that the warm pass performs *zero* solver
   calls.

Lives in ``devtools`` (not ``core``) because it times with the *host*
clock: benchmarking is meta-observation, outside the simulation's
seed+clock determinism envelope (latencies are reported, never archived).
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.archive import SpotLakeArchive
from ..core.plan_cache import SOLVER_STATS, PlanCache
from ..core.service import ServiceConfig, SpotLakeService
from ..timeseries import dump_store

#: Measured collection rounds (after one warm-up round).
DEFAULT_ROUNDS = 3
#: Ingest workload shape: ``INGEST_ROUNDS`` stamps over a fixed pool grid.
INGEST_TYPES = 20
INGEST_REGIONS = 17
INGEST_ZONES = 3
INGEST_ROUNDS = 20
#: Timing repeats per ingest leg (minimum taken).
DEFAULT_REPEATS = 3


# -- shared helpers ---------------------------------------------------------


def _store_digest(store) -> str:
    """One hash over a store's canonical JSONL dump (order-stable)."""
    directory = Path(tempfile.mkdtemp(prefix="collectionbench-"))
    try:
        dump_store(store, directory)
        digest = hashlib.sha256()
        for path in sorted(directory.glob("*.jsonl")):
            digest.update(path.name.encode("utf-8"))
            digest.update(path.read_bytes())
        return digest.hexdigest()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _dir_digest(directory: Path) -> str:
    """One hash over every file (name + bytes) under a data directory."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            digest.update(name.encode("utf-8"))
            digest.update((Path(root) / name).read_bytes())
    return digest.hexdigest()


# -- round latency ----------------------------------------------------------


def bench_round_latency(seed: int = 7, rounds: int = DEFAULT_ROUNDS,
                        interval: float = 600.0) -> dict:
    """Best-of-N full-catalog SPS round latency, plus the archive digest
    after all rounds."""
    PlanCache.reset_shared()
    service = SpotLakeService(ServiceConfig(seed=seed))
    try:
        service.sps_collector.collect()  # warm-up: primes caches/templates
        best = float("inf")
        for _ in range(rounds):
            service.cloud.clock.advance(interval)
            started = time.perf_counter()
            service.sps_collector.collect()
            best = min(best, time.perf_counter() - started)
        digest = _store_digest(service.archive.store)
    finally:
        service.close()
    return {"seed": seed, "rounds": rounds, "seconds": best,
            "digest": digest}


# -- ingest throughput ------------------------------------------------------


def _ingest_rows(base_time: float) -> List[Tuple[str, str, str, int, float]]:
    """A deterministic SPS row stream: every pool scored each round."""
    rows = []
    for step in range(INGEST_ROUNDS):
        stamp = base_time + float(step)
        for t in range(INGEST_TYPES):
            itype = f"bench{t}.large"
            for r in range(INGEST_REGIONS):
                region = f"rg-{r}"
                for z in range(INGEST_ZONES):
                    rows.append((itype, region, f"{region}{chr(97 + z)}",
                                 (step * 7 + t + z) % 10, stamp))
    return rows


def _run_ingest_leg(batched: bool, directory: Path) -> Tuple[float, int]:
    """One timed ingest leg over a fresh durable archive.

    A warm-up pass (earlier timestamps) first populates series, WAL
    templates and key caches so the measurement sees steady-state cost;
    returns (elapsed seconds, measured row count)."""
    archive = SpotLakeArchive(data_dir=directory, checkpoint_every=0)
    warmup = _ingest_rows(0.0)
    rows = _ingest_rows(1000.0)
    try:
        if batched:
            archive.put_sps_batch(warmup)
            archive.commit_round(float(INGEST_ROUNDS))
            started = time.perf_counter()
            archive.put_sps_batch(rows)
            elapsed = time.perf_counter() - started
        else:
            for itype, region, zone, score, stamp in warmup:
                archive.put_sps(itype, region, zone, score, stamp)
            archive.commit_round(float(INGEST_ROUNDS))
            started = time.perf_counter()
            for itype, region, zone, score, stamp in rows:
                archive.put_sps(itype, region, zone, score, stamp)
            elapsed = time.perf_counter() - started
        archive.commit_round(1000.0 + INGEST_ROUNDS)
        archive.checkpoint(1000.0 + INGEST_ROUNDS)
    finally:
        archive.close()
    return elapsed, len(rows)


def bench_ingest(base: Path, repeats: int = DEFAULT_REPEATS) -> dict:
    """Pointwise vs batched archive writes, durable, byte-compared."""
    results: Dict[str, dict] = {}
    digests: Dict[str, str] = {}
    for label, batched in (("pointwise", False), ("batch", True)):
        best = float("inf")
        best_dir: Optional[Path] = None
        for attempt in range(repeats):
            directory = base / f"ingest-{label}-{attempt}"
            directory.mkdir(parents=True)
            elapsed, count = _run_ingest_leg(batched, directory)
            if elapsed < best:
                best = elapsed
                if best_dir is not None:
                    shutil.rmtree(best_dir)
                best_dir = directory
            else:
                shutil.rmtree(directory)
        digests[label] = _dir_digest(best_dir)
        results[label] = {
            "seconds": best,
            "records": count,
            "records_per_second": count / best if best > 0 else 0.0,
        }
    pointwise = results["pointwise"]["records_per_second"]
    batch = results["batch"]["records_per_second"]
    return {
        "pointwise": results["pointwise"],
        "batch": results["batch"],
        "throughput_ratio": batch / pointwise if pointwise > 0 else 0.0,
        "byte_identical": digests["pointwise"] == digests["batch"],
    }


# -- plan cache -------------------------------------------------------------


def bench_plan_cache(seed: int = 7) -> dict:
    """Cold vs warm plan construction over the full catalog.

    The warm pass re-plans the *identical* offering map through the
    shared cache; the solver call counters must not move at all."""
    from ..cloudsim import SimulatedCloud

    offering_map = SimulatedCloud(seed=seed).catalog.offering_map()
    PlanCache.reset_shared()
    cache = PlanCache.shared()

    SOLVER_STATS.reset()
    started = time.perf_counter()
    cold_plan = cache.plan(offering_map)
    cold_seconds = time.perf_counter() - started
    cold_calls = SOLVER_STATS.total_calls

    SOLVER_STATS.reset()
    started = time.perf_counter()
    warm_plan = cache.plan(offering_map)
    warm_seconds = time.perf_counter() - started
    warm_calls = SOLVER_STATS.total_calls

    return {
        "types": len(offering_map),
        "queries": cold_plan.optimized_query_count,
        "cold_seconds": cold_seconds,
        "cold_solver_calls": cold_calls,
        "warm_seconds": warm_seconds,
        "warm_solver_calls": warm_calls,
        "speedup": cold_seconds / warm_seconds if warm_seconds > 0 else 0.0,
        "plans_identical": cold_plan.queries == warm_plan.queries,
    }


# -- entry point ------------------------------------------------------------


def run_collection_bench(seed: int = 7, rounds: int = DEFAULT_ROUNDS,
                         repeats: int = DEFAULT_REPEATS,
                         workdir: Optional[Path] = None) -> dict:
    """Full collection benchmark; returns the JSON-serializable report."""
    own_tmp = workdir is None
    base = Path(tempfile.mkdtemp(prefix="collectionbench-")) if own_tmp \
        else Path(workdir)
    try:
        return {
            "config": {"seed": seed, "rounds": rounds, "repeats": repeats},
            "round_latency": bench_round_latency(seed, rounds),
            "ingest": bench_ingest(base, repeats),
            "plan_cache": bench_plan_cache(seed),
        }
    finally:
        if own_tmp:
            shutil.rmtree(base, ignore_errors=True)


def summary_lines(report: dict) -> List[str]:
    latency = report["round_latency"]
    ingest = report["ingest"]
    cache = report["plan_cache"]
    return [
        f"round latency (full catalog, best of {latency['rounds']}): "
        f"{latency['seconds'] * 1000:.1f} ms",
        f"ingest: pointwise "
        f"{ingest['pointwise']['records_per_second']:,.0f} rec/s -> batch "
        f"{ingest['batch']['records_per_second']:,.0f} rec/s "
        f"({ingest['throughput_ratio']:.2f}x, "
        f"byte-identical: {ingest['byte_identical']})",
        f"plan cache: cold {cache['cold_seconds'] * 1000:.1f} ms "
        f"({cache['cold_solver_calls']} solver calls) -> warm "
        f"{cache['warm_seconds'] * 1000:.2f} ms "
        f"({cache['warm_solver_calls']} solver calls, "
        f"{cache['speedup']:.0f}x)",
    ]

"""The benchmark's three workloads, driven through SpotLake's public API.

Each workload builds its inputs from the seed before any timing, runs the
real :class:`~repro.core.service.SpotLakeService` (``ServiceConfig``
defaults except the fields the workload names), checks its outputs, and
returns a :class:`Result`.

* ``ingest`` -- the production collection loop with no readers: full
  catalog, lake on, a durable data dir, hot retention of two rounds, then
  a kill and a reopen.
* ``serve`` -- read-only: a backfilled hot tier served to two closed-loop
  clients through the admission-controlled frontend, with a zipf request
  mix over a universe several times larger than the per-table cache.
* ``mixed`` -- each committed round (lake on, retention of one round) is
  followed by a fixed batch of reads from a hot set that fits the cache,
  on one thread, so the responses are deterministic.

Sizes live in :data:`SCALES`; ``full`` is what the benchmark measures and
``tiny`` only keeps the smoke tests short.
"""

from __future__ import annotations

import gc
from array import array
import hashlib
import os
import random
import shutil
import signal
import statistics
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time, sleep, thread_time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloudsim import Catalog
from repro.core.frontend import Tenant
from repro.core.metrics import percentile
from repro.core.plan_cache import PlanCache
from repro.core.service import ServiceConfig, SpotLakeService
from repro.lake.store import lake_day

DAY = 86400.0
#: A workload's shape -- the simulated world (catalog, offerings, market,
#: as AWS's is one), its type slices and its request popularity -- is the
#: same for every seed; the seed draws a sample from it: the start time
#: (an offset of under one round), the clients' request sequences and the
#: order of the mixed read batch.  Seeding the shape would make the
#: figures a property of the seed (the packing solver's work depends on
#: the catalog's offering profiles, a slice's cost on its types, and the
#: simulator's cost per sample on the simulated time elapsed).
WORLD_SEED = 7
#: Start offsets are 1..5 steps of 100 s.  Never 0: rounds aligned with
#: the simulation epoch see the advisor's refresh boundaries and diff
#: noticeably fewer rows, a different workload from every other offset.
OFFSET_STEP = 100.0
OFFSET_STEPS = 5
#: collection cadence of every round the benchmark commits (the paper's)
INTERVAL = ServiceConfig().collection_interval

#: Per-workload sizes.  ``pools`` sizes a type slice; without it
#: ``ingest`` collects the whole catalog (547 instance types, 2,143
#: packed SPS queries per round).
SCALES: Dict[str, Dict[str, dict]] = {
    "full": {
        "ingest": {"rounds": 5, "retention_rounds": 2,
                   "setups": 3},
        "serve": {"pools": 128, "days": 10, "cadence": 3600.0, "clients": 2,
                  "zipf_s": 1.1, "windows_days": (1, 7, 30),
                  "latest_times": 24, "check_sample": 100, "setups": 3,
                  "stream": 1 << 17, "warmup_s": 1.0, "window_s": 0.5},
        "mixed": {"pools": 200, "pre_rounds": 2, "retention_rounds": 1,
                  "repeats": 3, "periods": 2, "replay_cycles": 1,
                  "setups": 2},
    },
    "tiny": {
        "ingest": {"pools": 20, "rounds": 5, "retention_rounds": 2,
                   "setups": 2},
        "serve": {"pools": 24, "days": 2, "cadence": 3600.0, "clients": 2,
                  "zipf_s": 1.1, "windows_days": (1, 7, 30),
                  "latest_times": 2, "check_sample": 20, "setups": 2,
                  "stream": 1 << 12, "warmup_s": 0.1, "window_s": 0.1},
        "mixed": {"pools": 30, "pre_rounds": 2, "retention_rounds": 1,
                  "repeats": 1, "periods": 1, "replay_cycles": 2,
                  "setups": 1},
    },
}


#: Which layers each workload puts work on and which it leaves idle once
#: set up (the prediction for a change to a bypassed layer is no change).
COVERAGE: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "ingest": {
        "exercises": ("cloudsim", "planner", "collectors", "resilience",
                      "lake", "archive", "storage"),
        "bypasses": ("frontend", "serving", "cache", "analytics",
                     "federated"),
    },
    "serve": {
        "exercises": ("frontend", "serving", "cache", "tsdb", "analytics"),
        "bypasses": ("cloudsim", "planner", "collectors", "lake",
                     "storage", "federated"),
    },
    "mixed": {
        "exercises": ("cloudsim", "collectors", "lake", "archive",
                      "storage", "serving", "cache", "tsdb", "analytics",
                      "federated"),
        "bypasses": ("frontend",),
    },
}


@dataclass
class Result:
    """What one workload run measured and checked."""

    #: the named end-to-end metrics: name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: output checks: name -> passed
    checks: Dict[str, bool] = field(default_factory=dict)
    #: per-layer counters read from the layers' public stats()
    counters: Dict[str, float] = field(default_factory=dict)
    #: wall seconds of the measured phase (setup and checks excluded)
    measured_s: float = 0.0

    def cpu_metrics(self, setups: Sequence["Watch"], measured: "Watch",
                    op_cpu_s: Sequence[float],
                    ops: Optional[int] = None) -> None:
        """The metrics ``BENCHMARK.json`` bounds.

        Times are normalized CPU times (see :class:`SpeedSampler`) of the
        set-ups and of each op (``op_cpu_s``).  Throughput is ``ops`` per
        normalized CPU second of the whole measured phase, or, without
        ``ops``, the inverse of the median op (the serve workload's ops
        are time windows of requests, and a threaded closed loop's total
        CPU swings with the host's scheduling).  Memory is the measured
        phase's peak resident set.  Wall-clock figures are reported
        beside them, unbounded.
        """
        self.metrics["peak_rss_mb"] = (measured.peak_rss_mb, "MB")
        self.metrics["setup_s"] = (
            statistics.median(w.norm_cpu for w in setups), "s")
        self.metrics["setup_wall_s"] = (
            statistics.median(w.wall for w in setups), "s")
        median = statistics.median(op_cpu_s)
        self.metrics["ops_per_cpu_s"] = (
            (ops / measured.norm_cpu) if ops is not None else 1.0 / median,
            "1/s")
        self.metrics["op_cpu_ms"] = (median * 1e3, "ms")


#: Normalized CPU seconds are CPU seconds rescaled to a machine on which
#: one run of the speed kernel takes this long.
KERNEL_REF_S = 0.005
KERNEL_ROWS = 4_000
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def _kernel() -> float:
    """Thread-CPU seconds of one run of a fixed pure-Python kernel."""
    collecting = gc.isenabled()
    gc.disable()  # the kernel makes no cycles; refcounting frees it all
    try:
        start = thread_time()
        rows = [{"time": float(i), "value": (i * 7919) % 1009,
                 "key": f"pool-{(i * 104729) % 997}"}
                for i in range(KERNEL_ROWS)]
        rows.sort(key=lambda row: (row["key"], row["time"]))
        table: Dict[str, float] = {}
        for row in rows:
            table[row["key"]] = table.get(row["key"], 0.0) + row["value"]
        return thread_time() - start
    finally:
        if collecting:
            gc.enable()


class SpeedSampler:
    """Samples the host's speed all through a run.

    A shared host's speed drifts by a fifth within seconds (frequency,
    other tenants on the sibling hyperthreads and the memory bus), and
    CPU time drifts with it.  Every ``interval`` wall seconds a SIGALRM
    handler runs a fixed kernel on the main thread -- pure Python,
    independent of the program, building, sorting and folding small
    records as SpotLake does -- and records its CPU time.  An interval's
    CPU time, less the kernels' own, divided by the mean kernel time
    sampled inside it, measures the program's work, not the host's mood.
    In a traced run each kernel run is recorded as a ``speed.kernel``
    span, so no layer's self time includes it.  Each tick also samples
    the resident set size, so a phase's peak memory can be read apart
    from set-up and checks.
    """

    def __init__(self, interval: float = 0.2, tracer=None) -> None:
        self.interval = interval
        self.tracer = tracer
        self.kernels: List[float] = []
        self.kernel_cpu = 0.0
        self.rss_mb: List[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        spent = _kernel()
        self.kernels.append(spent)
        self.kernel_cpu += spent
        self.rss_mb.append(resident_mb())
        if self.tracer is not None:
            self.tracer.record_here("speed.kernel", start, perf_counter())

    def mark(self) -> Tuple[float, float, int]:
        return process_time(), self.kernel_cpu, len(self.kernels)

    def normalized_cpu(self, start: Tuple[float, float, int],
                       stop: Tuple[float, float, int]) -> float:
        """Normalized CPU seconds between two marks."""
        cpu = (stop[0] - start[0]) - (stop[1] - start[1])
        inside = self.kernels[start[2]:stop[2]] or self.kernels[-1:]
        if not inside:
            return cpu
        return cpu * KERNEL_REF_S / statistics.fmean(inside)


def resident_mb() -> float:
    """The process's current resident set size in MB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * PAGE_BYTES / 2**20


class Watch:
    """Wall, process-CPU and normalized CPU seconds of one interval."""

    def __init__(self, speed: Optional[SpeedSampler] = None) -> None:
        self._speed = speed
        self._mark = speed.mark() if speed is not None else None
        self._wall = perf_counter()
        self._cpu = process_time()
        self.wall = self.cpu = self.norm_cpu = self.peak_rss_mb = 0.0

    def elapsed(self) -> float:
        return perf_counter() - self._wall

    def stop(self) -> "Watch":
        self.wall = perf_counter() - self._wall
        self.cpu = process_time() - self._cpu
        if self._speed is not None:
            stop = self._speed.mark()
            self.norm_cpu = self._speed.normalized_cpu(self._mark, stop)
            self.peak_rss_mb = max(
                self._speed.rss_mb[self._mark[2]:stop[2]] or [resident_mb()])
        return self


@dataclass
class Context:
    """Run parameters shared by every workload."""

    seed: int
    seconds: float
    scale: str
    workdir: Path
    #: the run's host-speed sampler (normalized CPU times need one)
    speed: Optional[SpeedSampler] = None
    #: the traced run's tracer; None measures end to end untraced
    tracer: Optional[object] = None

    def span(self, name: str, op: Optional[str] = None):
        """A root span around one round, request, set-up or reopen."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, op)

    @property
    def offset(self) -> float:
        """Seeded start offset into the simulated window (< one round)."""
        return (self.seed % OFFSET_STEPS + 1) * OFFSET_STEP

    def sizes(self, workload: str) -> dict:
        return SCALES[self.scale][workload]

    def data_dir(self, tag: str) -> str:
        path = self.workdir / tag
        if path.exists():
            shutil.rmtree(path)
        return str(path)


# -- shared helpers ----------------------------------------------------------


class PlanCacheTally:
    """Sums the process-wide plan cache's counters across resets.

    Every service build starts from an empty shared plan cache, as a new
    process would, so repeated set-ups and reopens do equal work.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def fresh(self) -> None:
        stats = PlanCache.shared().stats()
        self.hits += stats["hits"]
        self.misses += stats["misses"]
        PlanCache.reset_shared()

    def hit_rate(self) -> float:
        self.fresh()
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def selected_pools(service: SpotLakeService
                   ) -> List[Tuple[str, str, str]]:
    """The (type, region, zone) pools of the service's type slice."""
    wanted = service.config.instance_types
    return sorted(p for p in service.cloud.catalog.all_pools()
                  if wanted is None or p[0] in wanted)


def latency_metrics(prefix: str, samples_s: Sequence[float],
                    metrics: Dict[str, Tuple[float, str]]) -> None:
    """p50 (and p99 when at least 10 samples lie beyond it), in ms."""
    metrics[f"{prefix}_p50_ms"] = (statistics.median(samples_s) * 1e3, "ms")
    metrics[f"{prefix}_n"] = (float(len(samples_s)), "count")
    if len(samples_s) * 0.01 >= 10:
        metrics[f"{prefix}_p99_ms"] = (
            percentile(sorted(samples_s), 99) * 1e3, "ms")


def store_digest(store) -> str:
    """Digest of every hot-table series (keys, change times, values)."""
    h = hashlib.sha256()
    for name in store.table_names():
        table = store.table(name)
        for key in table.series_keys():
            series = table.series(key)
            h.update(repr((name, key.measure_name, key.dimensions,
                           list(series.times), list(series.values)))
                     .encode("utf-8"))
    return h.hexdigest()


def stored_bytes(data_dir: str) -> int:
    """On-disk WAL (``.log``), segment and lake (``.seg``) bytes."""
    total = 0
    for dirpath, _dirs, files in os.walk(data_dir):
        for name in files:
            if name.endswith((".log", ".seg")):
                total += os.path.getsize(os.path.join(dirpath, name))
    return total


def round_failed(reports) -> bool:
    """A round fails on any failed SPS query or any gap record."""
    return any(r.queries_failed or r.gaps for r in reports.values())


def timed_setups(ctx: Context, count: int, build: Callable[[], object],
                 release: Callable[[object], None]) -> Tuple[List[Watch],
                                                             object]:
    """Run ``build`` ``count`` times; keep the last product.

    The kept product's heap is then frozen out of the cyclic collector
    (``gc.freeze``, as long-running Python services do after start-up):
    otherwise when a full collection lands -- and how much set-up heap it
    rescans -- varies from run to run and swamps the measured phase.
    Workloads call :func:`thaw` once the measured phase is over.
    """
    times = []
    product = None
    for i in range(count):
        if product is not None:
            release(product)
            product = None
        gc.collect()
        watch = Watch(ctx.speed)
        with ctx.span("setup", f"setup-{i}"):
            product = build()
        times.append(watch.stop())
    gc.collect()
    gc.freeze()
    return times, product


def thaw() -> None:
    """Hand the frozen set-up heap back to the collector."""
    gc.unfreeze()
    gc.collect()


def collection_counters(result: Result, service: SpotLakeService,
                        queries: int) -> None:
    resilience = service.resilience_stats()
    result.counters["collectors.queries"] = queries
    result.counters["resilience.retries"] = sum(
        s["retries"] for s in resilience.values())
    result.counters["resilience.gaps"] = sum(
        s["gaps"] for s in resilience.values())
    result.counters["lake.rows_merged"] = service.archive.rows_merged
    result.counters["lake.rows_ingested"] = service.archive.rows_ingested


def read_counters(result: Result, service: SpotLakeService) -> None:
    cache = service.archive.cache_stats()
    tables = cache["tables"].values()
    result.counters["cache.hit_rate"] = cache["hit_rate"]
    result.counters["cache.evictions"] = sum(t["evictions"] for t in tables)
    result.counters["cache.invalidations"] = sum(
        t["invalidations"] for t in tables)
    analytics = service.archive.analytics.stats()
    for name in ("rollup_day_hits", "rollup_day_recomputes",
                 "chunks_decoded", "chunks_pruned"):
        result.counters[f"analytics.{name}"] = analytics[name]
    lake = service.archive.stats().get("lake")
    if lake is not None:
        result.counters["federated.cold_rows"] = \
            lake["federated"]["cold_rows"]


def storage_counters(result: Result, service: SpotLakeService) -> None:
    stats = service.archive.engine.stats()
    result.counters["storage.wal_bytes"] = stats["wal_bytes_written"]
    result.counters["storage.segment_bytes"] = stats["segment_bytes_written"]
    result.counters["storage.write_amp"] = stats["write_amplification"]


def response_digest(responses) -> str:
    h = hashlib.sha256()
    for response in responses:
        h.update(f"{response.status}:".encode("ascii"))
        h.update(response.json().encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


# -- ingest ------------------------------------------------------------------


def run_ingest(ctx: Context) -> Result:
    """Full-catalog collection rounds, then a kill and a reopen.

    The clock starts two rounds before a UTC midnight, so the run closes a
    lake day, which the benchmark then compacts (the operator's daily
    ``lake compact``).  Retention of two rounds evicts from the third
    round on; the default checkpoint cadence (every 4th round) fires once.
    The kill image is the data dir as it stands after the last committed
    round (at least ``rounds`` of them, and at least ``seconds`` of
    rounds); the service is abandoned without ``close()`` and a new one
    opens the same dir.
    """
    size = ctx.sizes("ingest")
    result = Result()
    tally = PlanCacheTally()
    # the whole catalog, unless a (test-sized) slice is named
    types = (sorted({p[0] for p in pick_pools(WORLD_SEED, size["pools"])})
             if "pools" in size else None)
    config = dict(seed=WORLD_SEED, instance_types=types, lake=True,
                  retention_max_age=size["retention_rounds"] * INTERVAL)
    builds = iter(range(size["setups"]))

    def build() -> SpotLakeService:
        tally.fresh()
        service = SpotLakeService(ServiceConfig(
            data_dir=ctx.data_dir(f"ingest-{next(builds)}"), **config))
        clock = service.cloud.clock
        clock.advance(DAY - 2 * INTERVAL - (clock.now() % DAY) + ctx.offset)
        return service

    setups, service = timed_setups(ctx, size["setups"], build,
                                   SpotLakeService.close)
    data_dir = service.config.data_dir

    rounds: List[Watch] = []
    queries = 0
    clock = service.cloud.clock
    day = lake_day(clock.now())
    measured = Watch(ctx.speed)
    while (len(rounds) < size["rounds"]
           or measured.elapsed() < ctx.seconds):
        watch = Watch(ctx.speed)
        with ctx.span("round", f"round-{len(rounds)}"):
            reports = service.collect_once()
            if lake_day(clock.now()) != day:
                service.archive.lake.compact()
                day = lake_day(clock.now())
        rounds.append(watch.stop())
        queries += reports["sps"].queries_issued
        result.attempted += 1
        result.failed += round_failed(reports)
        clock.advance(INTERVAL)
    result.measured_s = measured.stop().wall
    thaw()
    last_commit = service.archive.engine.last_commit_time
    lake_digest = service.archive.lake.digest()
    hot_digest = store_digest(service.archive.store)
    rows_merged = service.archive.rows_merged
    collection_counters(result, service, queries)
    storage_counters(result, service)
    bytes_on_disk = stored_bytes(data_dir)

    # kill: leave the service as it is, without close(); the data dir
    # holds only what the committed rounds wrote
    tally.fresh()
    reopen = Watch()
    with ctx.span("recover", "recover"):
        reopened = SpotLakeService(ServiceConfig(data_dir=data_dir,
                                                 **config))
        itype, region, zone = selected_pools(reopened)[0]
        response = reopened.gateway.get("/latest", {
            "instance_type": itype, "region": region, "zone": zone,
            "at": repr(last_commit)})
    reopen.stop()
    result.attempted += 1
    result.failed += response.status != 200
    result.checks["ingest.reopen_lake_digest"] = \
        reopened.archive.lake.digest() == lake_digest
    result.checks["ingest.reopen_hot_store"] = \
        store_digest(reopened.archive.store) == hot_digest
    result.checks["ingest.first_request_ok"] = response.status == 200
    result.counters["storage.replayed_ops"] = \
        reopened.archive.engine.recovered.replayed_operations
    result.counters["planner.cache_hit_rate"] = tally.hit_rate()
    reopened.close()
    service.close()

    result.cpu_metrics(setups, measured, [w.norm_cpu for w in rounds],
                       len(rounds))
    result.metrics["rounds_per_s"] = (len(rounds) / result.measured_s,
                                      "1/s")
    latency_metrics("round", [w.wall for w in rounds], result.metrics)
    result.metrics["recover_s"] = (reopen.wall, "s")
    result.metrics["stored_bytes_per_row"] = (
        bytes_on_disk / rows_merged if rows_merged else 0.0, "B/row")
    return result


# -- serve -------------------------------------------------------------------


def serve_universe(pools: Sequence[Tuple[str, str, str]], end: float,
                   size: dict, rng: random.Random
                   ) -> List[Tuple[str, Dict[str, str]]]:
    """Every distinct request the serve mix draws from, hottest first.

    Requests are grouped into kinds (route x window); each kind is
    shuffled and the kinds are interleaved round-robin, so the head of
    the zipf ranking holds every kind.
    """
    pairs = sorted({(t, r) for t, r, _z in pools})
    types = sorted({t for t, _r, _z in pools})
    windows = [(str(end - w * DAY), str(end)) for w in size["windows_days"]]
    kinds: List[List[Tuple[str, Dict[str, str]]]] = []
    zones = [{"instance_type": t, "region": r, "zone": z}
             for t, r, z in pools]
    for route in ("/sps/history", "/price/history"):
        for start, stop in windows:
            kinds.append([(route, {**dims, "start": start, "end": stop})
                          for dims in zones])
    # the paged view of the middle window: first page only
    start, stop = windows[len(windows) // 2]
    kinds.append([("/sps/history", {**dims, "start": start, "end": stop,
                                    "limit": "50"}) for dims in zones])
    kinds.append([("/latest", {**dims, "at": repr(
        end - (k + 0.5) * DAY / size["latest_times"])})
        for dims in zones for k in range(size["latest_times"])])
    for start, stop in windows:
        kinds.append([("/advisor/history", {
            "instance_type": t, "region": r, "start": start, "end": stop})
            for t, r in pairs])
    analytics = []
    for start, stop in windows[1:]:
        for dataset in ("sps", "price", "advisor"):
            for group in ("instance_type", "region"):
                analytics.append(("/analytics", {
                    "dataset": dataset, "start": start, "end": stop,
                    "bucket": str(DAY), "group_by": group,
                    "agg": "mean,count"}))
            for itype in types:
                analytics.append(("/analytics", {
                    "dataset": dataset, "instance_type": itype,
                    "start": start, "end": stop, "bucket": str(DAY),
                    "group_by": "region", "agg": "mean,min,max"}))
    kinds.append(analytics)
    for kind in kinds:
        rng.shuffle(kind)
    requests: List[Tuple[str, Dict[str, str]]] = []
    for rank in range(max(len(kind) for kind in kinds)):
        requests.extend(kind[rank] for kind in kinds if rank < len(kind))
    return requests


def pick_pools(seed: int, count: int) -> List[Tuple[str, str, str]]:
    """``count`` pools of a type slice: whole types in seeded order, the
    last one cut."""
    catalog = Catalog(seed=WORLD_SEED)
    by_type: Dict[str, List[Tuple[str, str, str]]] = {}
    for pool in catalog.all_pools():
        by_type.setdefault(pool[0], []).append(pool)
    names = sorted(by_type)
    random.Random(seed).shuffle(names)
    pools: List[Tuple[str, str, str]] = []
    for name in names:
        pools.extend(sorted(by_type[name]))
        if len(pools) >= count:
            break
    return sorted(pools[:count])


def run_serve(ctx: Context) -> Result:
    """Closed-loop zipf mix over a backfilled hot tier (no lake)."""
    size = ctx.sizes("serve")
    result = Result()
    pools = pick_pools(WORLD_SEED, size["pools"])
    config = ServiceConfig(seed=WORLD_SEED,
                           instance_types=sorted({p[0] for p in pools}))

    def build() -> Tuple[SpotLakeService, float]:
        service = SpotLakeService(config)
        t0 = service.cloud.clock.now() + ctx.offset
        step = size["cadence"]
        steps = int(size["days"] * DAY / step)
        service.bulk_backfill([t0 + i * step for i in range(steps)], pools)
        return service, t0 + (steps - 1) * step

    setups, (service, end) = timed_setups(
        ctx, size["setups"], build, lambda built: built[0].close())

    universe = serve_universe(pools, end, size, random.Random(WORLD_SEED))
    rng = random.Random(ctx.seed)
    result.counters["requests.universe"] = len(universe)
    result.counters["cache.entries_per_table"] = config.cache_entries
    weights = [1.0 / (rank + 1) ** size["zipf_s"]
               for rank in range(len(universe))]
    clients = size["clients"]
    streams = [rng.choices(range(len(universe)), weights=weights,
                           k=size["stream"]) for _ in range(clients)]
    tenant = Tenant("bench", rate=1e12, burst=1e12)
    # per client: completion time, latency and status of each request
    # (compact arrays: the benchmark's own bookkeeping stays out of the
    # service's resident memory)
    finished = [array("d") for _ in range(clients)]
    latencies = [array("d") for _ in range(clients)]
    statuses = [array("H") for _ in range(clients)]
    sampled: List[List[Tuple[int, object]]] = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)
    deadline = [0.0]

    def client(c: int) -> None:
        stream = streams[c]
        barrier.wait()
        seq = 0
        while perf_counter() < deadline[0]:
            path, params = universe[stream[seq % len(stream)]]
            start = perf_counter()
            with ctx.span("request", f"req-{c}-{seq}"):
                response = frontend.request(tenant.api_key, path, params,
                                            arrival_time=seq * 1e-3)
            done = perf_counter()
            finished[c].append(done)
            latencies[c].append(done - start)
            statuses[c].append(response.status)
            if seq < size["check_sample"]:
                sampled[c].append((stream[seq % len(stream)], response))
            seq += 1

    def completed() -> int:
        return sum(len(per) for per in latencies)

    # The clients warm the caches up first (hit rates and CPU per request
    # drift while the per-table caches fill), then the measured phase
    # samples CPU per request in fixed windows: CPU time cannot be split
    # between client and frontend threads request by request.
    windows: List[Tuple[int, float]] = []
    frontend = service.frontend(tenants=[tenant])
    with frontend:
        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(clients)]
        for thread in threads:
            thread.start()
        deadline[0] = perf_counter() + size["warmup_s"] + ctx.seconds
        barrier.wait()
        sleep(size["warmup_s"])
        warm_end = perf_counter()
        measured = Watch(ctx.speed)
        mark = completed()
        speed_mark = ctx.speed.mark()
        while any(thread.is_alive() for thread in threads):
            sleep(size["window_s"])
            done, speed_now = completed(), ctx.speed.mark()
            if done > mark:
                windows.append((done - mark, ctx.speed.normalized_cpu(
                    speed_mark, speed_now)))
            mark, speed_mark = done, speed_now
        for thread in threads:
            thread.join()
        measured.stop()
    thaw()
    snapshot = frontend.snapshot()["counters"]
    result.counters["frontend.rejected"] = (
        snapshot["unauthorized"] + snapshot["rate_limited"] + snapshot["shed"])
    read_counters(result, service)

    samples = [lat for ends, lats in zip(finished, latencies)
               for end_at, lat in zip(ends, lats) if end_at >= warm_end]
    result.measured_s = measured.wall
    codes = [s for per in statuses for s in per]
    result.attempted = len(codes)
    result.failed = sum(1 for s in codes if s != 200)
    result.cpu_metrics(setups, measured, [cpu / n for n, cpu in windows])
    result.metrics["req_per_s"] = (len(samples) / result.measured_s, "1/s")
    latency_metrics("req", samples, result.metrics)

    # replay the fixed sample with the read cache off: byte-identical
    service.archive.cache_enabled = False
    same = True
    with ctx.span("check", "serve-cache-off"):
        for per in sampled:
            for index, response in per:
                path, params = universe[index]
                replay = service.gateway.get(path, params)
                same &= (replay.status == response.status
                         and replay.json() == response.json())
    result.checks["serve.cache_off_identical"] = same and bool(sampled[0])
    service.close()
    return result


# -- mixed -------------------------------------------------------------------


def mixed_hot_set(service: SpotLakeService, t0: float
                  ) -> List[Tuple[str, Dict[str, str]]]:
    """The mixed batch's hot set: reads across the eviction boundary."""
    pools = selected_pools(service)
    picks = [pools[i * len(pools) // 3] for i in range(3)]
    end = str(t0 + DAY)
    window = {"start": repr(t0), "end": end}
    date = lake_day(t0).replace("/", "-")
    hot: List[Tuple[str, Dict[str, str]]] = []
    for itype, region, zone in picks:
        dims = {"instance_type": itype, "region": region, "zone": zone}
        hot.append(("/sps/history", {**dims, **window}))
        hot.append(("/price/history", {**dims, **window}))
        hot.append(("/advisor/history", {"instance_type": itype,
                                         "region": region, **window}))
    hot.append((f"/rounds/{date}", {}))
    hot.append((f"/rounds/{date}", {"at": repr(t0), "limit": "50"}))
    for dataset in ("sps", "price", "advisor"):
        hot.append(("/analytics", {"dataset": dataset, **window,
                                   "bucket": "3600", "group_by": "region"}))
    return hot


def run_mixed(ctx: Context) -> Result:
    """Rounds with a read batch after each commit, one thread."""
    size = ctx.sizes("mixed")
    result = Result()
    tally = PlanCacheTally()
    types = sorted({p[0] for p in pick_pools(WORLD_SEED, size["pools"])})
    builds = iter(range(size["setups"] + 1))

    def build() -> SpotLakeService:
        tally.fresh()
        service = SpotLakeService(ServiceConfig(
            seed=WORLD_SEED, instance_types=types, lake=True,
            data_dir=ctx.data_dir(f"mixed-{next(builds)}"),
            retention_max_age=size["retention_rounds"] * INTERVAL))
        service.cloud.clock.advance(ctx.offset)
        for _ in range(size["pre_rounds"]):
            reports = service.collect_once()
            if round_failed(reports):
                raise RuntimeError("a set-up round failed")
            service.cloud.clock.advance(INTERVAL)
        return service

    def cycle(service: SpotLakeService, batch, rounds: List[Watch],
              reads: List[Watch], req_times: List[float],
              responses: list) -> dict:
        n = len(rounds)
        watch = Watch(ctx.speed)
        with ctx.span("round", f"round-{n}"):
            reports = service.collect_once()
        service.cloud.clock.advance(INTERVAL)
        rounds.append(watch.stop())
        watch = Watch(ctx.speed)
        for i, (path, params) in enumerate(batch):
            start = perf_counter()
            with ctx.span("request", f"req-{n}-{i}"):
                response = service.gateway.get(path, params)
            req_times.append(perf_counter() - start)
            responses.append(response)
        reads.append(watch.stop())
        return reports

    setups, service = timed_setups(ctx, size["setups"], build,
                                   SpotLakeService.close)
    t0 = service.cloud.clock.start + ctx.offset
    hot = mixed_hot_set(service, t0)
    # every hot request the same number of times, in seeded order: the
    # first of each per round misses (the round bumped the generation),
    # the repeats hit
    batch = hot * size["repeats"]
    random.Random(ctx.seed).shuffle(batch)

    rounds: List[Watch] = []
    reads: List[Watch] = []
    req_times: List[float] = []
    digests: List[str] = []
    queries = 0
    measured = Watch(ctx.speed)
    # whole checkpoint periods, so every run holds the same mix of rounds
    period = service.config.checkpoint_every
    while (measured.elapsed() < ctx.seconds
           or len(rounds) % period
           or len(rounds) < size["periods"] * period):
        responses: List[object] = []
        reports = cycle(service, batch, rounds, reads, req_times, responses)
        queries += reports["sps"].queries_issued
        result.attempted += 1 + len(responses)
        result.failed += (round_failed(reports)
                          + sum(r.status != 200 for r in responses))
        digests.append(response_digest(responses))
    result.measured_s = measured.stop().wall
    read_counters(result, service)
    collection_counters(result, service, queries)
    storage_counters(result, service)
    data_dir = service.config.data_dir
    bytes_on_disk = stored_bytes(data_dir)
    rows_merged = service.archive.rows_merged
    service.close()
    service = None  # let the collector free it before the replay builds
    thaw()

    # a second run of the same seed must answer byte-identically
    watch = Watch(ctx.speed)
    with ctx.span("setup", "setup-replay"):
        replay = build()
    setups.append(watch.stop())
    replayed = []
    with ctx.span("check", "mixed-replay"):
        for _ in range(size["replay_cycles"]):
            responses = []
            cycle(replay, batch, [], [], [], responses)
            replayed.append(response_digest(responses))
    replay.close()
    result.checks["mixed.replay_identical"] = \
        replayed == digests[:size["replay_cycles"]]
    result.counters["planner.cache_hit_rate"] = tally.hit_rate()

    # an op is a whole cycle: a round and the read batch after it
    cycles = [r.norm_cpu + b.norm_cpu for r, b in zip(rounds, reads)]
    result.cpu_metrics(setups, measured, cycles, len(cycles))
    result.metrics["rounds_per_s"] = (len(rounds) / result.measured_s,
                                      "1/s")
    latency_metrics("round", [w.wall for w in rounds], result.metrics)
    latency_metrics("batch", [w.wall for w in reads], result.metrics)
    result.metrics["req_per_s"] = (len(req_times) / result.measured_s, "1/s")
    latency_metrics("req", req_times, result.metrics)
    result.metrics["stored_bytes_per_row"] = (
        bytes_on_disk / rows_merged if rows_merged else 0.0, "B/row")
    return result


WORKLOADS: Dict[str, Callable[[Context], Result]] = {
    "ingest": run_ingest,
    "serve": run_serve,
    "mixed": run_mixed,
}

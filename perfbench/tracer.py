"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public entry points of each SpotLake layer from the
outside (class attributes and module functions are swapped for timing
wrappers while the traced run lasts), so the program itself carries no
tracing code.  Every span records its name, start, end, parent span and
the id of the round or request it belongs to.  Spans are kept in memory
and written out as JSON lines when the run ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover; the sum of self times over every span of a
root (a round, a request, a set-up) equals the root's duration, which is
what lets the run attribute wall time to layers plus an ``other``
remainder.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, owner class or None for a module function, attribute, span name)
# -- the layer boundaries the per-layer metrics are taken at.
TRACE_POINTS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    # simulated cloud: SPS API calls, advisor web snapshot, spot prices
    ("repro.cloudsim.ec2_api", "Ec2Client", "get_spot_placement_scores",
     "cloudsim.sps"),
    ("repro.cloudsim.ec2_api", "Ec2Client",
     "get_spot_placement_scores_deferred", "cloudsim.sps"),
    ("repro.cloudsim.ec2_api", "SimulatedCloud", "advisor_web_snapshot",
     "cloudsim.advisor"),
    ("repro.cloudsim.advisor", "AdvisorEngine", "interruption_ratio",
     "cloudsim.advisor"),
    ("repro.cloudsim.pricing", "PricingEngine", "spot_price",
     "cloudsim.price"),
    # query planning: the plan cache and the packing solvers it calls
    ("repro.core.plan_cache", "PlanCache", "plan", "planner.plan"),
    ("repro.core.query_planner", None, "branch_and_bound",
     "planner.solver"),
    ("repro.core.query_planner", None, "first_fit_decreasing",
     "planner.solver"),
    # collectors (self time: everything not inside cloudsim / lake calls)
    ("repro.core.collectors", "SpsCollector", "collect", "collectors.sps"),
    ("repro.core.collectors", "AdvisorCollector", "collect",
     "collectors.advisor"),
    ("repro.core.collectors", "PriceCollector", "collect",
     "collectors.price"),
    # tiered lake: round merge, change diff, cold append, compaction, and
    # the differ re-seeding a reopened archive runs
    ("repro.lake.merge", "RoundMerger", "add_sps_rows", "lake.merge"),
    ("repro.lake.merge", "RoundMerger", "add_advisor_rows", "lake.merge"),
    ("repro.lake.merge", "RoundMerger", "add_price_rows", "lake.merge"),
    ("repro.lake.merge", "RoundMerger", "take_round", "lake.merge"),
    ("repro.lake.diff", "RoundDiffer", "diff", "lake.diff"),
    ("repro.lake.store", "SpotDataLake", "append_round", "lake.append"),
    ("repro.lake.store", "SpotDataLake", "compact", "lake.compact"),
    ("repro.lake.store", "SpotDataLake", "latest_values", "lake.seed"),
    ("repro.lake.diff", "RoundDiffer", "seed", "lake.seed"),
    # archive facade: hot batch writes and the retention sweep
    ("repro.core.archive", "SpotLakeArchive", "put_sps_batch",
     "archive.put_batch"),
    ("repro.core.archive", "SpotLakeArchive", "put_price_batch",
     "archive.put_batch"),
    ("repro.core.archive", "SpotLakeArchive", "put_advisor_batch",
     "archive.put_batch"),
    ("repro.core.archive", "SpotLakeArchive", "apply_retention",
     "archive.retention"),
    # durable hot engine: group commit, checkpoint, recovery at open
    ("repro.storage.engine", "StorageEngine", "commit_round",
     "storage.commit"),
    ("repro.storage.engine", "StorageEngine", "checkpoint",
     "storage.checkpoint"),
    ("repro.storage.engine", None, "recover", "storage.recover"),
    # serving: the per-route handlers (gateway dispatch and the frontend
    # queue wait are linked to their request in Tracer._install_gateway)
    ("repro.core.serving", "LambdaHandlers", "sps_history",
     "serving.sps_history"),
    ("repro.core.serving", "LambdaHandlers", "advisor_history",
     "serving.advisor_history"),
    ("repro.core.serving", "LambdaHandlers", "price_history",
     "serving.price_history"),
    ("repro.core.serving", "LambdaHandlers", "latest", "serving.latest"),
    ("repro.core.serving", "LambdaHandlers", "analytics",
     "serving.analytics"),
    ("repro.core.serving", "LambdaHandlers", "rounds", "serving.rounds"),
    # table scans, analytics engine, federated history (the read cache is
    # not a span: its misses run the caller's computation, which belongs
    # to the caller's layer; its counters come from cache_stats())
    ("repro.timeseries.table", "Table", "scan", "tsdb.scan"),
    ("repro.timeseries.table", "Table", "value_at", "tsdb.scan"),
    ("repro.core.analytics", "AnalyticsRuntime", "run", "analytics.run"),
    ("repro.lake.federated", "FederatedHistory", "query",
     "federated.query"),
)

#: Span names whose calls' return values are summed into ``results``.
RESULT_VALUES: Dict[str, Callable[[object], float]] = {
    # bytes of the partition file one appended round wrote
    "lake.append": lambda partition: partition.bytes,
    # bytes of the day files one compaction wrote
    "lake.compact": lambda summary: summary["bytes_after"],
}

#: Routes whose handlers get a ``serving.<route>`` span.
ROUTES = ("sps_history", "advisor_history", "price_history", "latest",
          "analytics", "rounds")


class Tracer:
    """Collects spans in memory; thread-aware parent tracking."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, op id]
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._late: List[list] = []
        #: per-span-name sums of a value a wrapped call returned
        self.results: Dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: Optional[str] = None,
              parent: Optional[int] = None) -> int:
        """Open a span; its parent defaults to this thread's open span."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, parent, op])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    @contextmanager
    def span(self, name: str, op: Optional[str] = None):
        index = self.begin(name, op)
        try:
            yield index
        finally:
            self.end(index)

    def record_here(self, name: str, start: float, end: float) -> None:
        """Add a finished span under this thread's open span.

        Safe from a signal handler: it takes no lock and leaves
        ``spans`` alone (an interrupted :meth:`begin` may be between
        sizing and appending); the span joins ``spans`` at analysis.
        """
        stack = self._stack()
        parent = stack[-1] if stack else -1
        self._late.append([name, start, end, parent,
                           self.spans[parent][4] if parent >= 0 else None])

    def _settle(self) -> None:
        """Move spans recorded by :meth:`record_here` into ``spans``."""
        late, self._late = self._late, []
        self.spans.extend(late)

    def record(self, name: str, start: float, end: float, parent: int,
               op: Optional[str]) -> int:
        """Add a span measured elsewhere (e.g. a queue wait)."""
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, start, end, parent, op])
        return index

    # -- instrumentation ----------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str,
             result_value: Optional[Callable[[object], float]] = None
             ) -> None:
        """Swap ``owner.attr`` for a wrapper that times each call."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if result_value is not None:
                tracer.results[name] += result_value(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every :data:`TRACE_POINTS` entry and the gateway."""
        for module_name, owner_name, attr, name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self.wrap(owner, attr, name, RESULT_VALUES.get(name))
        self._install_gateway()

    def _install_gateway(self) -> None:
        """Time gateway dispatch and link it to the submitting request.

        A frontend worker thread dispatches ``ticket.params`` -- the very
        dict the ticket was built with -- so the ticket's construction
        registers (submit time, open span) under that dict's id, and the
        dispatch wrapper records the queue wait as ``frontend.wait`` and
        parents its own span on the request span of the client thread.
        """
        from repro.core import frontend, serving

        tracer = self
        pending: Dict[int, Tuple[float, int]] = {}
        ticket_init = frontend.FrontendTicket.__dict__["__init__"]
        gateway_get = serving.ApiGateway.__dict__["get"]

        @functools.wraps(ticket_init)
        def init(ticket, path, params):
            ticket_init(ticket, path, params)
            stack = tracer._stack()
            pending[id(ticket.params)] = (perf_counter(),
                                          stack[-1] if stack else -1)

        @functools.wraps(gateway_get)
        def get(gateway, path, params=None, tenant=None):
            link = pending.pop(id(params), None) if params is not None \
                else None
            parent = None
            if link is not None:
                submitted, parent = link
                if parent >= 0:
                    tracer.record("frontend.wait", submitted, perf_counter(),
                                  parent, tracer.spans[parent][4])
            index = tracer.begin("serving.gateway", parent=parent)
            try:
                return gateway_get(gateway, path, params, tenant)
            finally:
                tracer.end(index)

        for owner, attr, wrapper, original in (
                (frontend.FrontendTicket, "__init__", init, ticket_init),
                (serving.ApiGateway, "get", get, gateway_get)):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def _self_seconds(self) -> List[float]:
        """Self time of every span (0.0 for spans still open)."""
        self._settle()
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0 and end is not None:
                children[parent].append((start, end))
        out = []
        for index, (_name, start, end, _parent, _op) in enumerate(self.spans):
            if end is None:
                out.append(0.0)
                continue
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(index, ())):
                lo = max(c_start, cursor)
                hi = min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(max(0.0, (end - start) - covered))
        return out

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s`` and ``self_s``.

        Self time is the span's duration minus the union of its
        children's intervals clipped to the span; it never exceeds the
        span's duration.
        """
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self._self_seconds()):
            name, start, end = span[0], span[1], span[2]
            if end is None:
                continue
            entry = out[name]
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
        return dict(out)

    def attribution(self) -> Dict[str, Dict[str, object]]:
        """Per root span name (set-up, round, request, reopen): the roots'
        summed duration, each layer's self time inside them, and the
        ``other`` remainder (the roots' own self time)."""
        self._settle()
        root_of: List[int] = []
        for index, span in enumerate(self.spans):
            parent = span[3]
            root_of.append(index if parent < 0 else root_of[parent])
        out: Dict[str, Dict[str, object]] = {}
        for index, (span, self_s) in enumerate(
                zip(self.spans, self._self_seconds())):
            root = self.spans[root_of[index]]
            if span[2] is None or root[2] is None:
                continue
            phase = out.setdefault(root[0], {"wall_s": 0.0, "other_s": 0.0,
                                             "layers": defaultdict(float)})
            if root_of[index] == index:
                phase["wall_s"] += span[2] - span[1]
                phase["other_s"] += self_s
            else:
                phase["layers"][span[0]] += self_s
        return out

    def roots(self) -> List[list]:
        self._settle()
        return [s for s in self.spans if s[3] < 0 and s[2] is not None]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        self._settle()
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent if parent >= 0 else None, "op": op},
                    separators=(",", ":")))
                fh.write("\n")

"""Deterministic concurrency sanitizer (the dynamic half of spotconc).

The static rules (CONC001-003, FLOW001) reason over names; this module
watches the real thing.  While installed it

* replaces the ``threading.Lock`` / ``threading.RLock`` factories with
  proxies that record a per-thread **lock acquisition graph** -- an edge
  ``A -> B`` means some thread acquired B while holding A.  A cycle in
  that graph is a lock-order inversion: two threads interleaving the
  ends of the cycle can deadlock, even if this run happened not to
  (**SAN001**);
* patches ``__setattr__`` on the registered shared classes (plan cache,
  table, account pool, metrics registry) so every attribute write checks
  the writing thread: writes on a thread other than the object's owner
  (first writer, i.e. the constructing thread) must hold at least one
  tracked lock (**SAN002**).

Everything observed is a pure function of the program's own scheduling
calls -- no sampling, no timers -- so a violation found once is found on
every run, and a clean run is a clean contract, not luck.  Results come
back as the ordinary :class:`~repro.devtools.findings.LintResult`, which
reuses the reporters, exit codes and suppression accounting of ``repro
lint``.

Usage::

    with ConcurrencySanitizer() as san:
        ... run threaded code ...
    assert san.result().clean

or through the ``conc_sanitizer`` pytest fixture / ``repro lint
--sanitize``.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from .findings import Finding, LintResult

#: The real factories, captured before any proxying.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

#: Pseudo-rule codes the sanitizer reports under.
SANITIZER_CODES = ("SAN001", "SAN002")

#: Pseudo-path findings are anchored to (there is no source file).
SANITIZER_PATH = "<sanitizer>"


class TrackedLock:
    """Proxy around a real lock that reports acquire/release ordering."""

    def __init__(self, sanitizer: "ConcurrencySanitizer", name: str,
                 inner: Any) -> None:
        self._san = sanitizer
        self._inner = inner
        self.name = name

    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        got = self._inner.acquire(*args, **kwargs)
        if got:
            self._san._on_acquire(self.name)
        return got

    def release(self) -> None:
        self._inner.release()
        self._san._on_release(self.name)

    def locked(self) -> bool:
        return self._inner.locked()

    def __getattr__(self, name: str) -> Any:
        # threading.Condition probes its lock for _is_owned /
        # _release_save / _acquire_restore at construction; delegate so a
        # Condition over a tracked RLock keeps correct ownership checks.
        # (_release_save/_acquire_restore run only while the waiter is
        # blocked, so held-lock bookkeeping stays net-consistent.)
        return getattr(self._inner, name)

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TrackedLock {self.name}>"


@dataclass
class _SharedObject:
    """Ownership record of one registered shared instance."""

    label: str                #: "PlanCache#1"
    owner: int                #: ident of the constructing thread
    obj: Any                  #: strong ref: keeps id() stable while tracked


@dataclass
class _Holdings:
    """Per-thread stack of held tracked-lock names (with reentry counts)."""

    stack: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)


class ConcurrencySanitizer:
    """Records lock ordering and shared writes while installed."""

    def __init__(self) -> None:
        self._mutex = _REAL_LOCK()
        self._tls = threading.local()
        #: lock name -> {acquired-while-held lock names}
        self._edges: Dict[str, Set[str]] = {}
        #: id(obj) -> ownership record
        self._objects: Dict[int, _SharedObject] = {}
        #: deduplicated (code, message) pairs
        self._violations: Set[Tuple[str, str]] = set()
        self._site_counts: Dict[str, int] = {}
        self._class_counts: Dict[str, int] = {}
        self._saved_setattr: List[Tuple[type, Optional[Any]]] = []
        self._installed = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Start observing: proxy the lock factories, patch the classes."""
        if self._installed:
            return
        self._installed = True
        threading.Lock = self._make_factory(_REAL_LOCK)  # type: ignore[misc]
        threading.RLock = self._make_factory(_REAL_RLOCK)  # type: ignore[misc]
        for cls in self._shared_classes():
            self._patch_class(cls)

    def uninstall(self) -> None:
        """Stop observing and restore every patched hook."""
        if not self._installed:
            return
        self._installed = False
        threading.Lock = _REAL_LOCK  # type: ignore[misc]
        threading.RLock = _REAL_RLOCK  # type: ignore[misc]
        for cls, original in reversed(self._saved_setattr):
            # spotlint: disable=CONC003 -- install/uninstall run on the
            # test driver thread before/after any workers exist
            if original is None:
                del cls.__setattr__  # spotlint: disable=CONC003 -- see above
            else:
                cls.__setattr__ = original  # type: ignore[method-assign]  # spotlint: disable=CONC003 -- see above
        self._saved_setattr.clear()
        self._objects.clear()

    def __enter__(self) -> "ConcurrencySanitizer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    @staticmethod
    def _shared_classes() -> List[type]:
        # imported lazily: devtools must not pull the service stack in at
        # import time (and never through the repro root package, LAY001)
        from ..cloudsim.accounts import AccountPool
        from ..core.metrics import MetricsRegistry, RouteMetrics, TenantMetrics
        from ..core.plan_cache import PlanCache
        from ..timeseries.cache import CacheStats, QueryCache
        from ..timeseries.table import Table
        return [PlanCache, Table, AccountPool, MetricsRegistry,
                QueryCache, CacheStats, RouteMetrics, TenantMetrics]

    def _make_factory(self, real: Any) -> Any:
        def factory(*args: Any, **kwargs: Any) -> TrackedLock:
            frame = sys._getframe(1)
            site = f"{frame.f_code.co_filename}:{frame.f_lineno}"
            with self._mutex:
                n = self._site_counts.get(site, 0) + 1
                self._site_counts[site] = n
            return TrackedLock(self, f"{site}#{n}", real(*args, **kwargs))
        return factory

    def _patch_class(self, cls: type) -> None:
        original = cls.__dict__.get("__setattr__")
        underlying = original if original is not None else object.__setattr__
        sanitizer = self

        def patched(obj: Any, attr: str, value: Any) -> None:
            sanitizer._on_write(obj, attr)
            underlying(obj, attr, value)

        self._saved_setattr.append((cls, original))
        cls.__setattr__ = patched  # type: ignore[method-assign]  # spotlint: disable=CONC003 -- patching happens at install time, before workers start

    # -- observation hooks -------------------------------------------------

    def _holdings(self) -> _Holdings:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = _Holdings()
        return held

    def _on_acquire(self, name: str) -> None:
        held = self._holdings()
        first = held.counts.get(name, 0) == 0
        held.counts[name] = held.counts.get(name, 0) + 1
        held.stack.append(name)
        if not first:
            return  # reentrant re-acquire adds no ordering information
        with self._mutex:
            for other in held.counts:
                if other != name:
                    self._edges.setdefault(other, set()).add(name)

    def _on_release(self, name: str) -> None:
        held = self._holdings()
        if name in held.counts:
            held.counts[name] -= 1
            if held.counts[name] <= 0:
                del held.counts[name]
        for index in range(len(held.stack) - 1, -1, -1):
            if held.stack[index] == name:
                del held.stack[index]
                break

    def _on_write(self, obj: Any, attr: str) -> None:
        with self._mutex:
            record = self._objects.get(id(obj))
            if record is None:
                cls = type(obj).__name__
                n = self._class_counts.get(cls, 0) + 1
                self._class_counts[cls] = n
                self._objects[id(obj)] = _SharedObject(
                    label=f"{cls}#{n}", owner=threading.get_ident(),
                    obj=obj)
                return
        if record.owner == threading.get_ident():
            return
        if self._holdings().counts:
            return  # off-owner write, but under a tracked lock
        site = self._write_site()
        with self._mutex:
            self._violations.add((
                "SAN002",
                f"{record.label}.{attr} written at {site} on a thread "
                f"other than the owner's without holding any tracked "
                f"lock"))

    @staticmethod
    def _write_site() -> str:
        # two frames up: _on_write <- patched __setattr__ <- writer
        frame = sys._getframe(3)
        return f"{frame.f_code.co_filename}:{frame.f_lineno}"

    # -- reporting ---------------------------------------------------------

    def lock_cycles(self) -> List[List[str]]:
        """Deterministic list of lock-order cycles (as name paths)."""
        with self._mutex:
            edges = {a: sorted(bs) for a, bs in self._edges.items()}
        cycles: List[List[str]] = []
        seen: Set[frozenset] = set()
        for start in sorted(edges):
            path = self._find_cycle(start, edges)
            if path and frozenset(path) not in seen:
                seen.add(frozenset(path))
                cycles.append(path)
        return cycles

    @staticmethod
    def _find_cycle(start: str, edges: Dict[str, List[str]]
                    ) -> Optional[List[str]]:
        # DFS for a path start -> ... -> start; deterministic because the
        # adjacency lists are sorted
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        visited: Set[str] = set()
        while stack:
            node, path = stack.pop()
            for succ in edges.get(node, ()):  # sorted
                if succ == start:
                    return path
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    def result(self) -> LintResult:
        """Everything observed, as a standard lint result."""
        result = LintResult(rules_run=list(SANITIZER_CODES))
        for cycle in self.lock_cycles():
            loop = " -> ".join(cycle + [cycle[0]])
            result.findings.append(Finding(
                "SAN001", SANITIZER_PATH, 0, 0,
                f"lock-order cycle: {loop}; threads interleaving the ends "
                f"of this cycle can deadlock -- acquire these locks in "
                f"one global order"))
        with self._mutex:
            violations = sorted(self._violations)
        for code, message in violations:
            result.findings.append(Finding(code, SANITIZER_PATH, 0, 0,
                                           message))
        result.files_checked = 0
        result.sort()
        return result


def run_sanitized_probe(seed: int = 11, workers: int = 4,
                        rounds: int = 2,
                        chaos_profile: str = "none") -> LintResult:
    """Serve a fixed request battery through a threaded frontend under
    the sanitizer.

    This is the ``repro lint --sanitize`` entry point.  A small service
    collects ``rounds`` rounds into a durable archive on the calling
    thread, then a ``workers``-thread serving frontend (the repo's
    threaded code path) answers the canonical request battery twice, so
    repeats race on the read cache, with lock tracking on.  Returns
    whatever the sanitizer observed; deterministic for fixed arguments.
    """
    import shutil
    import tempfile

    from ..core.frontend import Tenant
    from ..core.plan_cache import PlanCache
    from ..core.service import ServiceConfig, SpotLakeService
    from .servebench import build_workload

    types = ["m5.large", "c5.xlarge", "p3.2xlarge", "i3.large", "t3.micro"]
    sanitizer = ConcurrencySanitizer()
    PlanCache.reset_shared()
    data_dir = tempfile.mkdtemp(prefix="spotconc-")
    try:
        with sanitizer:
            service = SpotLakeService(ServiceConfig(
                seed=seed, instance_types=types,
                chaos_profile=chaos_profile, data_dir=data_dir))
            try:
                for _ in range(rounds):
                    service.collect_once()
                    service.cloud.clock.advance(600.0)
                tenant = Tenant("probe", rate=1e9, burst=1e9)
                battery = build_workload(service, page_limit=100) * 2
                with service.frontend(tenants=[tenant],
                                      workers=workers,
                                      queue_depth=len(battery)) as frontend:
                    tickets = [frontend.submit(tenant.api_key, path, params,
                                               arrival_time=float(index))
                               for index, (path, params)
                               in enumerate(battery)]
                    for ticket in tickets:
                        ticket.result(60.0)
            finally:
                service.close()
    finally:
        PlanCache.reset_shared()
        shutil.rmtree(data_dir, ignore_errors=True)
    return sanitizer.result()

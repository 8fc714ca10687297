"""The runtime concurrency sanitizer: proxies, cycles, write tracking."""

import threading

import pytest

from repro.core.metrics import MetricsRegistry
from repro.core.plan_cache import PlanCache
from repro.devtools.sanitizer import (
    ConcurrencySanitizer,
    TrackedLock,
    run_sanitized_probe,
)


def run_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join()


class TestInstallation:
    def test_factories_proxied_and_restored(self):
        real = threading.Lock
        with ConcurrencySanitizer():
            assert isinstance(threading.Lock(), TrackedLock)
            assert isinstance(threading.RLock(), TrackedLock)
        assert threading.Lock is real
        assert not isinstance(threading.Lock(), TrackedLock)

    def test_uninstall_restores_setattr(self):
        with ConcurrencySanitizer():
            assert "__setattr__" in vars(MetricsRegistry)
        assert "__setattr__" not in vars(MetricsRegistry)

    def test_leftover_tracked_lock_still_works_after_uninstall(self):
        with ConcurrencySanitizer():
            lock = threading.Lock()
        with lock:  # proxy outlives the session; must stay functional
            assert lock.locked()

    def test_condition_over_tracked_rlock(self):
        # concurrent.futures builds Conditions over default RLocks; the
        # proxy must preserve ownership semantics or notify() breaks
        with ConcurrencySanitizer():
            cond = threading.Condition()
            with cond:
                cond.notify_all()


class TestLockOrderCycles:
    def test_inverted_pair_reported(self):
        san = ConcurrencySanitizer()
        with san:
            a, b = threading.Lock(), threading.Lock()

            def forward():
                with a:
                    with b:
                        pass

            def backward():
                with b:
                    with a:
                        pass

            run_thread(forward)
            run_thread(backward)
        result = san.result()
        assert [f.rule for f in result.findings] == ["SAN001"]
        assert "lock-order cycle" in result.findings[0].message

    def test_consistent_order_clean(self):
        san = ConcurrencySanitizer()
        with san:
            a, b = threading.Lock(), threading.Lock()

            def forward():
                with a:
                    with b:
                        pass

            run_thread(forward)
            run_thread(forward)
        assert san.result().clean

    def test_reentrant_acquire_not_a_cycle(self):
        san = ConcurrencySanitizer()
        with san:
            lock = threading.RLock()
            with lock:
                with lock:
                    pass
        assert san.result().clean

    def test_three_lock_cycle(self):
        san = ConcurrencySanitizer()
        with san:
            locks = [threading.Lock() for _ in range(3)]

            def chain(first, second):
                def body():
                    with locks[first]:
                        with locks[second]:
                            pass
                return body

            run_thread(chain(0, 1))
            run_thread(chain(1, 2))
            run_thread(chain(2, 0))
        findings = san.result().findings
        assert [f.rule for f in findings] == ["SAN001"]


class TestSharedWrites:
    def test_off_owner_unguarded_write_reported(self):
        san = ConcurrencySanitizer()
        with san:
            registry = MetricsRegistry()
            run_thread(lambda: setattr(registry, "_timer", None))
        findings = san.result().findings
        assert [f.rule for f in findings] == ["SAN002"]
        assert "MetricsRegistry#1._timer" in findings[0].message

    def test_off_owner_write_under_tracked_lock_ok(self):
        san = ConcurrencySanitizer()
        with san:
            registry = MetricsRegistry()
            guard = threading.Lock()

            def locked_write():
                with guard:
                    registry._timer = None

            run_thread(locked_write)
        assert san.result().clean

    def test_owner_thread_writes_freely(self):
        san = ConcurrencySanitizer()
        with san:
            registry = MetricsRegistry()
            registry._timer = None
        assert san.result().clean

    def test_duplicate_violations_deduplicated(self):
        san = ConcurrencySanitizer()
        with san:
            registry = MetricsRegistry()

            def hammer():
                registry._timer = None

            run_thread(hammer)
            run_thread(hammer)
        assert len(san.result().findings) == 1

    def test_plan_cache_is_tracked(self):
        PlanCache.reset_shared()
        san = ConcurrencySanitizer()
        with san:
            cache = PlanCache()
            run_thread(lambda: setattr(cache, "hits", 99))
        PlanCache.reset_shared()
        findings = san.result().findings
        assert [f.rule for f in findings] == ["SAN002"]
        assert "PlanCache#1.hits" in findings[0].message


class TestProbe:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_collection_is_sanitizer_clean(self, workers):
        """Collect into a durable archive, then serve the battery through
        a ``workers``-thread frontend: no lock cycles, no unguarded
        off-owner writes."""
        result = run_sanitized_probe(workers=workers, rounds=2)
        assert result.clean, "\n".join(
            f"{f.rule} {f.message}" for f in result.findings)

    def test_probe_reports_sanitizer_codes(self):
        result = run_sanitized_probe(workers=2, rounds=1)
        assert result.rules_run == ["SAN001", "SAN002"]

"""End-to-end chaos runs: the ISSUE's acceptance scenario.

A 24-hour simulated collection run under a >=10% transient-fault profile
must (a) finish with zero unhandled exceptions, (b) resolve every planned
query as either a success or an explicit gap record, and (c) replay
byte-identically under the same chaos seed.
"""

from repro.cloudsim import (
    CHAOS_PROFILES,
    FaultInjector,
    FaultPlan,
    FaultWindow,
)
from repro.core import CollectionReport
from repro.devtools.doublerun import double_run, snapshot_digests

from .conftest import build_chaos_service

HOURS_24 = 24 * 3600.0


def run_rounds(service, rounds, interval_minutes=60.0):
    """Drive ``rounds`` explicit collection rounds; merge all reports."""
    totals = {name: CollectionReport() for name in ("sps", "advisor", "price")}
    for _ in range(rounds):
        for name, report in service.collect_once().items():
            totals[name] = totals[name].merge(report)
        service.cloud.clock.advance_minutes(interval_minutes)
    return totals


class TestAcceptanceRun:
    def test_24h_moderate_chaos_completes_without_exceptions(self):
        service = build_chaos_service("moderate", chaos_seed=42)
        assert CHAOS_PROFILES["moderate"].total_rate >= 0.10
        runs = service.run_collection(HOURS_24)
        assert runs > 0
        # an unhandled collector exception would surface as a job failure
        for job in service.scheduler.jobs():
            assert job.failures == 0
        assert all(entry.status == "ok" for entry in service.scheduler.history)
        assert service.cloud.clock.now() >= \
            service.cloud.clock.start + HOURS_24
        assert service.cloud.faults.faults_injected() > 0

    def test_every_planned_query_resolves_success_or_gap(self):
        service = build_chaos_service("heavy", chaos_seed=7,
                                      retry_attempts=2)
        totals = run_rounds(service, rounds=24)
        for source, report in totals.items():
            assert report.queries_failed == report.gaps, source
        total_gaps = sum(r.gaps for r in totals.values())
        assert service.archive.gap_count() == total_gaps
        # heavy chaos over 24 rounds must actually exercise the fault paths
        assert sum(r.retries for r in totals.values()) > 0
        assert totals["sps"].records_written > 0

    def test_identical_chaos_seeds_replay_byte_identically(self):
        result = double_run(seed=0, rounds=2, chaos_profile="heavy",
                            chaos_seed=5)
        assert result.identical, result.summary()
        assert "deterministic" in result.summary()

    def test_different_chaos_seeds_change_the_fault_schedule(self):
        services = [build_chaos_service("heavy", chaos_seed=s)
                    for s in (1, 2)]
        for service in services:
            run_rounds(service, rounds=6)
        schedules = [
            [(f.operation, f.kind, f.call_index)
             for f in service.cloud.faults.injected]
            for service in services]
        assert schedules[0] != schedules[1]

    def test_chaos_digests_differ_from_clean_digests_only_via_gaps(self):
        clean = snapshot_digests(seed=0, rounds=2)
        chaotic = snapshot_digests(seed=0, rounds=2, chaos_profile="heavy",
                                   chaos_seed=5)
        assert "gaps" not in clean
        # chaos may or may not gap in 2 rounds, but the run must produce
        # the same table set plus at most the gaps table
        assert set(clean) <= set(chaotic) | {"gaps"}


class TestOutageRecovery:
    def test_outage_window_gaps_then_recovers(self):
        service = build_chaos_service(
            "none", retry_attempts=2, breaker_threshold=3,
            breaker_reset=1800.0)
        clock = service.cloud.clock
        window = FaultWindow(clock.start + 2 * 3600.0,
                             clock.start + 4 * 3600.0,
                             kind="internal")
        service.cloud.faults = FaultInjector(FaultPlan(windows=(window,)),
                                             clock)
        service.run_collection(HOURS_24)

        assert service.archive.gap_count() > 0
        stats = service.resilience_stats()
        assert stats["sps"]["breaker_trips"] >= 1
        # after the outage the breaker recovered and collection resumed
        assert stats["sps"]["breaker_state"] == "closed"
        last = service.scheduler.jobs()[0].last_report
        assert last.queries_failed == 0
        # collection rounds kept landing after the outage window closed
        post = [entry for entry in service.scheduler.history
                if entry.name == "sps" and entry.time > window.end]
        assert post and all(entry.status == "ok" for entry in post)

    def test_breaker_open_gaps_carry_zero_attempts(self):
        service = build_chaos_service(
            "none", retry_attempts=2, breaker_threshold=2,
            breaker_reset=1e9)
        clock = service.cloud.clock
        window = FaultWindow(clock.start, clock.start + 1e9,
                             kind="throttle")
        service.cloud.faults = FaultInjector(FaultPlan(windows=(window,)),
                                             clock)
        service.collect_once()
        reasons = {g.dimension_dict["Reason"]: g.value
                   for g in service.archive.gap_history({"Source": "sps"})}
        assert "breaker-open" in reasons
        assert reasons["breaker-open"] == 0

    def test_resilience_stats_cover_all_sources(self):
        service = build_chaos_service("light", chaos_seed=3)
        service.run_collection(4 * 3600.0)
        stats = service.resilience_stats()
        assert set(stats) == {"sps", "advisor", "price"}
        for source, entry in stats.items():
            assert entry["source"] == source
            assert entry["calls"] > 0
            assert entry["breaker_state"] in ("closed", "open", "half-open")

    def test_chaos_disabled_service_has_no_injector(self):
        service = build_chaos_service("none")
        assert not service.chaos_enabled
        service.collect_once()
        assert service.archive.gap_count() == 0


class TestSanitizedChaos:
    """Fault injection under the runtime concurrency sanitizer.

    Chaos exercises the retry/breaker/gap paths -- the code most likely
    to touch shared state off the happy path.  Collection runs on one
    thread, so a clean verdict means no lock-order cycle is reachable
    from it and nothing it touches needs another thread's lock.
    """

    def test_chaotic_parallel_rounds_are_race_free(self, conc_sanitizer):
        service = build_chaos_service("moderate", chaos_seed=42)
        try:
            totals = run_rounds(service, rounds=6)
            assert totals["sps"].queries_issued > 0
        finally:
            service.close()

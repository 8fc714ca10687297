"""Tests for the three dataset collectors."""

import dataclasses
import hashlib
import shutil
import tempfile
from pathlib import Path

import pytest

from repro import AccountPool, ServiceConfig, SimulatedCloud, SpotLakeService
from repro.cloudsim import QuotaExceededError, make_query_key
from repro.core import (
    AdvisorCollector,
    CollectionReport,
    PriceCollector,
    SpotLakeArchive,
    SpotInfoScraper,
    SpsCollector,
    plan_for_offering_map,
)
from repro.core.plan_cache import PlanCache
from repro.timeseries import dump_store

REFERENCE_TYPES = ["m5.large", "c5.xlarge", "p3.2xlarge", "i3.large",
                   "t3.micro"]
REFERENCE_ROUNDS = 3


@pytest.fixture()
def setup(fresh_cloud):
    offering = {t: rz for t, rz in fresh_cloud.catalog.offering_map().items()
                if t in ("m5.large", "p3.2xlarge", "c5.xlarge")}
    plan = plan_for_offering_map(offering)
    archive = SpotLakeArchive()
    return fresh_cloud, plan, archive


class TestSpsCollector:
    def test_collect_round(self, setup):
        cloud, plan, archive = setup
        collector = SpsCollector(cloud, archive, AccountPool(2), plan)
        report = collector.collect()
        assert report.queries_issued == plan.optimized_query_count
        assert report.queries_failed == 0
        assert report.records_written > 0
        assert archive.stats()["sps"]["series"] == report.records_written

    def test_records_match_engine(self, setup):
        cloud, plan, archive = setup
        SpsCollector(cloud, archive, AccountPool(2), plan).collect()
        now = cloud.clock.now()
        zone = cloud.catalog.supported_zones("m5.large", "us-east-1")[0]
        archived = archive.sps_at("m5.large", "us-east-1", zone, now)
        direct = cloud.placement.zone_score("m5.large", "us-east-1", zone, now)
        assert archived == direct

    def test_quota_starvation_reported(self, setup):
        cloud, plan, archive = setup
        starved = AccountPool(1, quota=3)
        report = SpsCollector(cloud, archive, starved, plan).collect()
        assert report.queries_failed == plan.optimized_query_count - 3

    def test_repeat_round_is_free(self, setup):
        """A second identical round re-issues the same unique queries and
        costs no additional quota."""
        cloud, plan, archive = setup
        pool = AccountPool(AccountPool.size_for(plan.optimized_query_count))
        collector = SpsCollector(cloud, archive, pool, plan)
        collector.collect()
        used_before = pool.total_remaining(cloud.clock.now())
        cloud.clock.advance_minutes(10)
        report = collector.collect()
        assert report.queries_failed == 0
        assert pool.total_remaining(cloud.clock.now()) == used_before


def _reference_round(service):
    """The immediate-call baseline ``SpsCollector.collect`` must match.

    Walks the plan in order; per query it acquires an account the way
    the collector does, calls the immediate SPS API and writes each row
    with its own ``put_sps``.
    """
    cloud, archive = service.cloud, service.archive
    report = CollectionReport()
    for query in service.plan.queries:
        report.queries_issued += 1
        key = make_query_key([query.instance_type], query.regions,
                             query.target_capacity,
                             query.single_availability_zone)
        account = service.accounts.acquire(key, cloud.clock.now())
        try:
            rows = cloud.client(account).get_spot_placement_scores(
                [query.instance_type], list(query.regions),
                target_capacity=query.target_capacity,
                single_availability_zone=query.single_availability_zone)
        except QuotaExceededError:
            report.queries_failed += 1
            continue
        now = cloud.clock.now()
        for row in rows:
            if row["AvailabilityZoneId"] is None:
                continue
            archive.put_sps(query.instance_type, row["Region"],
                            row["AvailabilityZoneId"], row["Score"], now)
            report.records_written += 1
    now = cloud.clock.now()
    report.accounts_used = sum(
        1 for a in service.accounts.accounts if a.unique_queries_used(now))
    return report


def _run_rounds(collect_round):
    """``REFERENCE_ROUNDS`` SPS rounds on a fresh fault-free service.

    Returns (archive digest, report dicts, per-account quota use).
    """
    PlanCache.reset_shared()
    service = SpotLakeService(ServiceConfig(
        seed=11, instance_types=REFERENCE_TYPES))
    try:
        reports = []
        for _ in range(REFERENCE_ROUNDS):
            reports.append(dataclasses.asdict(collect_round(service)))
            service.cloud.clock.advance(600.0)
        now = service.cloud.clock.now()
        quotas = {a.name: a.unique_queries_used(now)
                  for a in service.accounts.accounts}
        directory = Path(tempfile.mkdtemp(prefix="test-collectors-"))
        try:
            dump_store(service.archive.store, directory)
            digest = hashlib.sha256()
            for path in sorted(directory.glob("*.jsonl")):
                digest.update(path.name.encode("utf-8"))
                digest.update(path.read_bytes())
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return digest.hexdigest(), reports, quotas
    finally:
        service.close()


@pytest.fixture(scope="module")
def reference_runs():
    """(collect() run, immediate-call reference run)."""
    return (_run_rounds(lambda service: service.sps_collector.collect()),
            _run_rounds(_reference_round))


class TestReferenceParity:
    """Admit-then-materialise is indistinguishable from calling the
    immediate API once per query and writing row by row."""

    def test_archive_digest_matches_reference(self, reference_runs):
        (digest, _, _), (expected, _, _) = reference_runs
        assert digest == expected

    def test_reports_match_reference(self, reference_runs):
        (_, reports, _), (_, expected, _) = reference_runs
        assert reports == expected
        assert all(r["records_written"] > 0 for r in reports)

    def test_per_account_quota_matches_reference(self, reference_runs):
        (_, _, quotas), (_, _, expected) = reference_runs
        assert quotas == expected
        assert sum(quotas.values()) > 0


class TestCollectionReport:
    def test_merge_adds_counters_and_keeps_accounts_stamp(self):
        """Counters add; ``accounts_used`` is a pool-wide stamp, so
        merging two rounds that charged the same accounts keeps the
        larger stamp instead of double-counting."""
        first = CollectionReport(queries_issued=4, records_written=12,
                                 accounts_used=3, retries=1)
        second = CollectionReport(queries_issued=4, queries_failed=1,
                                  records_written=9, accounts_used=2, gaps=1)
        merged = first.merge(second)
        assert (merged.queries_issued, merged.queries_failed,
                merged.records_written, merged.retries, merged.gaps) == \
            (8, 1, 21, 1, 1)
        assert merged.accounts_used == 3
        assert merged.merge(CollectionReport()).accounts_used == 3


class TestAdvisorCollector:
    def test_single_fetch_covers_catalog(self, fresh_cloud):
        archive = SpotLakeArchive()
        report = AdvisorCollector(fresh_cloud, archive).collect()
        assert report.queries_issued == 1
        offering = fresh_cloud.catalog.offering_map()
        pairs = sum(len(r) for r in offering.values())
        assert report.records_written == 3 * pairs

    def test_scraper_is_programmatic_wrapper(self, fresh_cloud):
        scraper = SpotInfoScraper(fresh_cloud)
        snapshot = scraper.fetch()
        assert snapshot
        assert snapshot[0].interruption_label in (
            "<5%", "5-10%", "10-15%", "15-20%", ">20%")

    def test_if_score_stored(self, fresh_cloud):
        archive = SpotLakeArchive()
        AdvisorCollector(fresh_cloud, archive).collect()
        now = fresh_cloud.clock.now()
        score = archive.if_score_at("m5.large", "us-east-1", now)
        assert score in (1.0, 1.5, 2.0, 2.5, 3.0)


class TestPriceCollector:
    def test_restricted_pools(self, fresh_cloud):
        pools = [p for p in fresh_cloud.catalog.all_pools()
                 if p[0] == "m5.large"][:5]
        archive = SpotLakeArchive()
        report = PriceCollector(fresh_cloud, archive, pools).collect()
        assert report.records_written == len(pools)
        now = fresh_cloud.clock.now()
        itype, region, zone = pools[0]
        assert archive.price_at(itype, region, zone, now) == \
            fresh_cloud.pricing.spot_price(itype, region, now, zone)

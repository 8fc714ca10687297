"""Tests for the assembled SpotLake service."""

import hashlib
import shutil
import tempfile
from pathlib import Path

import pytest

from repro import ServiceConfig, SpotLakeService
from repro.scoring import interruption_free_score
from repro.timeseries import dump_store

BACKFILL_TYPES = ["m5.large", "c5.xlarge", "p3.2xlarge"]


def _pointwise_backfill(service, sample_times):
    """``bulk_backfill`` spelled as one ``put_*`` call per record."""
    cloud, archive = service.cloud, service.archive
    pools = [p for p in cloud.catalog.all_pools() if p[0] in BACKFILL_TYPES]
    pairs = list(dict.fromkeys((itype, region) for itype, region, _ in pools))
    for ts in sample_times:
        for itype, region, zone in pools:
            archive.put_sps(itype, region, zone,
                            cloud.placement.zone_score(itype, region, zone,
                                                       ts), ts)
            archive.put_price(itype, region, zone,
                              cloud.pricing.spot_price(itype, region, ts,
                                                       zone), ts)
        for itype, region in pairs:
            ratio = cloud.advisor.interruption_ratio(itype, region, ts)
            archive.put_advisor(itype, region, ratio,
                                interruption_free_score(ratio),
                                cloud.advisor.savings_percent(itype, region,
                                                              ts), ts)


def _store_digest(service):
    directory = Path(tempfile.mkdtemp(prefix="test-backfill-"))
    try:
        dump_store(service.archive.store, directory)
        digest = hashlib.sha256()
        for path in sorted(directory.glob("*.jsonl")):
            digest.update(path.name.encode("utf-8"))
            digest.update(path.read_bytes())
        return digest.hexdigest()
    finally:
        shutil.rmtree(directory, ignore_errors=True)


class TestWiring:
    def test_plan_restricted_to_configured_types(self, small_service):
        types = {q.instance_type for q in small_service.plan.queries}
        assert types <= set(small_service.config.instance_types)

    def test_account_pool_sized_for_plan(self, small_service):
        from repro import AccountPool
        needed = AccountPool.size_for(small_service.plan.optimized_query_count)
        assert len(small_service.accounts) == needed

    def test_three_jobs_registered(self, small_service):
        names = {job.name for job in small_service.scheduler.jobs()}
        assert names == {"sps", "advisor", "price"}


class TestCollection:
    def test_collect_once_populates_all_tables(self, small_service):
        reports = small_service.collect_once()
        assert reports["sps"].records_written > 0
        assert reports["advisor"].records_written > 0
        assert reports["price"].records_written > 0
        stats = small_service.archive.stats()
        assert all(stats[t]["records_written"] > 0
                   for t in ("sps", "advisor", "price"))

    def test_run_collection_advances_clock(self, small_service):
        before = small_service.cloud.clock.now()
        runs = small_service.run_collection(1800)
        assert small_service.cloud.clock.now() == before + 1800
        assert runs >= 3  # each collector fires at least once

    def test_served_data_matches_engine(self, small_service):
        small_service.collect_once()
        cloud = small_service.cloud
        now = cloud.clock.now()
        zone = cloud.catalog.supported_zones("m5.large", "us-east-1")[0]
        response = small_service.gateway.get("/latest", {
            "instance_type": "m5.large", "region": "us-east-1",
            "zone": zone, "at": str(now)})
        assert response.status == 200
        assert response.body["sps"] == cloud.placement.zone_score(
            "m5.large", "us-east-1", zone, now)
        assert response.body["spot_price"] == cloud.pricing.spot_price(
            "m5.large", "us-east-1", now, zone)


class TestBulkBackfill:
    def test_backfill_equivalent_to_collection(self, small_service):
        """The fast path writes the same values the collectors would."""
        cloud = small_service.cloud
        t = cloud.clock.now()
        pools = [p for p in cloud.catalog.all_pools()
                 if p[0] == "m5.large"][:3]
        small_service.bulk_backfill([t], pools=pools)
        for itype, region, zone in pools:
            assert small_service.archive.sps_at(itype, region, zone, t) == \
                cloud.placement.zone_score(itype, region, zone, t)

    def test_backfill_respects_type_restriction(self, small_service):
        t = small_service.cloud.clock.now()
        small_service.bulk_backfill([t])
        keys = small_service.archive.sps.series_keys("sps")
        types = {k.dimension_dict["InstanceType"] for k in keys}
        assert types <= set(small_service.config.instance_types)

    def test_backfill_returns_record_count(self, small_service):
        t = small_service.cloud.clock.now()
        pools = [p for p in small_service.cloud.catalog.all_pools()
                 if p[0] == "m5.large"][:2]
        written = small_service.bulk_backfill([t, t + 600], pools=pools,
                                              include_price=False)
        # 2 instants x (2 sps records + 1 advisor pair x 3 measures)
        assert written == 2 * (2 + 3)


class TestBulkBackfillParity:
    """The batched backfill is byte-identical to pointwise writes."""

    SAMPLES = 6

    def _backfill(self, batched, data_dir=None):
        service = SpotLakeService(ServiceConfig(
            seed=7, instance_types=BACKFILL_TYPES, data_dir=data_dir))
        start = service.cloud.clock.now()
        times = [start + 3600.0 * i for i in range(self.SAMPLES)]
        if batched:
            service.bulk_backfill(times)
        else:
            _pointwise_backfill(service, times)
        service.archive.commit_round(times[-1])
        return service

    def test_in_memory_digests_match(self):
        batched = self._backfill(batched=True)
        pointwise = self._backfill(batched=False)
        assert batched.archive.stats()["sps"]["records_written"] > 0
        assert _store_digest(batched) == _store_digest(pointwise)

    def test_reopened_durable_digests_match(self, tmp_path):
        digests = {}
        for batched in (True, False):
            data_dir = str(tmp_path / f"batched-{batched}")
            self._backfill(batched, data_dir).close()
            reopened = SpotLakeService(ServiceConfig(
                seed=7, instance_types=BACKFILL_TYPES, data_dir=data_dir))
            try:
                assert reopened.archive.engine.rounds_committed == 1
                digests[batched] = _store_digest(reopened)
            finally:
                reopened.close()
        assert digests[True] == digests[False]

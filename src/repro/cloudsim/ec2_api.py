"""boto3-like client for the simulated cloud.

Exposes exactly the access surface the paper describes (Sections 2 and 3):

* ``get_spot_placement_scores`` -- CLI-accessible, but constrained: at most
  10 result rows per query, and ~50 *unique* queries per account per rolling
  24 hours;
* ``describe_spot_price_history`` -- CLI-accessible, with up to three months
  of history;
* ``request_spot_instances`` / ``describe_spot_instance_requests`` /
  ``cancel_spot_instance_requests`` -- the spot request lifecycle;
* ``describe_instance_type_offerings`` -- offering discovery.

Deliberately **not** exposed: the spot instance advisor, which is web-only
(Section 3.1 "Limited query interface"); use
:meth:`SimulatedCloud.advisor_web_snapshot` through a scraper wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .accounts import Account, make_query_key
from .advisor import AdvisorEngine
from .catalog import Catalog
from .clock import SimulationClock, SECONDS_PER_DAY
from .errors import (
    RequestNotFoundError,
    UnknownRegionError,
    ValidationError,
)
from .faults import FaultInjector
from .lifecycle import RequestSimulator, SpotRequest, RequestState
from .market import SpotMarket
from .placement import CompiledScoreQuery, PlacementScoreEngine
from .pricing import PricingEngine

#: Result-row cap of a single placement-score query (paper Section 3.1).
MAX_SPS_RESULTS = 10

#: Price history lookback limit: "up to three months" (paper Section 2.1).
PRICE_HISTORY_MAX_DAYS = 90


@dataclass
class SimulatedCloud:
    """The full simulated cloud: catalog, market, engines, request registry.

    This is the "world" object.  Clients (:class:`Ec2Client`) are cheap
    views bound to an account; they share the world's clock and state.
    """

    seed: int = 0
    catalog: Catalog = None  # type: ignore[assignment]
    clock: SimulationClock = field(default_factory=SimulationClock)
    #: optional deterministic fault schedule (see cloudsim.faults)
    faults: Optional[FaultInjector] = None

    def __post_init__(self):
        if self.catalog is None:
            self.catalog = Catalog(seed=self.seed)
        self.market = SpotMarket(self.catalog, seed=self.seed,
                                 epoch=self.clock.start)
        self.placement = PlacementScoreEngine(self.market)
        self.pricing = PricingEngine(self.market)
        self.advisor = AdvisorEngine(self.market, pricing=self.pricing)
        self.request_simulator = RequestSimulator(self.market, self.placement,
                                                  self.advisor)
        self._requests: Dict[str, SpotRequest] = {}

    def client(self, account: Account) -> "Ec2Client":
        """An API client authenticated as ``account``."""
        return Ec2Client(self, account)

    def maybe_fault(self, operation: str,
                    account: Optional[Account] = None) -> None:
        """Run the injected-fault hook for one simulated call, if armed."""
        if self.faults is not None:
            self.faults.before_call(operation, account)

    def advisor_web_snapshot(self):
        """The advisor dataset as rendered on the vendor's website.

        Web-only on purpose: SpotLake reaches it via a SpotInfo-style
        scraper (:class:`repro.core.collectors.SpotInfoScraper`), never via
        the API client.
        """
        self.maybe_fault("advisor")
        return self.advisor.web_snapshot(self.clock.now())

    def register_request(self, request: SpotRequest) -> None:
        self._requests[request.request_id] = request

    def get_request(self, request_id: str) -> SpotRequest:
        try:
            return self._requests[request_id]
        except KeyError:
            raise RequestNotFoundError(
                f"no spot request {request_id!r}") from None


class Ec2Client:
    """Account-scoped API client with quota enforcement."""

    def __init__(self, cloud: SimulatedCloud, account: Account):
        self.cloud = cloud
        self.account = account

    # -- spot placement scores -------------------------------------------------

    def _sps_admission(self, instance_types: Sequence[str],
                       regions: Sequence[str], target_capacity: int,
                       single_availability_zone: bool,
                       max_results: int) -> None:
        """Validation, credential, fault, and quota gauntlet of one SPS call.

        Shared verbatim by the immediate and the deferred entry points so
        both consume the account budget and the fault schedule identically.
        """
        if not instance_types:
            raise ValidationError("InstanceTypes must not be empty")
        if not regions:
            raise ValidationError("RegionNames must not be empty")
        if target_capacity < 1:
            raise ValidationError("TargetCapacity must be >= 1")
        if max_results > MAX_SPS_RESULTS:
            raise ValidationError(
                f"MaxResults cannot exceed {MAX_SPS_RESULTS}")
        for name in instance_types:
            self.cloud.catalog.instance_type(name)  # validates
        for region in regions:
            if not self.cloud.catalog.has_region(region):
                raise UnknownRegionError(f"unknown region {region!r}")

        # faults fire before quota accounting: a throttled or timed-out
        # call never consumes unique-query budget, matching real AWS
        self.account.check_credentials()
        self.cloud.maybe_fault("sps", self.account)

        key = make_query_key(instance_types, regions, target_capacity,
                             single_availability_zone)
        self.account.charge(key, self.cloud.clock.now())

    def get_spot_placement_scores(self, instance_types: Sequence[str],
                                  regions: Sequence[str],
                                  target_capacity: int = 1,
                                  single_availability_zone: bool = False,
                                  max_results: int = MAX_SPS_RESULTS) -> List[dict]:
        """Placement scores for the given types across the given regions.

        Raises :class:`QuotaExceededError` when the account's rolling
        unique-query budget is exhausted; repeating an identical query is
        free, exactly as the paper observes.
        """
        self._sps_admission(instance_types, regions, target_capacity,
                            single_availability_zone, max_results)
        rows = self.cloud.placement.score_query(
            instance_types, regions, self.cloud.clock.now(),
            target_capacity=target_capacity,
            single_availability_zone=single_availability_zone,
            max_results=max_results)
        return [
            {
                "Region": row.region,
                "AvailabilityZoneId": row.availability_zone,
                "Score": row.score,
            }
            for row in rows
        ]

    def get_spot_placement_scores_deferred(
            self, instance_types: Sequence[str], regions: Sequence[str],
            target_capacity: int = 1,
            single_availability_zone: bool = False,
            max_results: int = MAX_SPS_RESULTS) -> "DeferredScoreCall":
        """Admit an SPS call now, defer the score computation.

        Runs the identical validation / credential / fault / quota sequence
        as :meth:`get_spot_placement_scores` -- the account is charged here,
        the fault schedule advances here -- but returns a
        :class:`DeferredScoreCall` handle instead of rows.  Materializing
        the handle at the admission timestamp yields byte-identical rows;
        ``SpsCollector.collect`` uses this split to admit the whole plan
        first and then land every row in one batch.
        """
        self._sps_admission(instance_types, regions, target_capacity,
                            single_availability_zone, max_results)
        compiled = self.cloud.placement.compile_query(
            instance_types, regions, target_capacity=target_capacity,
            single_availability_zone=single_availability_zone,
            max_results=max_results)
        return DeferredScoreCall(compiled)

    # -- spot price history -------------------------------------------------------

    def describe_spot_price_history(self, instance_types: Sequence[str],
                                    start_time: float, end_time: float,
                                    availability_zone: Optional[str] = None,
                                    region: Optional[str] = None) -> List[dict]:
        """Spot price change events, mirroring the real CLI output."""
        self.account.check_credentials()
        self.cloud.maybe_fault("price", self.account)
        now = self.cloud.clock.now()
        if end_time > now:
            end_time = now
        if start_time < now - PRICE_HISTORY_MAX_DAYS * SECONDS_PER_DAY:
            raise ValidationError(
                f"price history is limited to {PRICE_HISTORY_MAX_DAYS} days")
        if region is None:
            if availability_zone is None:
                raise ValidationError("need a region or an availability zone")
            region = availability_zone.rstrip("abcdef")
        results: List[dict] = []
        for name in instance_types:
            itype = self.cloud.catalog.instance_type(name)
            if not self.cloud.catalog.is_offered(itype, region):
                continue
            zone = availability_zone or self.cloud.pricing.zone_of_region(itype, region)
            for point in self.cloud.pricing.price_history(
                    itype, region, start_time, end_time, zone):
                results.append({
                    "Timestamp": point.timestamp,
                    "SpotPrice": point.price,
                    "InstanceType": point.instance_type,
                    "AvailabilityZone": point.availability_zone,
                })
        results.sort(key=lambda r: r["Timestamp"])
        return results

    # -- spot requests ----------------------------------------------------------------

    def request_spot_instances(self, instance_type: str, availability_zone: str,
                               spot_price: float, persistent: bool = False,
                               horizon_hours: float = 24.0) -> str:
        """Submit a spot request; returns the request id."""
        region = availability_zone.rstrip("abcdef")
        request = self.cloud.request_simulator.submit(
            instance_type=instance_type,
            region=region,
            availability_zone=availability_zone,
            bid_price=spot_price,
            created_at=self.cloud.clock.now(),
            persistent=persistent,
            horizon=horizon_hours * 3600.0,
        )
        self.cloud.register_request(request)
        return request.request_id

    def describe_spot_instance_requests(self, request_ids: Sequence[str]) -> List[dict]:
        """Current status of the given requests."""
        now = self.cloud.clock.now()
        out = []
        for rid in request_ids:
            request = self.cloud.get_request(rid)
            state = request.state_at(now)
            out.append({
                "SpotInstanceRequestId": rid,
                "State": state.value,
                "InstanceType": request.instance_type,
                "AvailabilityZone": request.availability_zone,
                "CreateTime": request.created_at,
            })
        return out

    def cancel_spot_instance_requests(self, request_ids: Sequence[str]) -> None:
        """User-initiated termination (Table 1 Terminal state)."""
        now = self.cloud.clock.now()
        for rid in request_ids:
            self.cloud.request_simulator.cancel(self.cloud.get_request(rid), now)

    # -- offerings ------------------------------------------------------------------------

    def describe_instance_type_offerings(self, region: str,
                                         location_type: str = "availability-zone") -> List[dict]:
        """Instance type offerings of one region."""
        if not self.cloud.catalog.has_region(region):
            raise UnknownRegionError(f"unknown region {region!r}")
        rows: List[dict] = []
        for itype in self.cloud.catalog.instance_types:
            zones = self.cloud.catalog.supported_zones(itype, region)
            if not zones:
                continue
            if location_type == "availability-zone":
                for zone in zones:
                    rows.append({"InstanceType": itype.name, "Location": zone})
            elif location_type == "region":
                rows.append({"InstanceType": itype.name, "Location": region})
            else:
                raise ValidationError(f"unknown location type {location_type!r}")
        return rows


@dataclass(frozen=True)
class DeferredScoreCall:
    """Admitted-but-unevaluated SPS call (see the deferred client entry).

    ``rows_at(timestamp)`` is pure: quota was charged and faults were
    drawn at admission, so evaluation can happen at any later moment
    without touching shared simulation state.
    """

    compiled: "CompiledScoreQuery"

    def rows_at(self, timestamp: float) -> List[dict]:
        """API-shaped rows as of ``timestamp`` (the admission instant)."""
        return [
            {
                "Region": row.region,
                "AvailabilityZoneId": row.availability_zone,
                "Score": row.score,
            }
            for row in self.compiled.rows(timestamp)
        ]

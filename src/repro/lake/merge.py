"""Round merge: capture the three per-source outputs of one round.

The :class:`RoundMerger` is the collectors' *sink* in lake mode: instead
of batching rows straight into the archive, each collector hands its
typed rows to the merger, and the archive's round commit takes the whole
merged round at once -- first landing it raw in the cold tier, then
diffing it against the previous round so only changed rows reach the hot
engine (see :mod:`repro.lake.diff`).

The merger mirrors :class:`repro.core.archive.RecordBatch`'s ``add_*``
surface so collectors can treat either as the row destination.  It is
written to by the collection thread only, so no locking is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..timeseries.compression import ChangePointSeries
from ..timeseries.record import SeriesKey, Value, dimension_key
from .schema import (
    ADVISOR_TABLE,
    AdvisorRow,
    DIM_REGION,
    DIM_TYPE,
    DIM_ZONE,
    IF_SCORE_MEASURE,
    INTERRUPTION_RATIO_MEASURE,
    PRICE_MEASURE,
    PRICE_TABLE,
    PriceRow,
    SAVINGS_MEASURE,
    SPS_MEASURE,
    SPS_TABLE,
    SpsRow,
)


@dataclass
class MergedRound:
    """One collection round's full merged output, before diffing.

    ``time`` is the round's commit timestamp; the rows keep their own
    per-source observation timestamps (a retried price sweep stamps
    post-backoff times), which is what makes the cold tier byte-faithful
    to the hot ingest path.
    """

    time: float
    sps: List[SpsRow] = field(default_factory=list)
    advisor: List[AdvisorRow] = field(default_factory=list)
    price: List[PriceRow] = field(default_factory=list)

    @property
    def row_count(self) -> int:
        """Source rows captured (an advisor row counts once here)."""
        return len(self.sps) + len(self.advisor) + len(self.price)

    @property
    def record_count(self) -> int:
        """Archive records a full ingest of this round would write."""
        return len(self.sps) + 3 * len(self.advisor) + len(self.price)

    def items(self) -> List[Tuple[SeriesKey, ChangePointSeries]]:
        """The round as canonically-sorted columnar-codec series items.

        Every row becomes a point under exactly the series key the hot
        tables use (advisor rows fan out to their three measures), so a
        cold partition file is a byte-faithful raw snapshot of what the
        round *observed* -- the diff stage decides what the hot engine
        *stores*.
        """
        points: Dict[SeriesKey, List[Tuple[float, Value]]] = {}

        def add(key: SeriesKey, time: float, value: Value) -> None:
            points.setdefault(key, []).append((float(time), value))

        for itype, region, zone, score, time in self.sps:
            add(SeriesKey(SPS_MEASURE, dimension_key(
                {DIM_TYPE: itype, DIM_REGION: region, DIM_ZONE: zone})),
                time, int(score))
        for itype, region, ratio, if_score, savings, time in self.advisor:
            dims = dimension_key({DIM_TYPE: itype, DIM_REGION: region})
            add(SeriesKey(INTERRUPTION_RATIO_MEASURE, dims), time, float(ratio))
            add(SeriesKey(IF_SCORE_MEASURE, dims), time, float(if_score))
            add(SeriesKey(SAVINGS_MEASURE, dims), time, int(savings))
        for itype, region, zone, price, time in self.price:
            add(SeriesKey(PRICE_MEASURE, dimension_key(
                {DIM_TYPE: itype, DIM_REGION: region, DIM_ZONE: zone})),
                time, float(price))

        items: List[Tuple[SeriesKey, ChangePointSeries]] = []
        for key in sorted(points, key=lambda k: (k.measure_name,
                                                 k.dimensions)):
            rows = sorted(points[key], key=lambda r: r[0])
            items.append((key, ChangePointSeries(
                times=[t for t, _ in rows],
                values=[v for _, v in rows],
                observed_until=rows[-1][0],
                observation_count=len(rows))))
        return items

    def tables_touched(self) -> List[str]:
        touched = []
        if self.sps:
            touched.append(SPS_TABLE)
        if self.advisor:
            touched.append(ADVISOR_TABLE)
        if self.price:
            touched.append(PRICE_TABLE)
        return touched


class RoundMerger:
    """Accumulates one round's rows from the three collectors."""

    def __init__(self) -> None:
        self._sps: List[SpsRow] = []
        self._advisor: List[AdvisorRow] = []
        self._price: List[PriceRow] = []

    # -- RecordBatch-compatible sink surface --------------------------------

    def add_sps(self, instance_type: str, region: str, zone: str,
                score: int, time: float) -> None:
        self._sps.append((instance_type, region, zone, score, time))

    def add_sps_rows(self, rows: Sequence[SpsRow]) -> None:
        self._sps.extend(rows)

    def add_advisor(self, instance_type: str, region: str,
                    interruption_ratio: float, if_score: float,
                    savings_percent: int, time: float) -> None:
        self._advisor.append((instance_type, region, interruption_ratio,
                              if_score, savings_percent, time))

    def add_advisor_rows(self, rows: Sequence[AdvisorRow]) -> None:
        self._advisor.extend(rows)

    def add_price(self, instance_type: str, region: str, zone: str,
                  price: float, time: float) -> None:
        self._price.append((instance_type, region, zone, price, time))

    def add_price_rows(self, rows: Sequence[PriceRow]) -> None:
        self._price.extend(rows)

    # -- round boundary ------------------------------------------------------

    @property
    def pending_rows(self) -> int:
        return len(self._sps) + len(self._advisor) + len(self._price)

    def take_round(self, time: float) -> MergedRound:
        """Snapshot and clear the buffered rows as one merged round."""
        merged = MergedRound(time=float(time), sps=self._sps,
                             advisor=self._advisor, price=self._price)
        self._sps = []
        self._advisor = []
        self._price = []
        return merged

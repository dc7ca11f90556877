"""Transmission recording and measurement.

The evaluation (Section 6.3) measures how accurately the scheduler
enforces policies: achieved rate per node (Fig. 11) and per-flow shares
within a node (Fig. 12).  The recorder captures every departure and
derives those measurements.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (Callable, Dict, Hashable, List, NamedTuple, Optional,
                    Sequence)


class Departure(NamedTuple):
    """One packet leaving on the wire.

    A named tuple rather than a dataclass: one is built per transmitted
    packet, and frozen-dataclass construction (``object.__setattr__``
    per field) is measurable in simulation profiles.
    """

    time: float
    flow_id: Hashable
    size_bytes: int
    packet_id: int


class Recorder:
    """Collects departures and computes rates/shares/orderings."""

    def __init__(self) -> None:
        self.departures: List[Departure] = []

    def record(self, time: float, flow_id: Hashable, size_bytes: int,
               packet_id: int) -> None:
        # tuple.__new__ builds the named tuple without the Python frame
        # of its generated constructor.
        self.departures.append(tuple.__new__(
            Departure, (time, flow_id, size_bytes, packet_id)))

    # -- basic views ------------------------------------------------------
    def __len__(self) -> int:
        return len(self.departures)

    def order(self) -> List[Hashable]:
        """Flow ids in departure order (used by the Fig. 2 experiments)."""
        return [departure.flow_id for departure in self.departures]

    def bytes_by_flow(self, start: float = 0.0,
                      end: float = float("inf")) -> Dict[Hashable, int]:
        totals: Dict[Hashable, int] = defaultdict(int)
        for departure in self.departures:
            if start <= departure.time < end:
                totals[departure.flow_id] += departure.size_bytes
        return dict(totals)

    # -- rate measurements --------------------------------------------------
    def rate_bps(self, flow_ids: Optional[Sequence[Hashable]] = None,
                 start: float = 0.0, end: Optional[float] = None,
                 key: Optional[Callable[[Hashable], Hashable]] = None,
                 ) -> Dict[Hashable, float]:
        """Achieved rate in bits/s per flow (or per ``key(flow_id)``
        aggregate) over the window ``[start, end)``."""
        if end is None:
            end = self.departures[-1].time if self.departures else start
        window = end - start
        if window <= 0:
            return {}
        wanted = set(flow_ids) if flow_ids is not None else None
        totals: Dict[Hashable, float] = defaultdict(float)
        for departure in self.departures:
            if not start <= departure.time < end:
                continue
            if wanted is not None and departure.flow_id not in wanted:
                continue
            bucket = key(departure.flow_id) if key else departure.flow_id
            totals[bucket] += departure.size_bytes * 8
        return {bucket: bits / window for bucket, bits in totals.items()}

    def aggregate_rate_bps(self, start: float = 0.0,
                           end: Optional[float] = None) -> float:
        rates = self.rate_bps(start=start, end=end, key=lambda _fid: "all")
        return rates.get("all", 0.0)

    def rate_timeseries(self, bucket_seconds: float,
                        key: Optional[Callable[[Hashable], Hashable]] = None,
                        ) -> Dict[Hashable, List[float]]:
        """Per-bucket achieved rate series, for pacing-accuracy plots."""
        if not self.departures:
            return {}
        horizon = self.departures[-1].time
        buckets = int(horizon / bucket_seconds) + 1
        series: Dict[Hashable, List[float]] = defaultdict(
            lambda: [0.0] * buckets)
        for departure in self.departures:
            index = int(departure.time / bucket_seconds)
            bucket = key(departure.flow_id) if key else departure.flow_id
            series[bucket][index] += departure.size_bytes * 8
        return {
            name: [bits / bucket_seconds for bits in values]
            for name, values in series.items()
        }

    def interdeparture_times(self, flow_id: Hashable) -> List[float]:
        """Gaps between consecutive departures of one flow (pacing)."""
        times = [departure.time for departure in self.departures
                 if departure.flow_id == flow_id]
        return [after - before for before, after in zip(times, times[1:])]

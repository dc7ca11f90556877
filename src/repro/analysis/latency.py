"""Per-packet latency and jitter analysis.

The paper's motivation (Section 1) is precision: protocols that "require
packets to be transmitted at precise times on the wire, in some cases at
nanosecond-level precision".  These helpers quantify scheduling delay
(arrival to wire) and pacing jitter from simulation output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

from repro.analysis.quantiles import exact_quantile
from repro.sim.packet import Packet


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a delay population (seconds)."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p99: float
    stddev: float


def summarize(values: Iterable[float]) -> LatencyStats:
    """Summarize a population of delays."""
    population = sorted(values)
    if not population:
        return LatencyStats(0, math.nan, math.nan, math.nan, math.nan,
                            math.nan, math.nan)
    count = len(population)
    mean = sum(population) / count
    variance = sum((value - mean) ** 2 for value in population) / count
    return LatencyStats(
        count=count,
        mean=mean,
        minimum=population[0],
        maximum=population[-1],
        p50=exact_quantile(population, 0.50),
        p99=exact_quantile(population, 0.99),
        stddev=math.sqrt(variance),
    )


def packet_delays(packets: Iterable[Packet],
                  flow_id: Optional[Hashable] = None) -> List[float]:
    """Arrival-to-departure delays of transmitted packets."""
    delays = []
    for packet in packets:
        if packet.departure_time is None:
            continue
        if flow_id is not None and packet.flow_id != flow_id:
            continue
        delays.append(packet.departure_time - packet.arrival_time)
    return delays


def delay_stats_by_flow(packets: Iterable[Packet],
                        ) -> Dict[Hashable, LatencyStats]:
    by_flow: Dict[Hashable, List[float]] = {}
    for packet in packets:
        if packet.departure_time is None:
            continue
        by_flow.setdefault(packet.flow_id, []).append(
            packet.departure_time - packet.arrival_time)
    return {flow_id: summarize(delays)
            for flow_id, delays in by_flow.items()}


def pacing_jitter(gaps: Sequence[float],
                  target_gap: float) -> LatencyStats:
    """Deviation of inter-departure gaps from a pacing target.

    The precision metric for shaped traffic: perfect pacing gives an
    all-zero population.
    """
    if target_gap <= 0:
        raise ValueError("target gap must be positive")
    return summarize(abs(gap - target_gap) for gap in gaps)

"""Summary statistics of a delay population.

The paper's motivation (Section 1) is precision: protocols that "require
packets to be transmitted at precise times on the wire, in some cases at
nanosecond-level precision".  :func:`summarize` condenses delays taken
from simulation output (count, mean, extremes, median, p99, spread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.quantiles import exact_quantile


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

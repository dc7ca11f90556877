"""Fairness metrics for the fair-queuing experiments (Fig. 12)."""

from __future__ import annotations

from typing import Sequence


def jains_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = maximally
    unfair.  Defined as (sum x)^2 / (n * sum x^2)."""
    values = [value for value in allocations]
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


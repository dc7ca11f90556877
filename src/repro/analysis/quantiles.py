"""Exact empirical quantiles.

A leaf module, so the FCT collector and the trace analyzer share one
definition without either loading the other.
"""

from __future__ import annotations

import math
from typing import Sequence


def exact_quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Exact empirical quantile (nearest-rank) of pre-sorted samples."""
    if not sorted_samples:
        return 0.0
    if not 0 <= q <= 1:
        raise ValueError("quantile must be within [0, 1]")
    index = max(0, math.ceil(q * len(sorted_samples)) - 1)
    return sorted_samples[index]

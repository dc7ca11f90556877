"""Tests for the latency summary statistics."""

import math

import pytest

from repro.analysis.latency import summarize
from repro.analysis.quantiles import exact_quantile


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert exact_quantile(values, 0.5) == 2.0
    assert exact_quantile(values, 0.99) == 4.0
    assert exact_quantile(values, 0.0) == 1.0
    assert exact_quantile(values, 1.0) == 4.0
    with pytest.raises(ValueError):
        exact_quantile(values, 1.5)
    # summarize reports the same nearest-rank p50/p99, and NaN when
    # there is nothing to summarize.
    stats = summarize([4.0, 1.0, 3.0, 2.0])
    assert (stats.p50, stats.p99) == (2.0, 4.0)
    assert math.isnan(summarize([]).p50)


def test_summarize():
    stats = summarize([1.0, 2.0, 3.0])
    assert stats.count == 3
    assert stats.mean == pytest.approx(2.0)
    assert stats.minimum == 1.0
    assert stats.maximum == 3.0
    assert stats.p50 == 2.0
    assert stats.stddev == pytest.approx(math.sqrt(2 / 3))


def test_summarize_empty():
    stats = summarize([])
    assert stats.count == 0
    assert math.isnan(stats.mean)

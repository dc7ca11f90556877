"""Tests for the nearest-rank quantiles that latency reports use."""

import pytest

from repro.analysis.quantiles import exact_quantile


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert exact_quantile(values, 0.5) == 2.0
    assert exact_quantile(values, 0.99) == 4.0
    assert exact_quantile(values, 0.0) == 1.0
    assert exact_quantile(values, 1.0) == 4.0
    with pytest.raises(ValueError):
        exact_quantile(values, 1.5)
    assert exact_quantile([], 0.5) == 0.0

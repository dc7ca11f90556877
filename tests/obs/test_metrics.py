"""Metrics unit tests: counters, gauges, histograms, registry export."""

import json
import math

import pytest

from repro.obs import (Counter, DEPTH_BUCKETS, Gauge, Histogram,
                       LogHistogram, MetricsRegistry)


def test_counter_accumulates():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_gauge_tracks_watermarks():
    gauge = Gauge()
    gauge.set(5)
    gauge.dec(7)
    gauge.inc(10)
    assert gauge.value == 8
    assert gauge.min == -2
    assert gauge.max == 8


def test_histogram_buckets_and_exact_stats():
    histogram = Histogram(buckets=(1, 10, 100))
    for value in (0.5, 1.0, 5, 50, 500):
        histogram.observe(value)
    # bounds are inclusive upper bounds; one overflow bucket at the end
    assert histogram.counts == [2, 1, 1, 1]
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(556.5)
    assert histogram.mean == pytest.approx(111.3)
    assert histogram.min == 0.5 and histogram.max == 500


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=())
    with pytest.raises(ValueError):
        Histogram(buckets=(10, 1))


def test_depth_buckets_cover_full_scale_lists():
    """Paper-scale N = 32K element lists must not land every depth
    sample in the overflow bucket."""
    assert DEPTH_BUCKETS[-1] >= 32768
    histogram = Histogram()  # DEPTH_BUCKETS default
    histogram.observe(32768)
    assert histogram.overflow == 0


def test_histogram_overflow_is_explicit():
    histogram = Histogram(buckets=(1, 10))
    for value in (0.5, 5, 100, 200):
        histogram.observe(value)
    assert histogram.overflow == 2
    assert histogram.counts == [1, 1, 2]


def test_log_histogram_buckets_and_exact_stats():
    histogram = LogHistogram(min_value=1.0, max_value=1e4)
    for value in (0.5, 1.0, 3.0, 250.0, 1e6):
        histogram.observe(value)
    assert histogram.underflow == 2  # <= min_value
    assert histogram.overflow == 1   # > max_value
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(1000254.5)
    assert histogram.min == 0.5 and histogram.max == 1e6
    # Every in-range value lands in the bucket whose bound brackets it.
    for value, total in ((3.0, 1), (250.0, 1)):
        index = next(i for i, bound in enumerate(histogram.bounds)
                     if bound >= value)
        lower = (histogram.min_value if index == 0
                 else histogram.bounds[index - 1])
        assert lower < value <= histogram.bounds[index]
        assert histogram.counts[index] == total


def test_log_histogram_quantiles_bounded_relative_error():
    histogram = LogHistogram(min_value=1e-3, max_value=1e7)
    samples = [1.0 * 1.01 ** index for index in range(1000)]
    for value in samples:
        histogram.observe(value)
    samples.sort()
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = samples[math.ceil(q * len(samples)) - 1]
        assert histogram.quantile(q) == pytest.approx(exact, rel=0.13)
    # Quantiles are clamped to the exact observed range.
    assert histogram.quantile(0.0) >= histogram.min
    assert histogram.quantile(1.0) == histogram.max


def test_log_histogram_empty_and_validation():
    histogram = LogHistogram()
    assert histogram.quantile(0.5) == 0.0
    assert histogram.mean == 0.0
    with pytest.raises(ValueError):
        histogram.quantile(2.0)
    with pytest.raises(ValueError):
        LogHistogram(min_value=0.0)
    with pytest.raises(ValueError):
        LogHistogram(min_value=10.0, max_value=1.0)
    with pytest.raises(ValueError):
        LogHistogram(growth=1.0)


def test_log_histogram_cumulative_buckets_are_monotone():
    histogram = LogHistogram(min_value=1.0, max_value=100.0)
    for value in (0.5, 2.0, 30.0, 500.0):
        histogram.observe(value)
    pairs = histogram.cumulative_buckets()
    assert pairs[0] == (1.0, 1)  # underflow surfaces as le=min_value
    cumulatives = [cumulative for _, cumulative in pairs]
    assert cumulatives == sorted(cumulatives)
    # +Inf bucket (added by exporters) closes the gap to count.
    assert cumulatives[-1] + histogram.overflow == histogram.count


def test_registry_instruments_are_idempotent_per_name():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")
    assert registry.log_histogram("lh") is registry.log_histogram("lh")


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("arrivals").inc(3)
    registry.gauge("depth").set(7)
    registry.histogram("batch", buckets=(1, 2)).observe(2)
    snapshot = registry.to_dict()
    assert snapshot["counters"] == {"arrivals": 3}
    assert snapshot["gauges"]["depth"] == {"value": 7, "min": 7, "max": 7}
    histogram = snapshot["histograms"]["batch"]
    assert histogram["buckets"] == [1, 2]
    assert histogram["counts"] == [0, 1, 0]
    assert histogram["count"] == 1
    assert histogram["overflow"] == 0
    registry.log_histogram("lat", min_value=1.0, max_value=10.0)
    registry.log_histogram("lat").observe(3.0)
    snapshot = registry.to_dict()
    log_histogram = snapshot["log_histograms"]["lat"]
    assert log_histogram["count"] == 1
    assert log_histogram["quantiles"]["p50"] == pytest.approx(3.0)


def test_registry_write_json(tmp_path):
    registry = MetricsRegistry()
    registry.counter("a").inc()
    path = tmp_path / "metrics.json"
    registry.write_json(path)
    assert json.loads(path.read_text())["counters"] == {"a": 1}

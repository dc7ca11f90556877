"""Tests for departure recording and rate measurement."""

import pytest

from repro.sim.recorder import Recorder


def record_uniform(recorder, flow_id, count, gap, size=1500, start=0.0):
    for index in range(count):
        recorder.record(start + index * gap, flow_id, size, index)


def test_order():
    recorder = Recorder()
    recorder.record(0.0, "a", 100, 1)
    recorder.record(1.0, "b", 100, 2)
    assert recorder.order() == ["a", "b"]


def test_bytes_by_flow_windowed():
    recorder = Recorder()
    record_uniform(recorder, "a", 10, gap=1.0, size=100)
    totals = recorder.bytes_by_flow(start=2.0, end=5.0)
    assert totals == {"a": 300}


def test_rate_bps():
    recorder = Recorder()
    # 10 packets of 1250 B over 10 s -> 10 kbit/s.
    record_uniform(recorder, "a", 10, gap=1.0, size=1250)
    rates = recorder.rate_bps(start=0.0, end=10.0)
    assert rates["a"] == pytest.approx(10_000)


def test_rate_bps_with_aggregation_key():
    recorder = Recorder()
    record_uniform(recorder, "n0.f1", 5, gap=1.0, size=1000)
    record_uniform(recorder, "n0.f2", 5, gap=1.0, size=1000, start=0.5)
    rates = recorder.rate_bps(start=0.0, end=5.0,
                              key=lambda fid: fid.split(".")[0])
    assert rates["n0"] == pytest.approx(2 * 5 * 8000 / 5.0)


def test_rate_bps_filters_flows():
    recorder = Recorder()
    record_uniform(recorder, "a", 5, gap=1.0)
    record_uniform(recorder, "b", 5, gap=1.0)
    rates = recorder.rate_bps(flow_ids=["a"], start=0.0, end=5.0)
    assert set(rates) == {"a"}


def test_rate_timeseries_buckets():
    recorder = Recorder()
    record_uniform(recorder, "a", 4, gap=1.0, size=1250)  # t = 0,1,2,3
    series = recorder.rate_timeseries(bucket_seconds=2.0)
    assert series["a"] == [pytest.approx(10_000), pytest.approx(10_000)]


def test_interdeparture_times():
    recorder = Recorder()
    record_uniform(recorder, "a", 3, gap=0.5)
    assert recorder.interdeparture_times("a") == [
        pytest.approx(0.5), pytest.approx(0.5)]


def test_empty_recorder():
    recorder = Recorder()
    assert recorder.rate_bps() == {}
    assert recorder.rate_timeseries(1.0) == {}
    assert len(recorder) == 0

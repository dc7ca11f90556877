"""Tests for the latency/jitter analysis helpers."""

import math

import pytest

from repro.analysis.latency import (delay_stats_by_flow, packet_delays,
                                    pacing_jitter, summarize)
from repro.analysis.quantiles import exact_quantile
from repro.sim.packet import Packet


def make_packet(flow_id, arrival, departure):
    packet = Packet(flow_id, arrival_time=arrival)
    packet.departure_time = departure
    return packet


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


def test_packet_delays_skips_untransmitted():
    packets = [make_packet("a", 0.0, 1.0),
               Packet("a", arrival_time=0.0),  # never departed
               make_packet("b", 1.0, 4.0)]
    assert packet_delays(packets) == [1.0, 3.0]
    assert packet_delays(packets, flow_id="b") == [3.0]


def test_delay_stats_by_flow():
    packets = [make_packet("a", 0.0, 1.0), make_packet("a", 0.0, 3.0),
               make_packet("b", 0.0, 10.0)]
    stats = delay_stats_by_flow(packets)
    assert stats["a"].count == 2
    assert stats["a"].mean == pytest.approx(2.0)
    assert stats["b"].maximum == 10.0


def test_pacing_jitter_perfect_pacing_is_zero():
    gaps = [0.001] * 10
    stats = pacing_jitter(gaps, target_gap=0.001)
    assert stats.maximum == 0.0
    assert stats.mean == 0.0


def test_pacing_jitter_measures_deviation():
    stats = pacing_jitter([0.9e-3, 1.1e-3], target_gap=1e-3)
    assert stats.mean == pytest.approx(0.1e-3)
    with pytest.raises(ValueError):
        pacing_jitter([1.0], target_gap=0)

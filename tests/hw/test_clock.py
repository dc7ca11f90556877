"""Tests for the clock/scheduling-rate model: paper anchors."""

import pytest

from repro.hw.clock import (MTU_BUDGET_NS_AT_100G, pieo_clock_mhz,
                            pieo_rate_report, pifo_clock_mhz,
                            pifo_rate_report)
from repro.hw.device import ASIC, STRATIX_V


def test_pieo_80mhz_at_30k():
    """Section 6.2: "even at 80 MHz ... every 50 ns"."""
    assert pieo_clock_mhz(30_000, STRATIX_V) == pytest.approx(80.0, abs=2)
    report = pieo_rate_report(30_000, STRATIX_V)
    assert report.op_latency_ns == pytest.approx(50.0, abs=2)


def test_pifo_57mhz_at_1k():
    """Section 6.2: "PIFO's design on top of our FPGA was clocked at
    57 MHz"."""
    assert pifo_clock_mhz(1_024, STRATIX_V) == pytest.approx(57.0, abs=2)


def test_mtu_at_100g_met_up_to_30k():
    for size in (1_024, 8_192, 30_000):
        assert pieo_rate_report(size, STRATIX_V).meets_mtu_at_100g


def test_clock_decreases_with_size():
    sizes = (1_024, 4_096, 16_384, 30_000)
    clocks = [pieo_clock_mhz(size, STRATIX_V) for size in sizes]
    assert clocks == sorted(clocks, reverse=True)


def test_asic_4ns_per_op():
    """Section 6.2: "At 1 GHz clock rate, each primitive operation in
    PIEO would only take 4 ns"."""
    report = pieo_rate_report(30_000, ASIC)
    assert report.op_latency_ns == pytest.approx(4.0)
    assert report.clock_mhz == 1_000.0


def test_pifo_one_cycle_pieo_four_cycles():
    assert pifo_rate_report(1_024, STRATIX_V).cycles_per_op == 1
    assert pieo_rate_report(1_024, STRATIX_V).cycles_per_op == 4


def test_ops_per_second_consistency():
    report = pieo_rate_report(30_000, STRATIX_V)
    assert report.ops_per_second == pytest.approx(
        1e9 / report.op_latency_ns)


def test_mtu_budget_constant():
    # 1500 B at 100 Gbps = 120 ns.
    assert MTU_BUDGET_NS_AT_100G == pytest.approx(1500 * 8 / 100, rel=0.01)

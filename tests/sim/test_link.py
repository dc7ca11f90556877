"""Tests for the link model."""

import pytest

from repro.sim.link import Link, gbps
from repro.sim.packet import Packet


def test_transmission_time():
    link = Link(gbps(10))
    packet = Packet("f", size_bytes=1250)  # 10 000 bits
    assert link.transmission_time(packet) == pytest.approx(1e-6)


def test_transmit_occupies_link():
    link = Link(gbps(1))
    packet = Packet("f", size_bytes=125)  # 1000 bits -> 1 us
    finish = link.transmit(packet, now=0.0)
    assert finish == pytest.approx(1e-6)
    assert not link.is_idle(0.5e-6)
    assert link.is_idle(1e-6)


def test_transmit_while_busy_raises():
    link = Link(gbps(1))
    link.transmit(Packet("f"), now=0.0)
    with pytest.raises(RuntimeError):
        link.transmit(Packet("f"), now=0.0)


def test_counters_and_utilization():
    link = Link(gbps(1))
    finish = link.transmit(Packet("f", size_bytes=125), now=0.0)
    link.transmit(Packet("f", size_bytes=125), now=finish)
    assert link.packets_sent == 2
    assert link.bytes_sent == 250
    assert link.utilization(4e-6) == pytest.approx(0.5)


def test_rate_must_be_positive():
    with pytest.raises(ValueError):
        Link(0)


@pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
def test_rate_must_be_finite_and_positive(rate):
    with pytest.raises(ValueError):
        Link(rate)


def test_gbps_helper():
    assert gbps(40) == 40e9

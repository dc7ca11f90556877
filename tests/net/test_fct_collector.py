"""FctCollector / FlowRecord bookkeeping in isolation."""

import pytest

from repro.net.fct import SHORT_FLOW_BYTES, FctCollector
from repro.sim.packet import Packet


def _start(collector, flow_id="f", size=3000, ideal=1e-3, now=0.0):
    return collector.flow_started(flow_id, "a", "b", size, now, ideal,
                                  path=["a", "s", "b"], packets=3)


class TestFlowRecord:
    def test_incomplete_flow_has_no_fct(self):
        collector = FctCollector()
        record = _start(collector)
        assert not record.completed
        assert record.fct_s is None
        assert record.slowdown is None

    def test_completion_and_slowdown(self):
        collector = FctCollector()
        record = _start(collector, size=2000, ideal=1e-3)
        collector.packet_delivered(
            Packet("f", size_bytes=1000), now=1e-3)
        assert not record.completed
        collector.packet_delivered(
            Packet("f", size_bytes=1000), now=2e-3)
        assert record.completed
        assert record.fct_s == pytest.approx(2e-3)
        assert record.slowdown == pytest.approx(2.0)

    def test_zero_ideal_gives_no_slowdown(self):
        collector = FctCollector()
        record = _start(collector, size=100, ideal=0.0)
        collector.packet_delivered(
            Packet("f", size_bytes=100), now=1e-3)
        assert record.completed
        assert record.slowdown is None

    def test_short_flow_threshold(self):
        collector = FctCollector()
        short = _start(collector, flow_id="s", size=SHORT_FLOW_BYTES)
        long = _start(collector, flow_id="l",
                      size=SHORT_FLOW_BYTES + 1)
        assert short.short and not long.short

    def test_reorder_counting(self):
        collector = FctCollector()
        record = _start(collector, size=5000)
        for packet_id in (3, 1, 2, 5):
            collector.packet_delivered(
                Packet("f", size_bytes=1000, packet_id=packet_id),
                now=1e-3)
        # 1 and 2 arrive after 3: two reorderings; 5 is in order.
        assert record.reordered == 2

    def test_duplicate_flow_rejected(self):
        collector = FctCollector()
        _start(collector)
        with pytest.raises(ValueError):
            _start(collector)

    def test_uncollected_flow_ignored(self):
        collector = FctCollector()
        collector.packet_delivered(
            Packet("ghost", size_bytes=100), now=0.0)
        assert collector.flows == {}


class TestStats:
    def test_slowdown_stats_split_by_size(self):
        collector = FctCollector()
        short = _start(collector, flow_id="s", size=1000, ideal=1e-3)
        long = _start(collector, flow_id="l",
                      size=SHORT_FLOW_BYTES + 1000, ideal=1e-2)
        collector.packet_delivered(
            Packet("s", size_bytes=1000), now=2e-3)
        collector.packet_delivered(
            Packet("l", size_bytes=SHORT_FLOW_BYTES + 1000), now=3e-2)
        stats = collector.slowdown_stats()
        assert stats["flows"] == 2 and stats["completed"] == 2
        assert stats["short_flows"] == 1 and stats["long_flows"] == 1
        assert stats["short_p50"] == pytest.approx(short.slowdown)
        assert stats["long_p50"] == pytest.approx(long.slowdown)
        assert stats["all_p99"] >= stats["all_p50"]

    def test_empty_groups_report_zero(self):
        collector = FctCollector()
        stats = collector.slowdown_stats()
        assert stats["flows"] == 0
        assert stats["all_p50"] == 0.0
        assert stats["short_p99"] == 0.0

    def test_residence_aggregation(self):
        collector = FctCollector()
        collector.note_residence("l0", 2e-6)
        collector.note_residence("l0", 4e-6)
        collector.note_residence("sp0", 1e-6)
        assert collector.residence["l0"]["packets"] == 2
        assert collector.residence["l0"]["total_s"] == pytest.approx(6e-6)
        assert collector.residence["sp0"]["total_s"] == pytest.approx(1e-6)
        assert collector.residence["l0"]["max_s"] == pytest.approx(4e-6)

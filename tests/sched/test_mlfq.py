"""Tests for the MLFQ / PIAS-style scheduler (Section 2.3, ref. [4])."""

import pytest

from repro.errors import ConfigurationError
from repro.sched import MultiLevelFeedbackQueue, PieoScheduler
from repro.sim import FlowQueue, Packet

from tests.scenarios import FlatRun

KB = 1000


def test_threshold_validation():
    with pytest.raises(ConfigurationError):
        MultiLevelFeedbackQueue([])
    with pytest.raises(ConfigurationError):
        MultiLevelFeedbackQueue([5, 3])
    with pytest.raises(ConfigurationError):
        MultiLevelFeedbackQueue([0, 5])
    with pytest.raises(ConfigurationError):
        MultiLevelFeedbackQueue([5, 5])


def test_level_progression():
    algorithm = MultiLevelFeedbackQueue([10 * KB, 100 * KB])
    flow = FlowQueue("f")
    assert algorithm.level_of(flow) == 0
    flow.state["mlfq_bytes_sent"] = 10 * KB
    assert algorithm.level_of(flow) == 1
    flow.state["mlfq_bytes_sent"] = 500 * KB
    assert algorithm.level_of(flow) == 2


def test_bytes_counted_on_transmit():
    scheduler = PieoScheduler(MultiLevelFeedbackQueue([3 * KB]))
    flow = scheduler.add_flow(FlowQueue("f"))
    for _ in range(4):
        scheduler.on_arrival("f", Packet("f", size_bytes=1500), 0.0)
    scheduler.schedule(0.0)
    scheduler.schedule(0.0)
    assert flow.state["mlfq_bytes_sent"] == 3000
    # Crossed the 3 KB threshold: resident rank is now level 1.
    assert scheduler.ordered_list.snapshot()[0].rank == 1


def test_new_short_flow_preempts_demoted_long_flow():
    """The PIAS effect: a long flow sinks to a lower level, so a newly
    arriving short flow jumps ahead of it."""
    scheduler = PieoScheduler(MultiLevelFeedbackQueue([2 * KB]))
    scheduler.add_flow(FlowQueue("elephant"))
    scheduler.add_flow(FlowQueue("mouse"))
    for _ in range(6):
        scheduler.on_arrival("elephant",
                             Packet("elephant", size_bytes=1500), 0.0)
    # Serve the elephant past its threshold.
    scheduler.schedule(0.0)
    scheduler.schedule(0.0)
    # A short flow arrives: level 0 vs the elephant's level 1.
    scheduler.on_arrival("mouse", Packet("mouse", size_bytes=500), 0.0)
    assert scheduler.schedule(0.0)[0].flow_id == "mouse"
    assert scheduler.schedule(0.0)[0].flow_id == "elephant"


def test_mlfq_short_flows_finish_faster_end_to_end():
    """Mean completion order: short flows (inserted late) still beat the
    long-running elephants — approximate SJF without size knowledge."""
    run = FlatRun(MultiLevelFeedbackQueue([5 * KB, 50 * KB]),
                  link_gbps=1.0)
    run.add_backlogged_flow(FlowQueue("elephant0"), depth=4)
    run.add_backlogged_flow(FlowQueue("elephant1"), depth=4)
    run.run(0.005)
    # Inject a 3-packet mouse mid-run.
    run.scheduler.add_flow(FlowQueue("mouse"))
    for _ in range(3):
        run.engine.arrival_sink("mouse", Packet("mouse",
                                                size_bytes=1000))
    run.run(0.01)
    mouse_departures = [d for d in run.engine.recorder.departures
                        if d.flow_id == "mouse"]
    assert len(mouse_departures) == 3
    # All three mouse packets leave within a few packet times of entry.
    assert mouse_departures[-1].time - 0.005 < 8 * 1500 * 8 / 1e9


def test_work_conserving_shares_bottom_level():
    """Two equally demoted elephants share the link round-robin."""
    run = FlatRun(MultiLevelFeedbackQueue([1 * KB]), link_gbps=1.0)
    run.add_backlogged_flow(FlowQueue("a"), depth=4)
    run.add_backlogged_flow(FlowQueue("b"), depth=4)
    run.run(0.01)
    rates = run.rates(start=0.002, end=0.01)
    assert rates["a"] == pytest.approx(rates["b"], rel=0.05)
    assert run.link.busy_time / 0.01 > 0.95

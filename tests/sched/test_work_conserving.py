"""End-to-end tests for the work-conserving algorithms (Section 4.1):
DRR, WFQ, WF2Q+, SFQ."""

import pytest

from repro.analysis.fairness import jains_index
from repro.core.pieo import PieoHardwareList
from repro.sched import (DeficitRoundRobin, StochasticFairnessQueuing,
                         WF2Qplus, WeightedFairQueuing)
from repro.sim.flow import FlowQueue

from tests.scenarios import FlatRun

MEASURE_START = 0.002
DURATION = 0.02


def fair_share_case(algorithm, weights, tolerance=0.05,
                    ordered_list=None, depth=8):
    run = FlatRun(algorithm, link_gbps=10.0, ordered_list=ordered_list)
    for name, weight in weights.items():
        run.add_backlogged_flow(FlowQueue(name, weight=weight),
                                depth=depth)
    run.run(DURATION)
    rates = run.rates(start=MEASURE_START, end=DURATION)
    total_weight = sum(weights.values())
    for name, weight in weights.items():
        expected = 10e9 * weight / total_weight
        assert rates[name] == pytest.approx(expected, rel=tolerance), name
    assert sum(rates.values()) == pytest.approx(10e9, rel=0.02)
    return rates


# ---------------------------------------------------------------------
# DRR
# ---------------------------------------------------------------------
def test_drr_equal_weights_equal_shares():
    fair_share_case(DeficitRoundRobin(), {"a": 1, "b": 1, "c": 1})


def test_drr_weighted_shares():
    fair_share_case(DeficitRoundRobin(), {"a": 1, "b": 2, "c": 3})


def test_drr_is_work_conserving():
    run = FlatRun(DeficitRoundRobin(), link_gbps=10.0)
    run.add_backlogged_flow(FlowQueue("only"))
    run.run(DURATION)
    assert run.link.busy_time / DURATION > 0.99


def test_drr_handles_mixed_packet_sizes():
    """Byte-level (not packet-level) fairness is DRR's whole point."""
    run = FlatRun(DeficitRoundRobin(), link_gbps=10.0)
    run.add_backlogged_flow(FlowQueue("small"), size_bytes=300, depth=10)
    run.add_backlogged_flow(FlowQueue("large"), size_bytes=1500, depth=10)
    run.run(DURATION)
    rates = run.rates(start=MEASURE_START, end=DURATION)
    assert rates["small"] == pytest.approx(rates["large"], rel=0.1)


def test_drr_deficit_carries_over():
    """A flow whose packet exceeds one quantum must wait extra rounds but
    still get its share."""
    run = FlatRun(DeficitRoundRobin(quantum_bytes=500), link_gbps=10.0)
    run.add_backlogged_flow(FlowQueue("a"), size_bytes=1500)
    run.add_backlogged_flow(FlowQueue("b"), size_bytes=1500)
    run.run(DURATION)
    rates = run.rates(start=MEASURE_START, end=DURATION)
    assert rates["a"] == pytest.approx(rates["b"], rel=0.05)


def test_drr_validation():
    with pytest.raises(ValueError):
        DeficitRoundRobin(quantum_bytes=0)


# ---------------------------------------------------------------------
# WFQ
# ---------------------------------------------------------------------
def test_wfq_equal_weights_equal_shares():
    fair_share_case(WeightedFairQueuing(), {"a": 1, "b": 1, "c": 1, "d": 1})


def test_wfq_weighted_shares():
    fair_share_case(WeightedFairQueuing(), {"a": 1, "b": 4})


def test_wfq_on_hardware_list():
    fair_share_case(WeightedFairQueuing(), {"a": 1, "b": 2},
                    ordered_list=PieoHardwareList(64, self_check=True))


# ---------------------------------------------------------------------
# WF2Q+
# ---------------------------------------------------------------------
def test_wf2q_equal_weights_equal_shares():
    fair_share_case(WF2Qplus(), {"a": 1, "b": 1, "c": 1})


def test_wf2q_weighted_shares():
    fair_share_case(WF2Qplus(), {"a": 1, "b": 2, "c": 3})


def test_wf2q_on_hardware_list():
    fair_share_case(WF2Qplus(), {"a": 2, "b": 3},
                    ordered_list=PieoHardwareList(64, self_check=True))


def test_wf2q_interleaves_at_packet_timescale():
    """WF2Q+'s worst-case fairness: equal-weight flows alternate almost
    perfectly packet by packet (the property plain WFQ lacks)."""
    run = FlatRun(WF2Qplus(), link_gbps=10.0)
    run.add_backlogged_flow(FlowQueue("a"))
    run.add_backlogged_flow(FlowQueue("b"))
    run.run(0.002)
    order = run.engine.recorder.order()
    longest_run = 1
    current = 1
    for before, after in zip(order, order[1:]):
        current = current + 1 if before == after else 1
        longest_run = max(longest_run, current)
    assert longest_run <= 2


def test_wf2q_virtual_time_monotone():
    run = FlatRun(WF2Qplus(), link_gbps=10.0)
    run.add_backlogged_flow(FlowQueue("a"))
    run.add_backlogged_flow(FlowQueue("b"))
    last = 0.0
    for _ in range(50):
        run.sim.run_until(run.sim.now + 1e-5)
        current = run.scheduler.state.get("virtual_time", 0.0)
        assert current >= last
        last = current


def test_wf2q_idle_flow_does_not_bank_credit():
    """A flow idle for a while must not starve others on return (the
    max(finish, V) clamp)."""
    run = FlatRun(WF2Qplus(), link_gbps=10.0)
    run.add_backlogged_flow(FlowQueue("steady"))
    run.add_backlogged_flow(FlowQueue("late"), start=0.01)
    run.run(0.03)
    late_rates = run.engine.recorder.rate_bps(start=0.012, end=0.03)
    assert late_rates["late"] == pytest.approx(5e9, rel=0.05)
    assert late_rates["steady"] == pytest.approx(5e9, rel=0.05)


# ---------------------------------------------------------------------
# SFQ
# ---------------------------------------------------------------------
def test_sfq_no_collisions_is_fair():
    """With enough buckets (no collisions, checked), SFQ behaves like
    round-robin fair queuing."""
    algorithm = StochasticFairnessQueuing(num_buckets=64)
    names = ["a", "b", "c", "d"]
    buckets = {algorithm.bucket_of(name) for name in names}
    if len(buckets) == len(names):
        fair_share_case(algorithm, {name: 1 for name in names},
                        tolerance=0.1)
    else:  # hash collision with this interpreter's seed: skip silently
        pytest.skip("hash collision in chosen bucket count")


def test_sfq_colliding_flows_share_one_bucket():
    algorithm = StochasticFairnessQueuing(num_buckets=1)
    run = FlatRun(algorithm, link_gbps=10.0)
    run.add_backlogged_flow(FlowQueue("x"))
    run.add_backlogged_flow(FlowQueue("y"))
    run.run(DURATION)
    rates = run.rates(start=MEASURE_START, end=DURATION)
    # Both flows collide into the single bucket and split it evenly.
    assert rates["x"] == pytest.approx(rates["y"], rel=0.1)
    assert sum(rates.values()) == pytest.approx(10e9, rel=0.02)


def test_sfq_many_flows_reasonable_fairness():
    algorithm = StochasticFairnessQueuing(num_buckets=32)
    run = FlatRun(algorithm, link_gbps=10.0)
    names = [f"f{i}" for i in range(8)]
    for name in names:
        run.add_backlogged_flow(FlowQueue(name))
    run.run(DURATION)
    rates = run.rates(start=MEASURE_START, end=DURATION)
    assert jains_index(list(rates.values())) > 0.85


def test_sfq_validation():
    with pytest.raises(ValueError):
        StochasticFairnessQueuing(num_buckets=0)

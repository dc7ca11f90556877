"""Integration: the Section 6.3 evaluation scenario end to end — the
exact topology of the paper (10 nodes x 10 flows, 40 Gbps link, MTU
granularity, Token Bucket rate limits + WF2Q+ fair queuing)."""

import pytest

from repro.analysis.fairness import jains_index
from repro.experiments.hier_common import (default_node_rates, node_of,
                                           run_hierarchy)


@pytest.fixture(scope="module")
def paper_run():
    return run_hierarchy(default_node_rates(), duration=0.02)


def test_all_hundred_flows_transmit(paper_run):
    assert len(paper_run.flow_rates_bps) == 100


def test_rate_limits_enforced_accurately(paper_run):
    """Fig. 11: achieved node rate tracks the configured limit."""
    targets = {f"n{index}": rate * 1e9
               for index, rate in enumerate(default_node_rates())}
    for node_id, target in targets.items():
        assert paper_run.node_rates_bps[node_id] == pytest.approx(
            target, rel=0.02)


def test_fair_queueing_within_every_node(paper_run):
    """Fig. 12: each node's ten flows split its limit evenly."""
    for node_index in range(10):
        rates = [rate for flow_id, rate
                 in paper_run.flow_rates_bps.items()
                 if node_of(flow_id) == f"n{node_index}"]
        assert len(rates) == 10
        assert jains_index(rates) > 0.999
        expected = default_node_rates()[node_index] * 1e9 / 10
        assert min(rates) == pytest.approx(expected, rel=0.05)
        assert max(rates) == pytest.approx(expected, rel=0.05)


def test_link_not_saturated(paper_run):
    """Shaping sums to 30.5 of 40 Gbps; the link must idle, proving the
    non-work-conserving behaviour."""
    total = sum(paper_run.node_rates_bps.values())
    assert total == pytest.approx(sum(default_node_rates()) * 1e9,
                                  rel=0.02)
    assert total < 0.9 * 40e9


def test_pacing_is_smooth(paper_run):
    """Rate-limit enforcement holds at fine timescales too (packet
    pacing, not just long-run averages): per-1ms buckets stay within a
    few percent of the configured node rate."""
    series = paper_run.engine.recorder.rate_timeseries(
        bucket_seconds=1e-3, key=node_of)
    for index, rate_gbps in enumerate(default_node_rates()):
        buckets = series[f"n{index}"][2:-1]  # skip warmup + partial tail
        for bucket_rate in buckets:
            assert bucket_rate == pytest.approx(rate_gbps * 1e9, rel=0.1)

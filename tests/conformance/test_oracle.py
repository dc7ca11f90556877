"""Unit tests for the GPS fluid oracle and token-bucket reconstruction.

Every expectation here is a hand calculation on a workload small enough
to integrate on paper; the oracle must reproduce it exactly (to float
tolerance), since the conformance checkers inherit its precision.
"""

import pytest

from repro.conformance.oracle import (gps_finish_times,
                                      token_bucket_violations)

R = 1e9  # 1 Gbps link for round serialization numbers
US = 1e-6


def bits(nbytes):
    return nbytes * 8


def test_single_flow_serializes_sequentially():
    # One flow owns the link: fluid service is the link rate, so each
    # packet finishes one serialization after the previous.
    arrivals = [(0.0, "a", 1500), (0.0, "a", 1500), (0.0, "a", 500)]
    result = gps_finish_times(arrivals, {"a": 1.0}, R)
    assert result.finish_times == pytest.approx(
        [12 * US, 24 * US, 28 * US])
    assert result.busy_until == pytest.approx(28 * US)


def test_two_equal_flows_share_the_link():
    # Both flows backlogged with equal weights: each is served at R/2,
    # so a 1500 B packet needs 24 us of wall time.
    arrivals = [(0.0, "a", 1500), (0.0, "b", 1500)]
    result = gps_finish_times(arrivals, {"a": 1.0, "b": 1.0}, R)
    assert result.finish_times == pytest.approx([24 * US, 24 * US])


def test_weighted_split_two_to_one():
    # w_a : w_b = 2 : 1 -> a at 2R/3, b at R/3 while both backlogged.
    # a's 1500 B at 2R/3 finishes at 18 us; b still has 1500 B - R/3 *
    # 18us = 750 B left and then owns the link: 18us + 6us = 24 us.
    arrivals = [(0.0, "a", 1500), (0.0, "b", 1500)]
    result = gps_finish_times(arrivals, {"a": 2.0, "b": 1.0}, R)
    assert result.finish_times == pytest.approx([18 * US, 24 * US])


def test_late_arrival_joins_midway():
    # a alone until t=6us (half of its 1500 B done), then b joins with
    # 750 B at equal weight: both drain at R/2.  a's remaining 750 B
    # takes 12 us -> finishes 18 us; b's 750 B likewise -> 18 us.
    arrivals = [(0.0, "a", 1500), (6 * US, "b", 750)]
    result = gps_finish_times(arrivals, {"a": 1.0, "b": 1.0}, R)
    assert result.finish_times == pytest.approx([18 * US, 18 * US])


def test_idle_gap_resets_busy_period():
    # Second packet arrives after the fluid system drained: it is
    # served alone starting at its own arrival.
    arrivals = [(0.0, "a", 1500), (100 * US, "a", 1500)]
    result = gps_finish_times(arrivals, {"a": 1.0}, R)
    assert result.finish_times == pytest.approx([12 * US, 112 * US])


def test_per_flow_fifo_within_oracle():
    # A flow's second packet cannot finish before its first even if
    # tiny: finish times per flow are monotone.
    arrivals = [(0.0, "a", 1500), (0.0, "b", 1500), (1 * US, "a", 50)]
    result = gps_finish_times(arrivals, {"a": 1.0, "b": 1.0}, R)
    a_first, a_second = result.finish_times[0], result.finish_times[2]
    assert a_second > a_first


def test_finish_tags_monotone_per_flow():
    arrivals = [(0.0, "a", 1500), (0.0, "a", 500), (5 * US, "a", 1000)]
    result = gps_finish_times(arrivals, {"a": 1.0}, R)
    assert (result.finish_tags[0] < result.finish_tags[1]
            < result.finish_tags[2])


def test_oracle_handles_empty_arrivals():
    result = gps_finish_times([], {"a": 1.0}, R)
    assert result.finish_times == []
    assert result.busy_until == 0.0


def test_oracle_time_scale_invariance():
    arrivals = [(0.0, "a", 1500), (3 * US, "b", 700), (9 * US, "a", 500)]
    weights = {"a": 2.0, "b": 1.0}
    base = gps_finish_times(arrivals, weights, R)
    k = 7.0
    scaled = gps_finish_times(
        [(t * k, f, s) for t, f, s in arrivals], weights, R / k)
    assert scaled.finish_times == pytest.approx(
        [t * k for t in base.finish_times])


# ----------------------------------------------------------------------
# Token-bucket reconstruction
# ----------------------------------------------------------------------
def test_token_bucket_conformant_stream_clean():
    # rate 1e6 B/s (8 Mbps), burst 3000 B: a full-burst release then
    # steady packets at exactly the token rate is conformant.
    rate_bps, burst = 8e6, 3000.0
    deps = [(0.0, 1500, 1), (0.0, 1500, 2)]
    t = 1500 / 1e6  # one packet's accrual
    for pid in range(3, 8):
        deps.append((t * (pid - 2), 1500, pid))
    assert token_bucket_violations(deps, rate_bps, burst) == []


def test_token_bucket_overdraw_flagged_with_deficit():
    rate_bps, burst = 8e6, 3000.0
    # Third packet exceeds burst before any meaningful accrual.
    deps = [(0.0, 1500, 1), (0.0, 1500, 2), (1e-6, 1500, 3)]
    findings = token_bucket_violations(deps, rate_bps, burst)
    assert len(findings) == 1
    assert findings[0].packet_id == 3
    # deficit = 1500 - rate * 1us = 1500 - 1 = 1499 bytes
    assert findings[0].deficit_bytes == pytest.approx(1499.0)


def test_token_bucket_accrual_is_capped_at_burst():
    rate_bps, burst = 8e6, 3000.0
    # A long idle cannot bank more than one burst.
    deps = [(10.0, 1500, 1), (10.0, 1500, 2), (10.0, 1500, 3)]
    findings = token_bucket_violations(deps, rate_bps, burst,
                                       start_time=0.0)
    assert len(findings) == 1
    assert findings[0].deficit_bytes == pytest.approx(1500.0)


def test_token_bucket_start_time_is_upper_bound():
    # Starting the bucket full at the first departure itself can only
    # be more permissive than any earlier origin.
    rate_bps, burst = 8e6, 1500.0
    deps = [(5.0, 1500, 1), (5.0 + 1500 / 1e6, 1500, 2)]
    assert token_bucket_violations(deps, rate_bps, burst) == []

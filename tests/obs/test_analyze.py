"""Trace-analysis unit tests: run splitting, timeline reconstruction,
latency attribution, per-flow reports, audits, cost attribution."""

import math

import pytest

from repro.obs import TraceAnalysis, Tracer, split_runs
from repro.obs.analyze import Episode, default_parent_of, exact_quantile


def _wall_trace():
    """One packet through a WALL-base (token-bucket style) list:
    ineligible from enqueue t=0 until t=3, dequeued at t=5, serialized
    over [5, 6]."""
    tracer = Tracer()
    tracer.arrival(0.0, "f0", 1500, packet_id=1)
    tracer.enqueue(0.0, "f0", rank=0.0, send_time=3.0, eligible=False)
    tracer.dequeue(5.0, "f0", rank=0.0, send_time=3.0, eligible_at=3.0)
    tracer.departure(5.0, "f0", 1500, packet_id=1, finish=6.0)
    return tracer.events


def test_split_runs_segments_on_marks():
    tracer = Tracer()
    tracer.kick(0.0)
    tracer.mark(1.0, "sweep", target=4.0)
    tracer.kick(0.0)
    tracer.kick(0.5)
    tracer.mark(0.5, "sweep", target=8.0)
    tracer.kick(0.0)
    runs = split_runs(tracer.events)
    assert [run.label for run in runs] == [None, "sweep", "sweep"]
    assert [len(run.events) for run in runs] == [1, 2, 1]
    assert runs[1].fields == {"target": 4.0}
    assert "target=4.0" in runs[1].title


def test_wall_base_attribution_sums_exactly():
    analysis = TraceAnalysis(_wall_trace())
    (timeline,) = analysis.timelines
    assert timeline.delivered
    assert timeline.latency == pytest.approx(6.0)
    assert timeline.eligibility_wait == pytest.approx(3.0)
    assert timeline.serialization == pytest.approx(1.0)
    assert timeline.queueing_wait == pytest.approx(2.0)
    assert timeline.eligibility_exact
    assert (timeline.queueing_wait + timeline.eligibility_wait
            + timeline.serialization) == pytest.approx(timeline.latency)
    assert not analysis.errors


def test_eligible_on_enqueue_has_no_eligibility_wait():
    tracer = Tracer()
    tracer.arrival(0.0, "f0", 1500, packet_id=1)
    tracer.enqueue(0.0, "f0", rank=0.0, send_time=0.0, eligible=True)
    tracer.dequeue(2.0, "f0", rank=0.0, send_time=0.0, eligible_at=0.0)
    tracer.departure(2.0, "f0", 1500, packet_id=1, finish=2.5)
    (timeline,) = TraceAnalysis(tracer.events).timelines
    assert timeline.eligibility_wait == 0.0
    assert timeline.queueing_wait == pytest.approx(2.0)


def test_ancestor_ineligibility_counts_toward_leaf_packets():
    """A token-bucket-limited node ("n0") shapes the leaf packet even
    though the leaf's own element was always eligible."""
    tracer = Tracer()
    tracer.arrival(0.0, "n0.f0", 1500, packet_id=1)
    tracer.enqueue(0.0, "n0.f0", rank=0.0, send_time=0.0, eligible=True)
    tracer.enqueue(0.0, "n0", rank=0.0, send_time=4.0, eligible=False)
    tracer.dequeue(4.0, "n0", rank=0.0, send_time=4.0, eligible_at=4.0)
    tracer.dequeue(4.0, "n0.f0", rank=0.0, send_time=0.0,
                   eligible_at=0.0)
    tracer.departure(4.0, "n0.f0", 1500, packet_id=1, finish=4.5)
    (timeline,) = TraceAnalysis(tracer.events).timelines
    assert timeline.eligibility_wait == pytest.approx(4.0)
    assert timeline.queueing_wait == pytest.approx(0.0)


def test_overlapping_ineligible_intervals_not_double_counted():
    """Leaf ineligible over [0, 3] and its node over [1, 4]: the union
    is 4 seconds, not 7."""
    tracer = Tracer()
    tracer.arrival(0.0, "n0.f0", 1500, packet_id=1)
    tracer.enqueue(0.0, "n0.f0", rank=0.0, send_time=3.0,
                   eligible=False)
    tracer.enqueue(1.0, "n0", rank=0.0, send_time=4.0, eligible=False)
    tracer.dequeue(5.0, "n0", rank=0.0, send_time=4.0, eligible_at=4.0)
    tracer.dequeue(5.0, "n0.f0", rank=0.0, send_time=3.0,
                   eligible_at=3.0)
    tracer.departure(5.0, "n0.f0", 1500, packet_id=1, finish=5.5)
    (timeline,) = TraceAnalysis(tracer.events).timelines
    assert timeline.eligibility_wait == pytest.approx(4.0)
    assert timeline.queueing_wait == pytest.approx(1.0)


def test_virtual_base_attribution_is_conservative_and_flagged():
    """No eligible_at (virtual time base): the whole residence bounds
    the eligibility wait and the packet is flagged inexact."""
    tracer = Tracer()
    tracer.arrival(0.0, "f0", 1500, packet_id=1)
    tracer.enqueue(0.0, "f0", rank=1.0, send_time=2.0, eligible=False)
    tracer.dequeue(3.0, "f0", rank=1.0, send_time=2.0)
    tracer.departure(3.0, "f0", 1500, packet_id=1, finish=3.5)
    (timeline,) = TraceAnalysis(tracer.events).timelines
    assert not timeline.eligibility_exact
    assert timeline.eligibility_wait == pytest.approx(3.0)
    assert timeline.queueing_wait == pytest.approx(0.0)
    assert (timeline.queueing_wait + timeline.eligibility_wait
            + timeline.serialization) == pytest.approx(timeline.latency)


def test_episode_ineligible_interval_clamps_to_residence():
    episode = Episode(flow_id="f0", enqueue_t=1.0, dequeue_t=5.0,
                      eligible_on_enqueue=False, eligible_at=9.0)
    start, end, exact = episode.ineligible_interval()
    assert (start, end, exact) == (1.0, 5.0, True)
    assert Episode(flow_id="f0", enqueue_t=1.0, dequeue_t=5.0,
                   eligible_on_enqueue=True).ineligible_interval() is None


def test_drop_recorded_on_timeline():
    tracer = Tracer()
    tracer.arrival(0.0, "f0", 1500, packet_id=1)
    tracer.drop(0.5, "f0", reason="capacity", packet_id=1)
    (timeline,) = TraceAnalysis(tracer.events).timelines
    assert timeline.dropped and not timeline.delivered
    assert timeline.drop_t == 0.5 and timeline.drop_reason == "capacity"


def test_flow_reports_percentiles_and_throughput():
    tracer = Tracer()
    for index, latency in enumerate((1.0, 2.0, 3.0, 4.0)):
        tracer.arrival(float(index * 10), "f0", 1000, packet_id=index)
        tracer.departure(index * 10 + latency - 0.5, "f0", 1000,
                         packet_id=index, finish=index * 10 + latency)
    analysis = TraceAnalysis(tracer.events)
    report = analysis.flows()["f0"]
    assert report.packets == 4
    assert report.p50 == pytest.approx(2.0)
    assert report.p99 == pytest.approx(4.0)
    assert report.mean_latency == pytest.approx(2.5)
    span = analysis.t_max - analysis.t_min
    assert report.throughput_bps == pytest.approx(4 * 1000 * 8 / span)
    assert (report.mean_queueing + report.mean_eligibility
            + report.mean_serialization) == pytest.approx(
                report.mean_latency)


def test_exact_quantile_nearest_rank():
    samples = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert exact_quantile(samples, 0.0) == 1.0
    assert exact_quantile(samples, 0.5) == 3.0
    assert exact_quantile(samples, 1.0) == 5.0
    assert exact_quantile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        exact_quantile(samples, 1.5)


def test_audit_flags_departure_without_arrival():
    tracer = Tracer()
    tracer.departure(1.0, "f0", 1500, packet_id=7, finish=1.5,
                     arrival_t=0.25)
    analysis = TraceAnalysis(tracer.events)
    assert any("without a matching arrival" in issue.message
               for issue in analysis.errors)
    # The stamped arrival_t still allows attribution.
    (timeline,) = analysis.timelines
    assert timeline.latency == pytest.approx(1.25)


def test_audit_flags_conservation_violation():
    tracer = Tracer()
    tracer.arrival(0.0, "f0", 1500, packet_id=1)
    tracer.departure(1.0, "f0", 1500, packet_id=1, finish=1.5)
    tracer.departure(2.0, "f0", 1500, packet_id=2, finish=2.5)
    analysis = TraceAnalysis(tracer.events)
    assert any("conservation" in issue.message
               for issue in analysis.errors)


def test_audit_flags_fifo_violation():
    tracer = Tracer()
    tracer.arrival(0.0, "f0", 1500, packet_id=1)
    tracer.arrival(0.1, "f0", 1500, packet_id=2)
    tracer.departure(1.0, "f0", 1500, packet_id=2, finish=1.5)
    tracer.departure(1.5, "f0", 1500, packet_id=1, finish=2.0)
    analysis = TraceAnalysis(tracer.events)
    assert any("FIFO" in issue.message for issue in analysis.errors)


def test_audit_flags_link_overlap():
    tracer = Tracer()
    tracer.arrival(0.0, "f0", 1500, packet_id=1)
    tracer.arrival(0.0, "f1", 1500, packet_id=2)
    tracer.departure(1.0, "f0", 1500, packet_id=1, finish=2.0)
    tracer.departure(1.5, "f1", 1500, packet_id=2, finish=2.5)
    analysis = TraceAnalysis(tracer.events)
    assert any("serializing" in issue.message
               for issue in analysis.errors)


def test_audit_flags_time_going_backwards():
    events = [{"t": 1.0, "kind": "kick"}, {"t": 0.0, "kind": "kick"}]
    analysis = TraceAnalysis(events)
    assert any("went backwards" in issue.message
               for issue in analysis.errors)


def test_clean_trace_audits_clean():
    analysis = TraceAnalysis(_wall_trace())
    assert analysis.errors == []
    assert not any(issue.severity == "error"
                   for issue in analysis.audit())


def test_starvation_detector():
    tracer = Tracer()
    tracer.arrival(0.0, "f0", 1500, packet_id=1)
    tracer.arrival(0.0, "f1", 1500, packet_id=2)
    tracer.enqueue(0.0, "f0", rank=0.0, send_time=0.0, eligible=True)
    tracer.dequeue(0.1, "f0", rank=0.0, eligible_at=0.0)
    tracer.departure(0.1, "f0", 1500, packet_id=1, finish=0.2)
    # f1 stays backlogged, unserved until t=10.
    tracer.enqueue(0.0, "f1", rank=1.0, send_time=0.0, eligible=True)
    tracer.dequeue(10.0, "f1", rank=1.0, eligible_at=0.0)
    tracer.departure(10.0, "f1", 1500, packet_id=2, finish=10.1)
    analysis = TraceAnalysis(tracer.events)
    starved = analysis.starved_flows(threshold=5.0)
    assert [flow_id for flow_id, _, _ in starved] == ["f1"]
    assert analysis.flows(starvation_threshold=5.0)["f1"].starved
    assert not analysis.flows(starvation_threshold=5.0)["f0"].starved


def test_cost_attribution_is_op_proportional():
    tracer = Tracer()
    for _ in range(3):
        tracer.enqueue(0.0, "f0", rank=0.0, send_time=0.0)
        tracer.dequeue(0.0, "f0", rank=0.0)
    tracer.enqueue(0.0, "f1", rank=0.0, send_time=0.0)
    tracer.dequeue(0.0, "f1", rank=0.0)
    analysis = TraceAnalysis(tracer.events)
    attribution = analysis.cost_attribution({"cycles": 800})
    assert attribution["f0"]["ops"] == 6
    assert attribution["f0"]["cycles"] == pytest.approx(600.0)
    assert attribution["f1"]["cycles"] == pytest.approx(200.0)
    total = sum(share["cycles"] for share in attribution.values())
    assert total == pytest.approx(800.0)


def test_default_parent_of_convention():
    assert default_parent_of("n6.f2") == "n6"
    assert default_parent_of("n6") is None
    assert default_parent_of(42) is None


def test_analysis_accepts_revived_non_finite_fields():
    events = [
        {"t": 0.0, "kind": "arrival", "flow_id": "f0",
         "size_bytes": 1500, "packet_id": 1},
        {"t": 0.0, "kind": "enqueue", "flow_id": "f0", "rank": 0.0,
         "send_time": math.inf, "eligible": False},
        {"t": 1.0, "kind": "dequeue", "flow_id": "f0", "rank": 0.0,
         "send_time": math.inf, "eligible_at": 0.5},
        {"t": 1.0, "kind": "departure", "flow_id": "f0",
         "size_bytes": 1500, "packet_id": 1, "finish": 1.5},
    ]
    (timeline,) = TraceAnalysis(events).timelines
    assert timeline.eligibility_wait == pytest.approx(0.5)

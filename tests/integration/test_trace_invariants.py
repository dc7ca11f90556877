"""Trace-level invariants over the paper's Fig. 11 / Fig. 12 workloads.

These run the real Section 6.3 hierarchy with the tracer and metrics
attached and then check *physics*, not point values:

* conservation — every packet that arrived either departed, was
  dropped, or is still backlogged when the simulation stops;
* the shared queue-depth gauge never dips below zero (a negative
  watermark would mean a dequeue event was emitted for an element that
  was never enqueued);
* engine retry timers pair up exactly — each ``timer_arm`` in the
  ``engine.retry`` scope is consumed by exactly one ``timer_fire`` or
  ``timer_cancel`` (at most one may still be pending at shutdown),
  and they are the only timers in the trace.
"""

from collections import Counter as TallyCounter

import pytest

from repro.experiments.hier_common import default_node_rates, run_hierarchy
from repro.obs import MetricsRegistry, Tracer

# Short simulated windows keep each traced run under ~0.5 s of wall
# clock while still producing thousands of events.
DURATION = 0.002


@pytest.fixture(scope="module")
def fig11_run():
    """One traced Fig. 11-style run (per-node Token Bucket limits)."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    rates = default_node_rates()
    rates[3] = 4.0  # the sampled node's sweep point
    run = run_hierarchy(rates, duration=DURATION,
                        tracer=tracer, metrics=metrics)
    return run, tracer, metrics


@pytest.fixture(scope="module")
def fig12_run():
    """One traced Fig. 12-style run (weighted fair queuing)."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    run = run_hierarchy(default_node_rates(), duration=DURATION,
                        flow_weights=[1.0, 2.0],
                        tracer=tracer, metrics=metrics)
    return run, tracer, metrics


def _conservation(tracer, metrics):
    arrivals = tracer.counts.get("arrival", 0)
    departures = tracer.counts.get("departure", 0)
    drops = tracer.counts.get("drop", 0)
    backlog = metrics.gauge("engine.backlog_pkts").value
    assert arrivals > 0 and departures > 0
    assert arrivals == departures + drops + backlog
    # The event stream and the counters must tell the same story.
    snapshot = metrics.to_dict()["counters"]
    assert snapshot["engine.arrivals"] == arrivals
    assert snapshot["engine.departures"] == departures


def _gauges_never_negative(metrics):
    for name, gauge in metrics.to_dict()["gauges"].items():
        assert gauge["min"] is None or gauge["min"] >= 0, (
            f"gauge {name} went negative: min={gauge['min']}")


def _timers_match(tracer):
    tallies = {}
    for event in tracer.events:
        if event.kind not in ("timer_arm", "timer_fire", "timer_cancel"):
            continue
        scope = event.fields["scope"]
        tallies.setdefault(scope, TallyCounter())[event.kind] += 1

    retry = tallies.get("engine.retry", TallyCounter())
    consumed = retry["timer_fire"] + retry["timer_cancel"]
    pending = retry["timer_arm"] - consumed
    assert 0 <= pending <= 1, (
        f"engine.retry timers leak: {retry['timer_arm']} armed, "
        f"{consumed} consumed")

    assert set(tallies) == {"engine.retry"}, sorted(tallies)

    # Per-id accounting: no retry timer fires or cancels twice.
    seen = TallyCounter()
    for event in tracer.events:
        if (event.kind in ("timer_fire", "timer_cancel")
                and event.fields["scope"] == "engine.retry"):
            timer_id = event.fields["id"]
            assert timer_id is not None
            seen[timer_id] += 1
    assert seen and all(count == 1 for count in seen.values())


def test_fig11_conservation(fig11_run):
    _, tracer, metrics = fig11_run
    _conservation(tracer, metrics)


def test_fig11_gauges_never_negative(fig11_run):
    _, _, metrics = fig11_run
    _gauges_never_negative(metrics)


def test_fig11_timer_lifecycle(fig11_run):
    _, tracer, _ = fig11_run
    _timers_match(tracer)


def test_fig11_departures_match_recorder(fig11_run):
    run, tracer, _ = fig11_run
    assert tracer.counts["departure"] == len(run.engine.recorder.departures)


def test_fig12_conservation(fig12_run):
    _, tracer, metrics = fig12_run
    _conservation(tracer, metrics)


def test_fig12_gauges_never_negative(fig12_run):
    _, _, metrics = fig12_run
    _gauges_never_negative(metrics)


def test_fig12_timer_lifecycle(fig12_run):
    _, tracer, _ = fig12_run
    _timers_match(tracer)


def test_traced_run_latency_histograms_populated(fig11_run):
    """The scheduling loop's wall-clock histogram actually observed
    work (it feeds the overhead benchmark and the DESIGN.md span
    story)."""
    _, _, metrics = fig11_run
    histograms = metrics.to_dict()["histograms"]
    schedule = histograms["engine.schedule_us"]
    assert schedule["count"] > 0
    assert schedule["mean"] > 0

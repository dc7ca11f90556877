"""Cross-validation: Recorder bookkeeping vs the trace.

The engine keeps a :class:`repro.sim.recorder.Recorder` and (when
observed) emits ``departure`` trace events for the same packets.  These
are two independent bookkeeping paths over one ground truth; this test
runs the Fig. 12 topology with both attached and asserts a Recorder
filled from the trace's ``departure`` events agrees with the live one
on order, per-flow bytes, and measured rates — so the two paths cannot
drift apart silently.
"""

import pytest

from repro.experiments.hier_common import (default_node_rates,
                                           run_hierarchy)
from repro.obs import TraceAnalysis, Tracer
from repro.sim.recorder import Recorder


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer()
    run = run_hierarchy(default_node_rates(), duration=0.002,
                        tracer=tracer)
    derived = Recorder()
    for event in tracer.events:
        if event.kind == "departure":
            fields = event.fields
            derived.record(event.time, fields["flow_id"],
                           fields["size_bytes"], fields["packet_id"])
    return run, TraceAnalysis(tracer.events), derived


def test_departure_order_matches(traced_run):
    run, _, derived = traced_run
    assert derived.order() == run.engine.recorder.order()
    assert len(derived.order()) > 0


def test_bytes_by_flow_matches(traced_run):
    run, _, derived = traced_run
    assert derived.bytes_by_flow() == run.engine.recorder.bytes_by_flow()


def test_rates_match_in_measurement_window(traced_run):
    run, _, derived = traced_run
    warmup = run.duration * 0.1
    live = run.engine.recorder.rate_bps(start=warmup, end=run.duration)
    rates = derived.rate_bps(start=warmup, end=run.duration)
    assert rates.keys() == live.keys()
    for flow_id, rate in live.items():
        assert rates[flow_id] == pytest.approx(rate)


def test_trace_audits_clean_on_real_run(traced_run):
    _, analysis, _ = traced_run
    assert analysis.errors == []


def test_attribution_sums_on_real_run(traced_run):
    _, analysis, _ = traced_run
    checked = 0
    for timeline in analysis.timelines:
        if not timeline.delivered:
            continue
        checked += 1
        assert (timeline.queueing_wait + timeline.eligibility_wait
                + timeline.serialization) == pytest.approx(
                    timeline.latency, abs=1e-9)
        assert timeline.queueing_wait >= 0
        assert timeline.eligibility_wait >= 0
    assert checked > 0

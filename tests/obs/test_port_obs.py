"""Per-port observability: labelled tracer views, scoped metrics
views, port-aware analysis/audits, and the per-port Perfetto split."""

import pytest

from repro.obs import MetricsRegistry, TraceAnalysis, Tracer
from repro.obs.export import perfetto_trace
from repro.obs.metrics import ScopedMetrics, scoped
from repro.obs.trace import LabelledTracer, labelled


# ----------------------------------------------------------------------
# LabelledTracer
# ----------------------------------------------------------------------
def test_labelled_tracer_stamps_every_event():
    tracer = Tracer()
    view = labelled(tracer, port="p0")
    view.arrival(0.0, "f0", 1500, packet_id=1)
    view.drop(1.0, "f0", reason="buffer:bytes")
    assert all(event.fields["port"] == "p0" for event in tracer.events)
    # Storage lives on the base: the view has no buffer of its own.
    assert view.events is tracer.events


def test_labelled_tracer_explicit_fields_win():
    tracer = Tracer()
    view = LabelledTracer(tracer, port="p0")
    view.emit(0.0, "mark", port="override", label="x")
    assert tracer.events[0].fields["port"] == "override"


def test_labelled_views_nest_inner_wins():
    tracer = Tracer()
    inner = labelled(labelled(tracer, port="outer"), port="inner")
    inner.kick(0.0)
    assert tracer.events[0].fields["port"] == "inner"


def test_labelled_passthrough_identities():
    """None and empty labels pass through unchanged, so an untraced
    port's components still see None."""
    assert labelled(None, port="p0") is None
    tracer = Tracer()
    assert labelled(tracer) is tracer


# ----------------------------------------------------------------------
# ScopedMetrics
# ----------------------------------------------------------------------
def test_scoped_metrics_prefixes_names():
    registry = MetricsRegistry()
    view = scoped(registry, "port.p0")
    view.counter("engine.arrivals").inc()
    view.gauge("sched.queue_depth").set(3)
    snapshot = registry.to_dict()
    assert snapshot["counters"]["port.p0.engine.arrivals"] == 1
    assert snapshot["gauges"]["port.p0.sched.queue_depth"][
        "value"] == 3


def test_scoped_metrics_nest_outer_first():
    registry = MetricsRegistry()
    view = ScopedMetrics(ScopedMetrics(registry, "port.p1"), "engine")
    view.counter("departures").inc(2)
    assert registry.to_dict()["counters"][
        "port.p1.engine.departures"] == 2


def test_scoped_rejects_empty_prefix():
    with pytest.raises(ValueError):
        ScopedMetrics(MetricsRegistry(), "")


def test_scoped_passthrough_identities():
    assert scoped(None, "port.p0") is None


def test_scoped_counters_share_the_base_registry():
    """Two ports scoped over one registry produce disjoint series that
    aggregate in one snapshot — the per-port Prometheus contract."""
    registry = MetricsRegistry()
    for port in ("p0", "p1"):
        scoped(registry, f"port.{port}").counter("drops").inc()
    counters = registry.to_dict()["counters"]
    assert counters["port.p0.drops"] == 1
    assert counters["port.p1.drops"] == 1


# ----------------------------------------------------------------------
# Port-aware analysis
# ----------------------------------------------------------------------
def _two_port_trace():
    """One delivered packet on p0, one dropped arrival on p1, one
    unlabelled kick."""
    tracer = Tracer()
    p0 = labelled(tracer, port="p0")
    p1 = labelled(tracer, port="p1")
    p0.arrival(0.0, "f0", 1500, packet_id=1)
    p0.enqueue(0.0, "f0", rank=0.0, send_time=0.0, eligible=True)
    p0.dequeue(1.0, "f0", rank=0.0, send_time=0.0, eligible_at=0.0)
    p0.departure(1.0, "f0", 1500, packet_id=1, finish=2.0)
    p1.arrival(0.5, "g0", 1500, packet_id=2)
    p1.drop(0.5, "g0", reason="buffer:bytes", packet_id=2)
    tracer.kick(0.2)
    return tracer


def test_port_summary_splits_by_label():
    summary = TraceAnalysis(_two_port_trace().events).port_summary()
    assert set(summary) == {"p0", "p1"}
    assert summary["p0"]["arrivals"] == 1
    assert summary["p0"]["delivered"] == 1
    assert summary["p0"]["drops"] == 0
    assert summary["p1"]["drops"] == 1
    assert summary["p1"]["drop_reasons"] == {"buffer:bytes": 1}


def test_port_summary_unlabelled_trace_uses_none_bucket():
    tracer = Tracer()
    tracer.arrival(0.0, "f0", 1500, packet_id=1)
    tracer.departure(1.0, "f0", 1500, packet_id=1, finish=2.0)
    summary = TraceAnalysis(tracer.events).port_summary()
    assert set(summary) == {None}
    assert summary[None]["delivered"] == 1


def _departure(view, t, flow_id, packet_id, finish):
    view.arrival(t, flow_id, 1500, packet_id=packet_id)
    view.departure(t, flow_id, 1500, packet_id=packet_id,
                   finish=finish)


def test_cross_port_departure_overlap_is_legitimate():
    """Two links serialize concurrently in wall time — the link-overlap
    audit must not flag windows from different ports."""
    tracer = Tracer()
    _departure(labelled(tracer, port="p0"), 0.0, "f0", 1, 1.0)
    _departure(labelled(tracer, port="p1"), 0.5, "g0", 2, 1.5)
    analysis = TraceAnalysis(tracer.events)
    assert not [issue for issue in analysis.audit()
                if "serializing" in issue.message]


def test_same_port_departure_overlap_is_an_error():
    tracer = Tracer()
    view = labelled(tracer, port="p0")
    _departure(view, 0.0, "f0", 1, 1.0)
    _departure(view, 0.5, "f1", 2, 1.5)  # starts mid-serialization
    analysis = TraceAnalysis(tracer.events)
    errors = [issue for issue in analysis.errors
              if "serializing" in issue.message]
    assert len(errors) == 1
    assert "port p0" in errors[0].message


# ----------------------------------------------------------------------
# Perfetto export
# ----------------------------------------------------------------------
def _pids(trace):
    metadata = [event for event in trace["traceEvents"]
                if event.get("name") == "process_name"]
    return {event["args"]["name"]: event["pid"] for event in metadata}


def test_perfetto_multi_port_trace_gets_one_pid_per_port():
    trace = perfetto_trace(TraceAnalysis(_two_port_trace().events))
    names = _pids(trace)
    port_names = {name for name in names if "[port" in name}
    assert {"pieo-sim [port p0]", "pieo-sim [port p1]"} <= port_names
    assert len({names[name] for name in names}) == len(names)


def test_perfetto_unlabelled_trace_keeps_single_pid():
    tracer = Tracer()
    _departure(tracer, 0.0, "f0", 1, 1.0)
    trace = perfetto_trace(TraceAnalysis(tracer.events))
    assert set(_pids(trace).values()) == {1}
    assert all(event["pid"] == 1 for event in trace["traceEvents"])

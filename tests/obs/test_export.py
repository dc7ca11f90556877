"""Exporter tests: Prometheus text exposition, Perfetto trace JSON."""

import json
import math
from collections import defaultdict

import pytest

from repro.obs import (MetricsRegistry, TraceAnalysis, Tracer,
                       perfetto_trace, prometheus_from_snapshot,
                       write_perfetto)


def _registry():
    registry = MetricsRegistry()
    registry.counter("engine.arrivals").inc(5)
    registry.gauge("engine.backlog_pkts").set(3)
    histogram = registry.histogram("engine.batch", buckets=(1, 2, 4))
    for value in (1, 2, 3, 100):
        histogram.observe(value)
    log_histogram = registry.log_histogram("sched.latency_us",
                                           min_value=1.0, max_value=1e3)
    for value in (0.5, 10.0, 5000.0):
        log_histogram.observe(value)
    return registry


def _parse_prometheus(text):
    types, samples = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            types[name] = kind
        elif line:
            name, value = line.rsplit(" ", 1)
            samples[name] = value
    return types, samples


def test_prometheus_round_trips_every_instrument():
    text = prometheus_from_snapshot(_registry().to_dict())
    types, samples = _parse_prometheus(text)
    assert types["repro_engine_arrivals_total"] == "counter"
    assert samples["repro_engine_arrivals_total"] == "5"
    assert types["repro_engine_backlog_pkts"] == "gauge"
    assert samples["repro_engine_backlog_pkts"] == "3"
    assert samples["repro_engine_backlog_pkts_min"] == "3"
    assert samples["repro_engine_backlog_pkts_max"] == "3"
    assert types["repro_engine_batch"] == "histogram"
    # Cumulative le buckets, +Inf closing at the total count.
    assert samples['repro_engine_batch_bucket{le="1.0"}'] == "1"
    assert samples['repro_engine_batch_bucket{le="2.0"}'] == "2"
    assert samples['repro_engine_batch_bucket{le="4.0"}'] == "3"
    assert samples['repro_engine_batch_bucket{le="+Inf"}'] == "4"
    assert samples["repro_engine_batch_count"] == "4"
    assert types["repro_sched_latency_us"] == "histogram"
    # LogHistogram: underflow surfaces as the le=min_value bucket.
    assert samples['repro_sched_latency_us_bucket{le="1.0"}'] == "1"
    assert samples['repro_sched_latency_us_bucket{le="+Inf"}'] == "3"
    assert samples["repro_sched_latency_us_count"] == "3"


def test_prometheus_log_histogram_buckets_are_cumulative():
    text = prometheus_from_snapshot(_registry().to_dict())
    cumulative = []
    for line in text.splitlines():
        if line.startswith("repro_sched_latency_us_bucket"):
            cumulative.append(int(line.rsplit(" ", 1)[1]))
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] == 3  # +Inf == count


def test_prometheus_sanitizes_names_and_non_finite_values():
    snapshot = {"counters": {"a.b-c/d": 1},
                "gauges": {"g": {"value": math.inf, "min": math.nan,
                                 "max": -math.inf}}}
    text = prometheus_from_snapshot(snapshot)
    assert "repro_a_b_c_d_total 1" in text
    assert "repro_g +Inf" in text
    assert "repro_g_min NaN" in text
    assert "repro_g_max -Inf" in text


def test_prometheus_empty_snapshot_is_empty():
    assert prometheus_from_snapshot({}) == ""


def _traced_analysis():
    tracer = Tracer()
    tracer.arrival(0.0, "n0.f0", 1500, packet_id=1)
    tracer.enqueue(0.0, "n0.f0", rank=0.0, send_time=2.0,
                   eligible=False)
    tracer.kick(0.5)
    tracer.dequeue(3.0, "n0.f0", rank=0.0, send_time=2.0,
                   eligible_at=2.0)
    tracer.departure(3.0, "n0.f0", 1500, packet_id=1, finish=3.5)
    tracer.arrival(1.0, "n0.f1", 1500, packet_id=2)
    tracer.drop(1.5, "n0.f1", reason="capacity", packet_id=2)
    return TraceAnalysis(tracer.events)


def test_perfetto_trace_structure():
    trace = perfetto_trace(_traced_analysis(), process_name="test-run")
    events = trace["traceEvents"]
    phases = defaultdict(int)
    for event in events:
        phases[event["ph"]] += 1
    # Only complete (X), instant (i), and metadata (M) events, so
    # begin/end are balanced by construction.
    assert set(phases) == {"X", "i", "M"}
    assert phases["X"] == 2   # queued span + tx span
    assert phases["i"] == 2   # drop + kick
    names = {event["name"] for event in events if event["ph"] == "M"}
    assert names == {"process_name", "thread_name",
                     "thread_sort_index"}
    process = next(event for event in events
                   if event["name"] == "process_name")
    assert process["args"]["name"] == "test-run"


def test_perfetto_timestamps_monotonic_per_track():
    trace = perfetto_trace(_traced_analysis())
    last = defaultdict(lambda: -1.0)
    for event in trace["traceEvents"]:
        if event["ph"] == "M":
            continue
        assert event["ts"] >= last[event["tid"]]
        assert event["ts"] >= 0
        last[event["tid"]] = event["ts"]


def test_perfetto_span_args_carry_attribution():
    trace = perfetto_trace(_traced_analysis())
    queued = next(event for event in trace["traceEvents"]
                  if event["name"] == "queued")
    assert queued["dur"] == pytest.approx(3.0 * 1e6)
    assert queued["args"]["eligible_on_enqueue"] is False
    assert queued["args"]["eligible_at_us"] == pytest.approx(2.0 * 1e6)
    tx = next(event for event in trace["traceEvents"]
              if event["name"].startswith("tx pkt"))
    assert tx["args"]["latency_us"] == pytest.approx(3.5 * 1e6)
    assert tx["args"]["eligibility_us"] == pytest.approx(2.0 * 1e6)


def test_write_perfetto_is_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    count = write_perfetto(path, _traced_analysis())
    assert count == 4
    loaded = json.loads(path.read_text())
    assert loaded["displayTimeUnit"] == "ms"
    assert len(loaded["traceEvents"]) > count  # metadata on top

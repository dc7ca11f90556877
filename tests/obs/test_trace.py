"""Tracer unit tests: typed events, ring buffer, JSONL export."""

import json
import math

import pytest

from repro.obs import (EVENT_KINDS, NULL_TRACER, LabelledTracer, TraceEvent,
                       Tracer, labelled, read_jsonl)


def test_typed_emitters_produce_typed_events():
    tracer = Tracer()
    tracer.arrival(0.1, "f0", 1500, packet_id=7)
    tracer.enqueue(0.1, "f0", rank=3, send_time=0)
    tracer.dequeue(0.2, "f0", rank=3)
    tracer.departure(0.2, "f0", 1500, packet_id=7, finish=0.3)
    tracer.drop(0.3, "f1", reason="capacity")
    tracer.timer_arm(0.3, 1, deadline=0.4, scope="engine.retry")
    tracer.timer_fire(0.4, 1, scope="engine.retry")
    tracer.timer_cancel(0.4, 2, scope="sim")
    tracer.kick(0.4, at=0.5)
    tracer.link_busy(0.5, until=0.6, flow_id="f0")
    tracer.link_idle(0.6)
    tracer.mark(0.6, "sweep", target=4.0)
    kinds = [event.kind for event in tracer.events]
    assert kinds == ["arrival", "enqueue", "dequeue", "departure",
                     "drop", "timer_arm", "timer_fire", "timer_cancel",
                     "kick", "link_busy", "link_idle", "mark"]
    assert all(kind in EVENT_KINDS for kind in kinds)
    assert tracer.emitted == 12
    assert tracer.counts["arrival"] == 1
    assert tracer.events[0].get("flow_id") == "f0"
    assert tracer.events[3].get("finish") == 0.3


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown trace event kind"):
        Tracer().emit(0.0, "explosion")


def test_field_named_t_rejected():
    tracer = Tracer()
    with pytest.raises(ValueError, match="'t' is reserved"):
        tracer.mark(0.0, "x", t=5)
    with pytest.raises(ValueError, match="'t' is reserved"):
        tracer.emit(0.0, "kick", t=5)
    assert tracer.emitted == 0 and not tracer.counts


@pytest.mark.parametrize("name", ["t", "kind"])
def test_reserved_label_rejected_when_view_is_built(name):
    tracer = Tracer()
    with pytest.raises(ValueError, match="reserved"):
        LabelledTracer(tracer, **{name: "x"})
    with pytest.raises(ValueError, match="reserved"):
        labelled(tracer, port="p0", **{name: "x"})
    # Rejected on the untraced path too, not only once a tracer exists.
    with pytest.raises(ValueError, match="reserved"):
        labelled(NULL_TRACER, **{name: "x"})


def test_span_measures_wall_clock():
    tracer = Tracer()
    with tracer.span("dequeue", sim_time=1.5) as span:
        sum(range(1000))
    assert span.wall_us is not None and span.wall_us >= 0
    (event,) = tracer.events_of("span")
    assert event.time == 1.5
    assert event.get("name") == "dequeue"
    assert event.get("wall_us") == pytest.approx(span.wall_us, abs=0.01)


def test_ring_buffer_bounds_retention_and_counts_drops():
    tracer = Tracer(capacity=3)
    for index in range(10):
        tracer.kick(float(index))
    assert len(tracer.events) == 3
    assert [event.time for event in tracer.events] == [7.0, 8.0, 9.0]
    assert tracer.emitted == 10
    assert tracer.dropped == 7
    assert tracer.counts["kick"] == 10


def test_zero_capacity_retains_nothing_but_counts():
    tracer = Tracer(capacity=0)
    tracer.kick(0.0)
    assert len(tracer.events) == 0
    assert tracer.emitted == 1


def test_events_of_filters_by_kind():
    tracer = Tracer()
    tracer.kick(0.0)
    tracer.link_idle(1.0)
    tracer.kick(2.0)
    assert [event.time for event in tracer.events_of("kick")] == [0.0, 2.0]
    assert len(tracer.events_of("kick", "link_idle")) == 3


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    tracer.enqueue(0.25, "f0", rank=3, send_time=math.inf)
    tracer.departure(0.5, "f0", 1500, packet_id=1, finish=0.6)
    path = tmp_path / "trace.jsonl"
    assert tracer.write_jsonl(path) == 2
    records = read_jsonl(path)
    assert records[0]["kind"] == "enqueue"
    # Non-finite floats are string-encoded on disk (strict JSON) and
    # revived to floats by read_jsonl.
    assert records[0]["send_time"] == math.inf
    assert records[1] == {"t": 0.5, "kind": "departure", "flow_id": "f0",
                          "size_bytes": 1500, "packet_id": 1,
                          "finish": 0.6}
    # Every line parses under the strict (default-forbidding) decoder,
    # i.e. the on-disk representation never contains bare Infinity/NaN.
    for line in path.read_text().splitlines():
        record = json.loads(line, parse_constant=lambda _: pytest.fail(
            "non-strict JSON constant leaked into the export"))
        assert record["kind"] != "enqueue" or record["send_time"] == "inf"


def test_jsonl_round_trip_non_finite_and_empty(tmp_path):
    """read_jsonl ∘ write_jsonl is the identity for every numeric field,
    non-finite floats included (satellite: inf/nan ranks + deadlines)."""
    tracer = Tracer()
    tracer.enqueue(0.0, "f0", rank=math.inf, send_time=-math.inf)
    tracer.enqueue(0.1, "f1", rank=math.nan, send_time=0.0)
    tracer.timer_arm(0.2, 1, deadline=math.inf, scope="engine.retry")
    tracer.dequeue(0.3, "f0", rank=math.inf, eligible_at=math.nan)
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    records = read_jsonl(path)
    assert records[0]["rank"] == math.inf
    assert records[0]["send_time"] == -math.inf
    assert math.isnan(records[1]["rank"])
    assert records[2]["deadline"] == math.inf
    assert math.isnan(records[3]["eligible_at"])
    # Non-numeric fields are never revived, even if they look numeric.
    tracer2 = Tracer()
    tracer2.drop(0.0, "f0", reason="inf")
    tracer2.write_jsonl(path)
    assert read_jsonl(path)[0]["reason"] == "inf"


def test_jsonl_empty_trace(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert Tracer().write_jsonl(path) == 0
    assert read_jsonl(path) == []


def test_read_jsonl_rejects_corruption(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 0.0, "kind": "kick"}\n{"t": 0.1, "ki\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2.*malformed"):
        read_jsonl(path)
    path.write_text('[1, 2, 3]\n')
    with pytest.raises(ValueError, match="not a JSON object"):
        read_jsonl(path)


def test_streaming_sink_writes_as_events_happen(tmp_path):
    path = tmp_path / "stream.jsonl"
    tracer = Tracer.open_jsonl(path)
    tracer.kick(0.0)
    tracer.link_idle(1.0)
    tracer.close()
    records = read_jsonl(path)
    assert [record["kind"] for record in records] == ["kick", "link_idle"]
    assert len(tracer.events) == 0  # streaming mode retains nothing


def test_trace_event_json_is_compact():
    event = TraceEvent(0.125, "kick", {"at": 0.25})
    assert event.to_json() == '{"t":0.125,"kind":"kick","at":0.25}'


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.enabled = False
    tracer.kick(0.0)
    assert tracer.emitted == 0 and len(tracer.events) == 0

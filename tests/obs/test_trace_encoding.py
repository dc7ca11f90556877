"""Randomized differential test of the one-pass trace encoder.

The oracle is the encoding every trace line had before emission moved to
a prebuilt C encoder: ``json.dumps`` of ``TraceEvent.to_dict()`` (whose
top-level non-finite floats are strings) with compact separators, and
labels stamped by ``setdefault`` view by view, starting with the view
emitted on.  Hypothesis draws calls of every typed emitter and of
``emit``, through a tracer and through nested labelled views whose
labels collide with each other and with explicit fields, and field
values that exercise every encoding path: finite and non-finite floats
(top-level and nested), bools, ``None``, big ints, strings that need
escaping, tuple flow ids.
"""

from __future__ import annotations

import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import EVENT_KINDS, LabelledTracer, TraceEvent, Tracer

#: Typed emitter -> (event kind, parameter -> field name).
EMITTERS = {
    "arrival": ("arrival", {"flow_id": "flow_id",
                            "size_bytes": "size_bytes",
                            "packet_id": "packet_id"}),
    "enqueue": ("enqueue", {"flow_id": "flow_id", "rank": "rank",
                            "send_time": "send_time"}),
    "dequeue": ("dequeue", {"flow_id": "flow_id", "rank": "rank"}),
    "departure": ("departure", {"flow_id": "flow_id",
                                "size_bytes": "size_bytes",
                                "packet_id": "packet_id",
                                "finish": "finish"}),
    "drop": ("drop", {"flow_id": "flow_id", "reason": "reason"}),
    "timer_arm": ("timer_arm", {"timer_id": "id", "deadline": "deadline",
                                "scope": "scope"}),
    "timer_fire": ("timer_fire", {"timer_id": "id", "scope": "scope"}),
    "timer_cancel": ("timer_cancel", {"timer_id": "id", "scope": "scope"}),
    "kick": ("kick", {"at": "at"}),
    "link_busy": ("link_busy", {"until": "until", "flow_id": "flow_id"}),
    "link_idle": ("link_idle", {}),
    "mark": ("mark", {"label": "label"}),
}

#: Names drawn for extra fields and labels; they collide with the typed
#: emitters' own fields and with each other.
NAMES = ("port", "switch", "flow_id", "rank", "id", "note", "wall_us",
         "é")

non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
floats = st.floats() | non_finite
escaped_text = st.text(max_size=6) | st.sampled_from(
    ['q"uote', "back\\slash", "tab\tnl\n\x00\x1f", "\u2028", "naïve",
     "\U0001f600", "inf"])
scalars = (floats | st.booleans() | st.none()
           | st.integers(min_value=-2 ** 80, max_value=2 ** 80)
           | escaped_text)
flow_ids = escaped_text | st.tuples(st.integers(0, 9), escaped_text) \
    | st.integers(0, 2 ** 64)
values = st.recursive(
    scalars | flow_ids,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.tuples(inner, inner)
                   | st.dictionaries(escaped_text, inner, max_size=2)),
    max_leaves=5)


@st.composite
def calls(draw):
    """``(method, time, arguments, kind, fields)``: a call and the kind
    and explicit fields (in order) it records."""
    time = draw(floats)
    method = draw(st.sampled_from(sorted(EMITTERS) + ["emit"]))
    if method == "emit":
        kind = draw(st.sampled_from(EVENT_KINDS))
        arguments, fields = {}, {}
        taken = set()
    else:
        kind, parameters = EMITTERS[method]
        arguments = {parameter: draw(values)
                     for parameter in parameters}
        fields = {parameters[parameter]: value
                  for parameter, value in arguments.items()}
        taken = set(parameters) | set(fields)
    for name in draw(st.lists(st.sampled_from(NAMES), unique=True,
                              max_size=3)):
        if name not in taken:
            arguments[name] = fields[name] = draw(values)
    return method, time, arguments, kind, fields


label_sets = st.lists(
    st.dictionaries(st.sampled_from(NAMES), scalars | flow_ids,
                    min_size=1, max_size=3),
    max_size=2)


def _view(tracer, label_sets):
    view = tracer
    for labels in label_sets:
        view = LabelledTracer(view, **labels)
    return view


def _oracle(view, kind, time, fields) -> str:
    fields = dict(fields)
    while isinstance(view, LabelledTracer):
        for key, value in view.labels.items():
            fields.setdefault(key, value)
        view = view.base
    return json.dumps(TraceEvent(time, kind, fields).to_dict(),
                      separators=(",", ":"))


def _call(view, method, time, arguments, kind):
    if method == "emit":
        view.emit(time, kind, **arguments)
    else:
        getattr(view, method)(time, **arguments)


@settings(max_examples=300, deadline=None)
@given(st.lists(calls(), min_size=1, max_size=8), label_sets)
def test_every_line_matches_the_json_dumps_oracle(drawn, labels):
    sink = io.StringIO()
    streaming = Tracer(capacity=0, sink=sink)
    retaining = Tracer()
    expected = []
    for method, time, arguments, kind, fields in drawn:
        for tracer in (streaming, retaining):
            _call(_view(tracer, labels), method, time, arguments, kind)
        expected.append(_oracle(_view(streaming, labels), kind, time,
                                fields))
    assert sink.getvalue().splitlines() == expected
    assert list(retaining.iter_jsonl()) == expected
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "trace.jsonl")
        assert retaining.write_jsonl(path) == len(expected)
        with open(path) as handle:
            assert handle.read().splitlines() == expected
    # A sharded worker's lines re-emitted into another tracer come out
    # byte for byte as they went in.
    merged = io.StringIO()
    assert Tracer(capacity=0, sink=merged).absorb_jsonl(
        sink.getvalue().splitlines()) == len(expected)
    assert merged.getvalue() == sink.getvalue()


class Opaque:
    pass


@settings(max_examples=100, deadline=None)
@given(calls(), label_sets, st.booleans())
def test_unserializable_value_raises_type_error_on_both_paths(
        call, labels, nested):
    method, time, arguments, kind, fields = call
    # ``note`` is no emitter's own field, so it is always an extra one.
    arguments["note"] = fields["note"] = (
        [math.nan, Opaque()] if nested else Opaque())
    with pytest.raises(TypeError):
        _oracle(_view(Tracer(), labels), kind, time, fields)
    with pytest.raises(TypeError):
        _call(_view(Tracer(capacity=0, sink=io.StringIO()), labels),
              method, time, arguments, kind)
    retaining = Tracer()
    _call(_view(retaining, labels), method, time, arguments, kind)
    with pytest.raises(TypeError):
        list(retaining.iter_jsonl())

"""Randomized differential test of the streamed trace encoder.

The oracle is the encoding every trace line had before emission moved off
``json.dumps``: ``json.dumps`` of the record's plain-dict form (whose
top-level non-finite floats are strings) with compact separators, and
labels stamped by ``setdefault`` view by view, starting with the view
emitted on.  A streaming tracer builds each line from memoized texts of
its scalars and sends any other record to a prebuilt C encoder; a
retaining tracer encodes with the C encoder only.  Hypothesis draws
calls of every typed emitter and of ``emit``, through a tracer and
through nested labelled views whose labels collide with each other and
with explicit fields, and field values that exercise every path: finite
and non-finite floats (top-level and nested), bools, ``None``, big ints,
``IntEnum``, ``str`` and ``float`` subclasses, strings that need
escaping or are not ASCII, tuple flow ids.  Further tests stream the
values a memo keyed by value could confuse (``0.0``/``-0.0``,
``1``/``1.0``/``True``, a non-finite float after a finite one) into the
same field event after event, and more distinct floats than the memo
holds, so that it is cleared mid-stream.
"""

from __future__ import annotations

import enum
import io
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import EVENT_KINDS, LabelledTracer, Tracer
from repro.obs.trace import _MEMO_BOUND, _json_safe

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


class Priority(enum.IntEnum):
    LOW = 0
    HIGH = 1


class Name(str):
    pass


class Seconds(float):
    def __repr__(self):
        return "Seconds(...)"


non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
floats = st.floats() | non_finite
escaped_text = st.text(max_size=6) | st.sampled_from(
    ['q"uote', "back\\slash", "tab\tnl\n\x00\x1f", "\u2028", "naïve",
     "\U0001f600", "inf"])
#: Values that compare equal, or that a memo keyed by value must not
#: answer for each other, and subclass instances the memo never sees.
confusable = st.sampled_from(
    [0.0, -0.0, 0, False, 1, 1.0, True, "1", "1.0", "", math.inf,
     -math.inf, math.nan, Priority.LOW, Priority.HIGH, Name("1"),
     Name(""), Seconds(1.0), Seconds(-0.0), Seconds(math.inf)])
scalars = (floats | st.booleans() | st.none()
           | st.integers(min_value=-2 ** 80, max_value=2 ** 80)
           | escaped_text | confusable)
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
    record = {"t": _json_safe(time), "kind": kind}
    for key, value in fields.items():
        record[key] = _json_safe(value)
    return json.dumps(record, separators=(",", ":"))


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


@settings(max_examples=200, deadline=None)
@example([(value, value) for value in (
    0.0, -0.0, 0, False, 1.0, 1, True, "1", Name("1"), Priority.HIGH,
    Seconds(1.0), 2.5, math.inf, 2.5, math.nan, -0.0, 0.0)], "rank")
@given(st.lists(st.tuples(confusable | floats, confusable | scalars),
                min_size=2, max_size=12),
       st.sampled_from(["rank", "note", "é"]))
def test_memo_never_confuses_values_across_events(drawn, name):
    """Events writing equal-comparing values into one field, and as
    their time, stream the oracle's lines."""
    sink = io.StringIO()
    tracer = Tracer(capacity=0, sink=sink)
    expected = []
    for time, value in drawn:
        tracer.emit(time, "mark", **{name: value})
        expected.append(_oracle(tracer, "mark", time, {name: value}))
    assert sink.getvalue().splitlines() == expected


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_lines_survive_memo_clears(seed):
    """A stream of more distinct floats than the memo holds, revisiting
    earlier ones after a clear, still matches the oracle line by line."""
    rng = random.Random(seed)
    sink = io.StringIO()
    tracer = Tracer(capacity=0, sink=sink)
    seen = [0.5]
    expected = []
    for _ in range(3 * _MEMO_BOUND):
        if rng.random() < 0.5:
            value = rng.choice(seen)
        else:
            value = rng.uniform(-1e6, 1e6)
            seen.append(value)
        time = rng.choice(seen)
        tracer.enqueue(time, "f0", rank=value, send_time=-value)
        expected.append(_oracle(tracer, "enqueue", time, {
            "flow_id": "f0", "rank": value, "send_time": -value}))
    assert len(seen) > _MEMO_BOUND
    assert sink.getvalue().splitlines() == expected


def test_memo_stays_within_its_bound():
    """10k distinct times, then 10k distinct field values under 3k field
    names, fill each memo to its bound and never past it."""
    tracer = Tracer(capacity=0, sink=io.StringIO())
    rng = random.Random(7)
    largest = 0
    for _ in range(10_000):
        tracer.emit(rng.random(), "mark")
        largest = max(largest, len(tracer._texts))
    assert largest == _MEMO_BOUND
    tracer._texts.clear()
    largest = 0
    for index in range(10_000):
        tracer.emit(0.5, "mark", **{f"field{index % 3000}": rng.random()})
        largest = max(largest, len(tracer._texts), len(tracer._names))
    assert largest == _MEMO_BOUND


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
    sink = io.StringIO()
    streaming = Tracer(capacity=0, sink=sink)
    # The same call with a serializable ``note`` warms the memos first.
    _call(_view(streaming, labels), method, time,
          dict(arguments, note=0.5), kind)
    written = sink.getvalue()
    with pytest.raises(TypeError):
        _call(_view(streaming, labels), method, time, arguments, kind)
    assert sink.getvalue() == written
    retaining = Tracer()
    _call(_view(retaining, labels), method, time, arguments, kind)
    with pytest.raises(TypeError):
        list(retaining.iter_jsonl())

"""Cost of one streamed trace event, counted exactly.

Under ``sys.setprofile`` one event streamed to a JSONL sink makes at
most two Python calls through a :class:`Tracer` (the typed emitter and
``emit``) and three through a :class:`LabelledTracer`, however deeply
views nest: the record dict and its line are built by one call into a
prebuilt C encoder, and no :class:`TraceEvent` is allocated.  The count
is exact, so the guard is deterministic.
"""

from __future__ import annotations

import gc
import io
import sys

import pytest

from repro.obs import Gauge, Tracer, labelled

#: ``(positional, keyword)`` arguments of one call of every typed
#: emitter, and of ``emit`` itself.
EVENTS = {
    "arrival": ((0.1, "f0", 1500), {"packet_id": 1}),
    "enqueue": ((0.1, "f0"), {"rank": 3.5, "send_time": 0.0}),
    "dequeue": ((0.2, "f0"), {"rank": 3.5}),
    "departure": ((0.2, "f0", 1500), {"packet_id": 1, "finish": 0.3}),
    "drop": ((0.3, "f0"), {"reason": "capacity"}),
    "timer_arm": ((0.3, 1), {"deadline": 0.4}),
    "timer_fire": ((0.4, 1), {}),
    "timer_cancel": ((0.4, 2), {}),
    "kick": ((0.4,), {"at": 0.5}),
    "link_busy": ((0.5,), {"until": 0.6, "flow_id": "f0"}),
    "link_idle": ((0.6,), {}),
    "mark": ((0.6, "sweep"), {"target": 4.0}),
    "emit": ((0.7, "kick"), {"at": 0.8}),
}


def _python_calls(method, *args, **kwargs) -> int:
    """Python frames entered by ``method(*args, **kwargs)``; calls into
    C are not counted.  The cyclic collector is paused, so finalizers
    of unrelated garbage cannot run inside the count."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.disable()
    sys.setprofile(count)
    try:
        method(*args, **kwargs)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def _emit_twice(view, event) -> int:
    """Python calls of ``event``'s second emission on ``view`` (a kind
    is validated the first time only)."""
    args, kwargs = EVENTS[event]
    method = getattr(view, event)
    method(*args, **kwargs)
    return _python_calls(method, *args, **kwargs)


def _streaming() -> Tracer:
    return Tracer(capacity=0, sink=io.StringIO())


@pytest.mark.parametrize("event", sorted(EVENTS))
def test_streamed_event_costs_two_python_calls(event):
    tracer = _streaming()
    assert _emit_twice(tracer, event) <= 2
    assert tracer.emitted == 2


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("event", sorted(EVENTS))
def test_labelled_event_costs_three_python_calls(event, depth):
    tracer = _streaming()
    view = tracer
    for level in range(depth):
        view = labelled(view, **{f"level{level}": level, "port": level})
    assert _emit_twice(view, event) <= 3
    assert tracer.emitted == 2


@pytest.mark.parametrize("method", ["set", "inc", "dec"])
def test_gauge_update_is_one_python_call(method):
    gauge = Gauge()
    assert _python_calls(getattr(gauge, method), 2) == 1
    assert gauge.min is not None and gauge.max is not None

"""Sweep heartbeat: progress lines, ETA, failures and mark events.

Heartbeats run on an injected fake clock, so no assertion depends on
host timing.
"""

from __future__ import annotations

import contextlib
import io

import pytest

from repro.obs import Tracer
from repro.obs.heartbeat import NULL_HEARTBEAT, SweepHeartbeat


class FakeClock:
    """Deterministic clock: advances only when told."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, delta: float) -> None:
        self.now += delta


def heartbeat_marks(tracer):
    return [event.fields for event in tracer.events
            if event.fields.get("label") == "sweep.heartbeat"]


class TestSweepHeartbeat:
    def test_sequential_points_report_progress(self):
        clock, stream = FakeClock(), io.StringIO()
        tracer = Tracer()
        pulse = SweepHeartbeat(stream=stream, tracer=tracer,
                               clock=clock)
        pulse.begin(2, jobs=1)
        with pulse.point(0):
            clock.advance(2.0)
        with pulse.point(1):
            clock.advance(4.0)
        pulse.finish()
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[sweep] starting 2 point(s), jobs=1"
        assert "1/2 done | point 0: 2.000s" in lines[1]
        assert "eta 2.00s" in lines[1]
        assert "2/2 done | point 1: 4.000s" in lines[2]
        assert "eta" not in lines[2]
        assert "2/2 points in 6.00s" in lines[3]
        assert "all workers healthy" in lines[3]
        marks = heartbeat_marks(tracer)
        phases = [mark["phase"] for mark in marks]
        assert phases == ["begin", "point", "point", "finish"]
        assert marks[1]["wall_s"] == pytest.approx(2.0)
        assert marks[2]["done"] == 2

    def test_eta_accounts_for_jobs(self):
        pulse = SweepHeartbeat(stream=io.StringIO(), clock=FakeClock())
        pulse.begin(9, jobs=4)
        pulse.point_done(0, 2.0)
        # 8 points remain over 4 workers at 2 s each.
        assert pulse.eta_s() == pytest.approx(4.0)

    def test_failure_reported_and_reraised(self):
        clock, stream = FakeClock(), io.StringIO()
        tracer = Tracer()
        pulse = SweepHeartbeat(stream=stream, tracer=tracer,
                               clock=clock)
        pulse.begin(1)
        with pytest.raises(ValueError, match="boom"):
            with pulse.point(0):
                raise ValueError("boom")
        pulse.finish()
        output = stream.getvalue()
        assert "point 0 FAILED: ValueError('boom')" in output
        assert "1 failure(s)" in output
        failed = [mark for mark in heartbeat_marks(tracer)
                  if mark["phase"] == "failed"]
        assert failed[0]["error"] == "ValueError('boom')"

    def test_min_interval_throttles_lines_not_marks(self):
        clock, stream = FakeClock(), io.StringIO()
        tracer = Tracer()
        pulse = SweepHeartbeat(stream=stream, tracer=tracer,
                               clock=clock, min_interval_s=10.0)
        pulse.begin(3)
        for index in range(3):
            with pulse.point(index):
                clock.advance(1.0)
        progress = [line for line in stream.getvalue().splitlines()
                    if "done | point" in line]
        # First and final points always print; the middle is throttled.
        assert len(progress) == 2
        marks = [mark for mark in heartbeat_marks(tracer)
                 if mark["phase"] == "point"]
        assert len(marks) == 3

    def test_works_without_tracer(self):
        pulse = SweepHeartbeat(stream=io.StringIO(), clock=FakeClock())
        pulse.begin(1)
        with pulse.point(0):
            pass
        pulse.finish()  # no tracer attached: lines only, no error


class TestNullSweepHeartbeat:
    def test_all_noops(self):
        NULL_HEARTBEAT.begin(5, jobs=2)
        with NULL_HEARTBEAT.point(0):
            pass
        NULL_HEARTBEAT.point_done(0, 1.0)
        NULL_HEARTBEAT.point_failed(0, ValueError())
        NULL_HEARTBEAT.finish()
        assert isinstance(NULL_HEARTBEAT.point(0), contextlib.nullcontext)

"""Sweep heartbeat through ``run_sweep``: sequential and pooled paths.

The heartbeat observes only — results must stay identical with or
without one, on both the ``jobs=1`` in-process path and the ``jobs>1``
pool path.
"""

from __future__ import annotations

import io

import pytest

from repro.experiments.fig12_fair_queue import fair_queue_table
from repro.experiments.runner import run_sweep
from repro.obs import Tracer
from repro.obs.heartbeat import SweepHeartbeat

FAST = dict(sweep_gbps=(1.0, 2.0), duration=0.001)


def square_worker(spec):
    """Module level so the ``jobs=4`` pool can pickle it."""
    index, value = spec
    return value * value


def failing_worker(spec):
    index, value = spec
    if index == 1:
        raise RuntimeError(f"point {index} exploded")
    return value


def heartbeat_fields(tracer):
    return [event.fields for event in tracer.events
            if event.fields.get("label") == "sweep.heartbeat"]


SPECS = [(index, value) for index, value in enumerate([3, 5, 7, 9])]


class TestRunSweepHeartbeat:
    def test_results_unchanged_by_heartbeat_jobs1(self):
        plain = run_sweep(square_worker, SPECS, jobs=1)
        pulse = SweepHeartbeat(stream=io.StringIO())
        observed = run_sweep(square_worker, SPECS, jobs=1,
                             heartbeat=pulse)
        assert observed == plain == [9, 25, 49, 81]
        assert pulse.done == 4
        assert pulse.failures == 0

    def test_results_unchanged_by_heartbeat_jobs4(self):
        plain = run_sweep(square_worker, SPECS, jobs=4)
        pulse = SweepHeartbeat(stream=io.StringIO())
        observed = run_sweep(square_worker, SPECS, jobs=4,
                             heartbeat=pulse)
        assert observed == plain == [9, 25, 49, 81]
        assert pulse.done == 4
        assert pulse.jobs == 4

    def test_stream_reports_every_point_jobs1(self):
        stream = io.StringIO()
        run_sweep(square_worker, SPECS, jobs=1,
                  heartbeat=SweepHeartbeat(stream=stream))
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[sweep] starting 4 point(s), jobs=1"
        assert sum("done | point" in line for line in lines) == 4
        assert "all workers healthy" in lines[-1]

    def test_stream_reports_every_point_jobs4(self):
        stream = io.StringIO()
        run_sweep(square_worker, SPECS, jobs=4,
                  heartbeat=SweepHeartbeat(stream=stream))
        lines = stream.getvalue().splitlines()
        assert lines[0] == "[sweep] starting 4 point(s), jobs=4"
        assert sum("done | point" in line for line in lines) == 4
        assert "all workers healthy" in lines[-1]

    def test_trace_marks_emitted(self):
        tracer = Tracer()
        run_sweep(square_worker, SPECS, jobs=1,
                  heartbeat=SweepHeartbeat(stream=io.StringIO(),
                                           tracer=tracer))
        phases = [fields["phase"]
                  for fields in heartbeat_fields(tracer)]
        assert phases == ["begin"] + ["point"] * 4 + ["finish"]

    def test_worker_failure_reported_then_raised_jobs1(self):
        stream = io.StringIO()
        pulse = SweepHeartbeat(stream=stream)
        with pytest.raises(RuntimeError, match="exploded"):
            run_sweep(failing_worker, SPECS, jobs=1, heartbeat=pulse)
        assert pulse.failures == 1
        assert "FAILED" in stream.getvalue()

    def test_worker_failure_reported_then_raised_jobs4(self):
        stream = io.StringIO()
        pulse = SweepHeartbeat(stream=stream)
        with pytest.raises(RuntimeError, match="exploded"):
            run_sweep(failing_worker, SPECS, jobs=4, heartbeat=pulse)
        assert pulse.failures == 1
        assert "FAILED" in stream.getvalue()

    def test_no_heartbeat_path_untouched(self):
        assert run_sweep(square_worker, SPECS, jobs=1) \
            == [9, 25, 49, 81]


class TestExperimentHeartbeat:
    def test_fig12_table_identical_with_heartbeat(self):
        plain = fair_queue_table(**FAST).to_text()
        observed = fair_queue_table(
            heartbeat=SweepHeartbeat(stream=io.StringIO()),
            **FAST).to_text()
        assert observed == plain

    def test_fig12_trace_identical_heartbeat_marks_extra(self):
        """Heartbeat marks ride alongside the sweep's own events; the
        non-heartbeat events stay byte-identical."""

        def run(heartbeat):
            tracer = Tracer()
            fair_queue_table(tracer=tracer,
                             heartbeat=heartbeat, **FAST)
            return tracer

        plain = run(None)
        pulsed = run(SweepHeartbeat(stream=io.StringIO()))
        strip = [event.to_json() for event in pulsed.events
                 if event.fields.get("label") != "sweep.heartbeat"]
        assert strip == [event.to_json() for event in plain.events]

    def test_fig12_heartbeat_counts_points(self):
        stream = io.StringIO()
        tracer = Tracer()
        pulse = SweepHeartbeat(stream=stream, tracer=tracer)
        fair_queue_table(heartbeat=pulse, **FAST)
        assert pulse.done == len(FAST["sweep_gbps"])
        assert sum(1 for fields in heartbeat_fields(tracer)
                   if fields["phase"] == "point") == 2

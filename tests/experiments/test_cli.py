"""CLI behaviour: error paths, backend listing, and the observability
flags (``--trace`` / ``--metrics`` / ``--duration``)."""

import json

import pytest

from repro.core.backends import available_backends
from repro.experiments.__main__ import main
from repro.obs import EVENT_KINDS, read_jsonl


def _run(*argv):
    return main(["prog", *argv])


def test_unknown_experiment_returns_2(capsys):
    assert _run("figTHIRTEEN") == 2
    out = capsys.readouterr().out
    assert "unknown experiment" in out
    assert "fig11" in out  # the error lists the valid choices


def test_unknown_backend_returns_2(capsys):
    assert _run("--backend", "abacus", "rate") == 2
    out = capsys.readouterr().out
    assert "abacus" in out
    assert "reference" in out  # suggests the registered names


def test_list_backends_lists_every_registered_backend(capsys):
    assert _run("--list-backends") == 0
    out = capsys.readouterr().out
    for name in available_backends():
        assert name in out


def test_nonpositive_duration_returns_2(capsys):
    assert _run("fig11", "--duration", "0") == 2
    assert "positive" in capsys.readouterr().out
    assert _run("fig11", "--duration", "-1") == 2


def test_trace_and_metrics_files_are_written_and_parse(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.json"
    assert _run("fig11", "--duration", "0.001",
                "--trace", str(trace_path),
                "--metrics", str(metrics_path)) == 0
    captured = capsys.readouterr()
    assert "Fig. 11" in captured.out          # the table still prints
    assert "trace:" in captured.err           # summary goes to stderr
    assert "metrics ->" in captured.err

    records = read_jsonl(trace_path)
    assert len(records) > 100
    kinds = {record["kind"] for record in records}
    assert kinds <= set(EVENT_KINDS)
    assert {"arrival", "departure", "enqueue", "dequeue",
            "mark"} <= kinds
    # Every line is strict JSON with a time and a kind.
    for record in records:
        assert "t" in record and "kind" in record

    metrics = json.loads(metrics_path.read_text())
    assert metrics["counters"]["engine.departures"] > 0
    assert "sched.queue_depth" in metrics["gauges"]
    assert "engine.schedule_us" in metrics["histograms"]


def test_sweep_marks_delimit_every_sweep_point(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert _run("fig12", "--duration", "0.001",
                "--trace", str(trace_path)) == 0
    marks = [record for record in read_jsonl(trace_path)
             if record["kind"] == "mark"]
    assert len(marks) == 5  # one per Fig. 12 sweep point
    assert all(record["label"] == "fig12.sweep" for record in marks)


def test_trace_file_closed_even_when_a_key_is_unknown(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert _run("nonsense", "--trace", str(trace_path)) == 2
    assert trace_path.exists()  # opened, then closed by the finally


def test_metrics_flag_alone_works(tmp_path):
    metrics_path = tmp_path / "metrics.json"
    assert _run("fig12", "--duration", "0.001",
                "--metrics", str(metrics_path)) == 0
    assert json.loads(metrics_path.read_text())["counters"]


def test_flags_do_not_leak_into_cycle_accurate_experiments(tmp_path):
    """fig8 ignores --trace/--duration (its tables are cycle-accurate,
    not simulation-driven) but must still run cleanly with them set."""
    trace_path = tmp_path / "trace.jsonl"
    assert _run("fig8", "--duration", "0.5",
                "--trace", str(trace_path)) == 0
    assert read_jsonl(trace_path) == []  # nothing traced, file valid


@pytest.mark.parametrize("key", ["fig11", "fig12"])
def test_duration_override_reaches_the_simulation(key, capsys):
    assert _run(key, "--duration", "0.001") == 0
    assert capsys.readouterr().out  # table printed without error


def test_analyze_requires_trace(capsys):
    assert _run("fig11", "--analyze") == 2
    assert "--trace" in capsys.readouterr().out


def test_analyze_summarizes_after_the_run(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert _run("fig11", "--duration", "0.001",
                "--trace", str(trace_path), "--analyze") == 0
    out = capsys.readouterr().out
    assert "per-flow latency attribution" in out
    assert "fig11.sweep" in out
    assert "delivered" in out


def test_heartbeat_flag_reports_liveness(capsys):
    assert _run("fig12", "--duration", "0.001", "--heartbeat") == 0
    err = capsys.readouterr().err
    assert "[sweep] starting" in err
    assert "all workers healthy" in err


def test_heartbeat_marks_land_in_trace(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert _run("fig12", "--duration", "0.001", "--heartbeat",
                "--trace", str(trace_path)) == 0
    events = read_jsonl(trace_path)
    beats = [event for event in events
             if event.get("label") == "sweep.heartbeat"]
    assert beats, "expected sweep.heartbeat marks in the trace"
    assert all(event["kind"] == "mark" for event in beats)


def test_no_heartbeat_keeps_trace_clean(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert _run("fig12", "--duration", "0.001",
                "--trace", str(trace_path)) == 0
    events = read_jsonl(trace_path)
    assert not any(event.get("label") == "sweep.heartbeat"
                   for event in events)
